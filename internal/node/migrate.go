package node

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"amnt/internal/cluster"
	"amnt/internal/store"
)

// mountMigrate attaches the migration hand-off surface and the ring
// exchange endpoints. These are operator/router APIs, not data-path
// ones: every step maps one-to-one onto the store's migration
// protocol, so the HTTP driver (cluster.Migrator) composes them into
// a live hand-off.
//
//	POST /v1/migrate/begin?part=N    checkpoint + journal on → image (octet-stream)
//	GET  /v1/migrate/delta?part=N&max=M  → {"ops":[..],"remaining":..}
//	POST /v1/migrate/fence?part=N    write-fence the partition
//	POST /v1/migrate/abort?part=N    lift fence, drop journal
//	POST /v1/migrate/detach?part=N   drop the partition (no final checkpoint)
//	POST /v1/migrate/attach?part=N   body = image; load + recover + verify, staged
//	POST /v1/migrate/apply?part=N    body = {"ops":[..]}; replay a delta page
//	POST /v1/migrate/activate?part=N promote a staged partition to serving
//	POST /v1/migrate/discard?part=N  drop a staged partition
//	POST /v1/migrate/adopt?part=N    load from the shared checkpoint dir + activate
//	GET  /v1/ring                    the cached ring state
//	POST /v1/ring                    install a newer ring state
func (n *Node) mountMigrate(mux *http.ServeMux) {
	st, tr := n.st, n.tr
	part := func(w http.ResponseWriter, r *http.Request) (int, bool) {
		v := r.URL.Query().Get("part")
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad part %q", v))
			return 0, false
		}
		return p, true
	}
	// step wraps the fixed-shape migration steps: POST, part param,
	// traced, {"ok":true} on success.
	step := func(name string, fn func(ctx context.Context, part int) error) http.HandlerFunc {
		return postOnly(func(w http.ResponseWriter, r *http.Request) {
			p, ok := part(w, r)
			if !ok {
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
			defer cancel()
			sp, t0 := tr.begin(tr.migrate, w, r)
			err := fn(ctx, p)
			tr.migrate.Done(sp, t0, err)
			if err != nil {
				n.migrateError(w, r, p, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"ok": true, "op": name, "partition": p})
		})
	}

	mux.HandleFunc("/v1/migrate/begin", postOnly(func(w http.ResponseWriter, r *http.Request) {
		p, ok := part(w, r)
		if !ok {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
		defer cancel()
		sp, t0 := tr.begin(tr.migrate, w, r)
		image, err := st.MigrateBegin(ctx, p)
		tr.migrate.Done(sp, t0, err)
		if err != nil {
			n.migrateError(w, r, p, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(image)))
		_, _ = w.Write(image)
	}))

	mux.HandleFunc("/v1/migrate/delta", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
			return
		}
		p, ok := part(w, r)
		if !ok {
			return
		}
		max := 0
		if v := r.URL.Query().Get("max"); v != "" {
			m, err := strconv.Atoi(v)
			if err != nil || m < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
				return
			}
			max = m
		}
		ops, remaining, err := st.MigrateDelta(p, max)
		if err != nil {
			n.migrateError(w, r, p, err)
			return
		}
		if ops == nil {
			ops = []store.DeltaOp{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"ops": ops, "remaining": remaining})
	})

	mux.HandleFunc("/v1/migrate/attach", postOnly(func(w http.ResponseWriter, r *http.Request) {
		p, ok := part(w, r)
		if !ok {
			return
		}
		// Buffer the image first: a partial read must not leave a
		// half-loaded staged shard.
		image, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		sp, t0 := tr.begin(tr.migrate, w, r)
		err = st.MigrateAttach(p, bytes.NewReader(image))
		tr.migrate.Done(sp, t0, err)
		if err != nil {
			n.migrateError(w, r, p, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "op": "attach", "partition": p, "image_bytes": len(image)})
	}))

	mux.HandleFunc("/v1/migrate/apply", postOnly(func(w http.ResponseWriter, r *http.Request) {
		p, ok := part(w, r)
		if !ok {
			return
		}
		var body struct {
			Ops []store.DeltaOp `json:"ops"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad delta body: %w", err))
			return
		}
		sp, t0 := tr.begin(tr.migrate, w, r)
		err := st.MigrateApply(p, body.Ops)
		tr.migrate.Done(sp, t0, err)
		if err != nil {
			n.migrateError(w, r, p, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "op": "apply", "partition": p, "applied": len(body.Ops)})
	}))

	mux.HandleFunc("/v1/migrate/fence", step("fence", st.MigrateFence))
	mux.HandleFunc("/v1/migrate/abort", step("abort", st.MigrateAbort))
	mux.HandleFunc("/v1/migrate/detach", step("detach", st.MigrateDetach))
	mux.HandleFunc("/v1/migrate/activate", step("activate", func(_ context.Context, p int) error {
		return st.MigrateActivate(p)
	}))
	mux.HandleFunc("/v1/migrate/discard", step("discard", func(_ context.Context, p int) error {
		return st.MigrateDiscard(p)
	}))
	mux.HandleFunc("/v1/migrate/adopt", step("adopt", func(_ context.Context, p int) error {
		return st.Adopt(p)
	}))

	mux.HandleFunc("/v1/ring", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			s := n.ring.Load()
			if s == nil {
				httpError(w, http.StatusNotFound, errors.New("node is not in cluster mode"))
				return
			}
			writeJSON(w, http.StatusOK, s)
		case http.MethodPost:
			var s cluster.State
			if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&s); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad ring state: %w", err))
				return
			}
			installed := n.InstallRing(&s)
			cur := n.ring.Load()
			writeJSON(w, http.StatusOK, map[string]any{"installed": installed, "epoch": cur.Epoch})
		default:
			httpError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
		}
	})
}

// migrateError maps migration-step failures: not-owned keeps the 421
// hint contract (a driver talking to the wrong source learns the
// owner), everything else takes the standard mapping.
func (n *Node) migrateError(w http.ResponseWriter, r *http.Request, part int, err error) {
	if errors.Is(err, store.ErrNotOwned) {
		n.write421(w, r, part)
		return
	}
	httpError(w, statusFor(err), err)
}
