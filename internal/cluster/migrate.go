package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"amnt/internal/store"
)

// Report is one migration's outcome, as logged by the proxy and
// committed to BENCH_cluster.json by the smoke drill.
type Report struct {
	Partition  int     `json:"partition"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	ImageBytes int     `json:"image_bytes"`
	DeltaOps   int     `json:"delta_ops"`
	Rounds     int     `json:"rounds"`
	FenceMS    float64 `json:"fence_ms"`
	WallMS     float64 `json:"wall_ms"`
}

// Migrator drives one live partition hand-off over the nodes'
// /v1/migrate surface: checkpoint on the source, stream to the
// destination, replay the journaled write delta in rounds while the
// source keeps serving, then fence writes for the final delta, flip
// ring ownership, and detach the source. Reads serve from the source
// until the flip; writes are nacked retryable only inside the fence
// window.
type Migrator struct {
	// DeltaBatch bounds ops per delta round (default 4096).
	DeltaBatch int
	// MaxRounds bounds pre-fence catch-up rounds before fencing
	// regardless of journal depth (default 8).
	MaxRounds int
	// FenceBelow fences as soon as a round leaves at most this many
	// ops outstanding (default 64): the remaining delta is small
	// enough that the fence window stays in the low milliseconds.
	FenceBelow int
	// Flip commits the ownership change between destination activate
	// and source detach — the registry update plus the ring push that
	// makes routers send traffic to the new owner.
	Flip func(ctx context.Context, part int, to string) error

	up *upstream // the proxy's node connections; nil = a pool of its own
}

// do sends one request and reads a 200 answer whole.
func (m *Migrator) do(ctx context.Context, method, url string, body []byte) (out []byte, err error) {
	if m.up == nil {
		m.up = new(upstream)
	}
	err = m.up.do(ctx, method, url, "", body, func(resp *http.Response) error {
		out, _ = io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(out))
		}
		return nil
	})
	return out, err
}

type deltaPage struct {
	Ops       []store.DeltaOp `json:"ops"`
	Remaining int             `json:"remaining"`
}

func (m *Migrator) delta(ctx context.Context, from string, part, max int) (*deltaPage, error) {
	out, err := m.do(ctx, http.MethodGet, fmt.Sprintf("%s/v1/migrate/delta?part=%d&max=%d", from, part, max), nil)
	if err != nil {
		return nil, err
	}
	var page deltaPage
	if err := json.Unmarshal(out, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

func (m *Migrator) apply(ctx context.Context, to string, part int, ops []store.DeltaOp) error {
	if len(ops) == 0 {
		return nil
	}
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return err
	}
	_, err = m.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/apply?part=%d", to, part), body)
	return err
}

// Run executes the full hand-off of partition part from the node at
// `from` to the node at `to` (base URLs). On failure the source is
// un-fenced (abort) and the destination's staged copy discarded, so
// the cluster is left exactly as before.
func (m *Migrator) Run(ctx context.Context, part int, from, fromID, to, toID string) (*Report, error) {
	batch := m.DeltaBatch
	if batch <= 0 {
		batch = 4096
	}
	maxRounds := m.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 8
	}
	fenceBelow := m.FenceBelow
	if fenceBelow <= 0 {
		fenceBelow = 64
	}

	rep := &Report{Partition: part, From: fromID, To: toID}
	start := time.Now()
	fail := func(err error) (*Report, error) {
		// Best-effort rollback: un-fence the source, drop the staged
		// destination copy. Use a fresh context — ctx may be why we
		// are here.
		rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.do(rctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/abort?part=%d", from, part), nil)
		m.do(rctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/discard?part=%d", to, part), nil)
		return nil, fmt.Errorf("migrate partition %d %s→%s: %w", part, fromID, toID, err)
	}

	// 1. Checkpoint the source with the write journal armed.
	image, err := m.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/begin?part=%d", from, part), nil)
	if err != nil {
		return nil, fmt.Errorf("migrate partition %d %s→%s: begin: %w", part, fromID, toID, err)
	}
	rep.ImageBytes = len(image)

	// 2. Stream the image to the destination; it loads, recovers, and
	// integrity-audits the copy before reporting success.
	if _, err := m.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/attach?part=%d", to, part), image); err != nil {
		return fail(fmt.Errorf("attach: %w", err))
	}

	// 3. Catch-up rounds: drain the journaled write delta while the
	// source still serves, until it is nearly dry.
	for {
		page, err := m.delta(ctx, from, part, batch)
		if err != nil {
			return fail(fmt.Errorf("delta round %d: %w", rep.Rounds, err))
		}
		if err := m.apply(ctx, to, part, page.Ops); err != nil {
			return fail(fmt.Errorf("apply round %d: %w", rep.Rounds, err))
		}
		rep.DeltaOps += len(page.Ops)
		rep.Rounds++
		if page.Remaining <= fenceBelow || rep.Rounds >= maxRounds {
			break
		}
	}

	// 4. Fence: writes to the partition nack retryable from here
	// until the flip; reads keep serving from the source.
	fenceStart := time.Now()
	if _, err := m.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/fence?part=%d", from, part), nil); err != nil {
		return fail(fmt.Errorf("fence: %w", err))
	}

	// 5. Final delta behind the fence — by construction complete.
	for {
		page, err := m.delta(ctx, from, part, batch)
		if err != nil {
			return fail(fmt.Errorf("final delta: %w", err))
		}
		if err := m.apply(ctx, to, part, page.Ops); err != nil {
			return fail(fmt.Errorf("final apply: %w", err))
		}
		rep.DeltaOps += len(page.Ops)
		if page.Remaining == 0 {
			break
		}
	}

	// 6. Activate the destination, flip ring ownership, detach the
	// source. The fence window closes when routers see the flip.
	if _, err := m.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/activate?part=%d", to, part), nil); err != nil {
		return fail(fmt.Errorf("activate: %w", err))
	}
	if m.Flip != nil {
		if err := m.Flip(ctx, part, toID); err != nil {
			return fail(fmt.Errorf("ring flip: %w", err))
		}
	}
	rep.FenceMS = float64(time.Since(fenceStart).Microseconds()) / 1e3
	if _, err := m.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/migrate/detach?part=%d", from, part), nil); err != nil {
		// The flip already happened; the destination owns the
		// partition. A failed detach leaves a fenced zombie shard on
		// the source — report it, but the migration succeeded.
		rep.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		return rep, fmt.Errorf("migrate partition %d: detach after flip: %w", part, err)
	}
	rep.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	return rep, nil
}
