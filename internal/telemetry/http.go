package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// ServeOptions selects what the introspection server exposes. All
// fields are optional; pprof is always served.
type ServeOptions struct {
	// Metrics, when non-nil, is called on every /metrics (Prometheus
	// text exposition) and /vars (expvar-style JSON) request for the
	// snapshot to serve: Registry.Sample for registries whose columns
	// are safe to read concurrently, Registry.Latest for one sampled on
	// the simulation goroutine. A nil snapshot serves no metrics.
	Metrics func() *Snapshot
	// Progress, when non-nil, is JSON-encoded at /progress on each
	// request (live experiment-engine state).
	Progress func() any
	// Register, when non-nil, is called with the server's mux before
	// it starts serving, so embedding commands (amntd) can mount their
	// own routes next to the telemetry ones.
	Register func(mux *http.ServeMux)
}

// Server is a live introspection endpoint bound to a listener.
type Server struct {
	srv   *http.Server
	ln    net.Listener
	start time.Time

	mu     sync.Mutex
	done   chan struct{} // closed when the serve goroutine exits
	closed bool
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately, dropping in-flight requests.
// Prefer Shutdown for a clean stop.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Close()
	<-s.done
	return err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline. On deadline it falls back
// to Close so no connection outlives the call. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still in flight: force them.
		_ = s.srv.Close()
	}
	<-s.done
	return err
}

// Serve binds addr and serves pprof (/debug/pprof/), Prometheus
// metrics (/metrics), current metric values (/vars), live progress
// (/progress), and any routes added by opts.Register in a background
// goroutine. It returns once the listener is bound, so port conflicts
// surface synchronously.
func Serve(addr string, opts ServeOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	s := &Server{
		srv:   &http.Server{Handler: mux},
		ln:    ln,
		start: time.Now(),
		done:  make(chan struct{}),
	}

	if opts.Metrics == nil {
		opts.Metrics = func() *Snapshot { return nil }
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		opts.Metrics().WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := struct {
			UptimeSeconds float64            `json:"uptime_seconds"`
			Cycle         uint64             `json:"cycle"`
			Metrics       map[string]float64 `json:"metrics"`
		}{UptimeSeconds: time.Since(s.start).Seconds(), Metrics: map[string]float64{}}
		if snap := opts.Metrics(); snap != nil {
			out.Cycle = snap.Cycle
			for i, name := range snap.Names {
				out.Metrics[name] = snap.Values[i]
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if opts.Progress == nil {
			fmt.Fprintln(w, "{}")
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(opts.Progress())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "amnt telemetry\n\n/metrics\n/vars\n/progress\n/debug/pprof/\n")
	})
	if opts.Register != nil {
		opts.Register(mux)
	}

	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Listener torn down underneath us; nothing to report.
			_ = err
		}
	}()
	return s, nil
}
