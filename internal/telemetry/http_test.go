package telemetry

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

func TestServeRegisterHook(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("x", "test gauge", func() float64 { return 42 })
	reg.Sample(1)
	srv, err := Serve("127.0.0.1:0", ServeOptions{
		Metrics: reg.Latest,
		Register: func(mux *http.ServeMux) {
			mux.HandleFunc("/custom", func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, "mounted")
			})
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	if code, body := getBody(t, "http://"+srv.Addr()+"/custom"); code != 200 || body != "mounted" {
		t.Fatalf("custom route: code %d body %q", code, body)
	}
	if code, _ := getBody(t, "http://"+srv.Addr()+"/vars"); code != 200 {
		t.Fatalf("/vars: code %d", code)
	}
}

func TestServeNilRegistryVars(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServeOptions{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	if code, _ := getBody(t, "http://"+srv.Addr()+"/vars"); code != 200 {
		t.Fatalf("/vars without registry: code %d", code)
	}
}

// TestServeGracefulShutdown pins the contract amntd relies on:
// Shutdown waits for an in-flight request to complete instead of
// dropping it, new connections are refused afterwards, and a second
// Shutdown is a no-op.
func TestServeGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", ServeOptions{
		Register: func(mux *http.ServeMux) {
			mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
				close(entered)
				<-release
				fmt.Fprint(w, "done")
			})
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	addr := srv.Addr()

	var wg sync.WaitGroup
	wg.Add(1)
	var slowBody string
	var slowErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			slowErr = err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		slowBody = string(b)
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must block on the in-flight request.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if slowErr != nil {
		t.Fatalf("in-flight request dropped: %v", slowErr)
	}
	if slowBody != "done" {
		t.Fatalf("in-flight request body %q", slowBody)
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
	// Idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestServeShutdownDeadline(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", ServeOptions{
		Register: func(mux *http.ServeMux) {
			mux.HandleFunc("/wedge", func(w http.ResponseWriter, _ *http.Request) {
				close(entered)
				<-release
			})
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	go func() {
		_, _ = http.Get("http://" + srv.Addr() + "/wedge")
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The wedged handler never finishes: Shutdown must give up at the
	// deadline (and force-close) rather than hang.
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with wedged handler returned nil before deadline")
	}
	close(release)
}
