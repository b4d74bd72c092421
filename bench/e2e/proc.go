package e2e

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Env is one benchmark invocation's place on disk: the repository
// root the binaries are built from, the directory the built binaries
// persist in across invocations of one checkout, and a scratch
// directory for server logs and checkpoints that Close removes.
// Everything lives inside the checkout.
type Env struct {
	Root   string
	BinDir string
	tmp    string

	mu    sync.Mutex
	procs []*Proc
}

// FindRoot locates the repository root — the directory whose go.mod
// declares module amnt and that holds the server sources — which must
// be the working directory or its parent (the benchmark runs from
// bench/). It looks no further up, so a directory that holds only the
// benchmark never picks up some other checkout above it.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, root := range []string{dir, filepath.Dir(dir)} {
		b, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err != nil {
			continue
		}
		first, _, _ := strings.Cut(string(b), "\n")
		if strings.TrimSpace(first) != "module amnt" {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "cmd", "amntd")); err == nil {
			return root, nil
		}
	}
	return "", errors.New("e2e: not in an amnt checkout: no go.mod with module amnt and cmd/amntd here or one level up")
}

// NewEnv prepares the build and scratch directories under root.
func NewEnv(root string) (*Env, error) {
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &Env{Root: root, BinDir: bin, tmp: tmp}, nil
}

// TempDir returns a fresh directory under the invocation's scratch
// directory.
func (e *Env) TempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix+"-")
}

// Scratch is the invocation's scratch directory, for callers that
// assert it is gone after Close.
func (e *Env) Scratch() string { return e.tmp }

// Pids lists every server process started so far, running or not,
// for callers that assert none outlives Close.
func (e *Env) Pids() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	pids := make([]int, len(e.procs))
	for i, p := range e.procs {
		pids[i] = p.Pid()
	}
	return pids
}

// Build compiles the real server and simulator binaries from the
// checkout into BinDir, and with ladder set also the in-process probe
// binary from the benchmark's own module. The go tool skips the link
// when the binary on disk is current, so only the first invocation in
// a checkout pays for it. Build time is never part of setup_s.
func (e *Env) Build(ctx context.Context, ladder bool) error {
	run := func(dir string, args ...string) error {
		cmd := exec.CommandContext(ctx, "go", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return nil
	}
	if err := run(e.Root, "build", "-o", e.BinDir+string(filepath.Separator),
		"./cmd/amntd", "./cmd/amntproxy", "./cmd/amntbench"); err != nil {
		return err
	}
	if ladder {
		return run(filepath.Join(e.Root, "bench"), "build", "-o", e.Bin("ladder"), "./ladder")
	}
	return nil
}

// Bin is the path of a built binary.
func (e *Env) Bin(name string) string { return filepath.Join(e.BinDir, name) }

// Close kills every process still running, waits for each, and
// removes the scratch directory.
func (e *Env) Close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.Stop()
	}
	os.RemoveAll(e.tmp)
}

// Proc is one child server process in its own process group, with its
// output captured to a log file in the scratch directory.
type Proc struct {
	Name string
	Addr string // host:port the server listens on
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	once sync.Once
}

// URL is the server's base URL.
func (p *Proc) URL() string { return "http://" + p.Addr }

// Pid is the server's process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Log returns what the server has printed so far.
func (p *Proc) Log() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

// Stop kills the process group and waits until the process has ended.
func (p *Proc) Stop() {
	p.once.Do(func() {
		// Negative pid: the whole group, so nothing a server may have
		// forked survives it.
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
	})
}

// FreeAddr picks a loopback address with a port that was free a
// moment ago.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// Start launches bin with args plus "-addr <addr>", logging to the
// scratch directory, and waits until GET /v1/health answers 200. On
// any failure the process is stopped and its log is part of the error.
func (e *Env) Start(ctx context.Context, name, bin, addr string, args ...string) (*Proc, error) {
	logPath := filepath.Join(e.tmp, name+"-"+strconv.FormatInt(time.Now().UnixNano(), 36)+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.Bin(bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	logf.Close() // the child holds its own descriptor
	p := &Proc{Name: name, Addr: addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()

	if err := p.waitHealthy(ctx, 20*time.Second); err != nil {
		p.Stop()
		return nil, fmt.Errorf("%s not ready: %w\n--- %s log ---\n%s", name, err, name, p.Log())
	}
	return p, nil
}

func (p *Proc) waitHealthy(ctx context.Context, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-p.done:
			return errors.New("process exited")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(p.URL() + "/v1/health")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/v1/health answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Logs concatenates the logs of every process started so far, for
// echoing when a run fails.
func (e *Env) Logs() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b strings.Builder
	for _, p := range e.procs {
		fmt.Fprintf(&b, "--- %s (%s) log ---\n%s\n", p.Name, p.Addr, p.Log())
	}
	return b.String()
}

// cpuTicks reads a process's user+system CPU time from
// /proc/<pid>/stat, in clock ticks (USER_HZ, 100 per second on Linux).
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat")
	}
	return utime + stime, nil
}

// rssMB reads a process's resident set size from /proc/<pid>/status.
func rssMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
