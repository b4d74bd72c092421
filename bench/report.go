package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"amnt/bench/e2e"
)

// fingerprint names the host and the inputs a result was taken with.
// Two results are comparable only when everything but the commit
// matches.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(root string, seed int64) fingerprint {
	f := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", CPUModel: "unknown", Commit: "unknown", Seed: seed,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository (the harness's) has no
	// commit to name.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		f.Commit = strings.TrimSpace(string(b))
	}
	return f
}

func (f fingerprint) String() string {
	return fmt.Sprintf("host: nproc %d, GOMAXPROCS %d, %s, kernel %s, cpu %q, commit %s, seed %d",
		f.NProc, f.GOMAXPROCS, f.GoVersion, f.Kernel, f.CPUModel, f.Commit, f.Seed)
}

// comparable reports why two fingerprints cannot be compared, or "".
func (f fingerprint) comparable(g fingerprint) string {
	f.Commit, g.Commit = "", ""
	if f != g {
		return fmt.Sprintf("fingerprints differ:\n  A %v\n  B %v", f, g)
	}
	return ""
}

// report is what `bench all` writes and `bench compare` reads.
type report struct {
	Fingerprint fingerprint   `json:"fingerprint"`
	Runs        []*e2e.Result `json:"runs"`
}

func (r report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// declared is the part of BENCHMARK.json the benchmark reads back:
// the bounds for compare, the names and units for the smoke test.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(root string) (declared, error) {
	var d declared
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// side is one report's runs of one workload's metric.
type side struct {
	values         []float64
	q1, median, q3 float64
}

func newSide(values []float64) side {
	s := side{values: append([]float64(nil), values...)}
	sort.Float64s(s.values)
	s.q1, s.median, s.q3 = e2e.Quantile(s.values, 0.25), e2e.Quantile(s.values, 0.5), e2e.Quantile(s.values, 0.75)
	return s
}

// verdict judges B against A for one end-to-end metric: regressed
// when B's median is worse than A's by more than the bound; but when
// the run-to-run spread of either side exceeds the bound and the two
// sides' runs interleave, the data cannot tell, and it is unresolved.
func verdict(a, b side, lowerIsBetter bool, bound float64) string {
	if a.median == 0 {
		return "unresolved"
	}
	worse := (b.median - a.median) / a.median
	if !lowerIsBetter {
		worse = -worse
	}
	spread := (a.q3 - a.q1) / a.median
	if s := (b.q3 - b.q1) / a.median; s > spread {
		spread = s
	}
	lo, hi := func(s side) float64 { return s.values[0] }, func(s side) float64 { return s.values[len(s.values)-1] }
	interleave := lo(a) <= hi(b) && lo(b) <= hi(a)
	switch {
	case spread > bound && interleave:
		return "unresolved"
	case worse > bound:
		return "regressed"
	default:
		return "ok"
	}
}

// compareMain prints, per workload and metric, both reports' medians
// and quartiles and the verdict. It refuses reports taken on different
// hosts, toolchains or seeds, and exits non-zero on a regression.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare A.json B.json")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	if why := a.Fingerprint.comparable(b.Fingerprint); why != "" {
		return fmt.Errorf("refusing to compare: %s", why)
	}
	root, err := e2e.FindRoot()
	if err != nil {
		return err
	}
	decl, err := readDeclared(root)
	if err != nil {
		return err
	}
	type rule struct {
		lower bool
		bound float64
	}
	rules := map[string]rule{}
	for _, m := range decl.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound}
	}
	collect := func(r report) map[string]map[string][]float64 {
		byCell := map[string]map[string][]float64{}
		for _, run := range r.Runs {
			if byCell[run.Workload] == nil {
				byCell[run.Workload] = map[string][]float64{}
			}
			for name, m := range run.Metrics {
				byCell[run.Workload][name] = append(byCell[run.Workload][name], m.Value)
			}
		}
		return byCell
	}
	av, bv := collect(a), collect(b)
	fmt.Fprintf(out, "A %s (%s)\nB %s (%s)\n", args[0], a.Fingerprint.Commit, args[1], b.Fingerprint.Commit)
	fmt.Fprintf(out, "%-14s %-30s %38s %38s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "verdict")
	regressed := 0
	for _, w := range e2e.Workloads {
		names := make([]string, 0, len(av[w.Name]))
		for n := range av[w.Name] {
			if len(bv[w.Name][n]) > 0 {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			sa, sb := newSide(av[w.Name][n]), newSide(bv[w.Name][n])
			v := "-" // per-layer metrics carry no bound
			if r, ok := rules[n]; ok {
				v = verdict(sa, sb, r.lower, r.bound)
			}
			if v == "regressed" {
				regressed++
			}
			cell := func(s side) string {
				return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.median, s.q1, s.q3, len(s.values))
			}
			fmt.Fprintf(out, "%-14s %-30s %38s %38s  %s\n", w.Name, n, cell(sa), cell(sb), v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric cells regressed beyond their bound", regressed)
	}
	return nil
}
