package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"time"
)

// figure4 is amntbench's -format json table.
type figure4 struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// runFigure4 runs `amntbench -fig 4 -scale <scale> -parallel 2
// -format json` and returns the table and the run's wall time.
func (e *Env) runFigure4(ctx context.Context, scale string) (*figure4, time.Duration, error) {
	cmd := exec.CommandContext(ctx, e.Bin("amntbench"), "-fig", "4", "-scale", scale, "-parallel", "2", "-format", "json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("amntbench -fig 4: %w\n%s", err, stderr.String())
	}
	var tab figure4
	if err := json.Unmarshal(stdout.Bytes(), &tab); err != nil {
		return nil, wall, fmt.Errorf("amntbench -fig 4: undecodable table: %w", err)
	}
	return &tab, wall, nil
}

// check verifies the table is well-formed and returns its mean row
// by column name plus the number of per-workload cells (attempted)
// and how many of them are not finite numbers (failed). No golden
// digest is pinned: the bmf column differs in the third decimal
// between identical runs (see the README's known defects).
func (t *figure4) check(res *Result) (mean map[string]float64, cells, bad uint64) {
	mean = map[string]float64{}
	col := map[string]int{}
	for i, h := range t.Header {
		col[h] = i
	}
	for _, p := range SimProtocols {
		if _, ok := col[p.Column]; !ok {
			res.problem("figure 4: no %q column in %v", p.Column, t.Header)
		}
	}
	var sawMean bool
	for _, row := range t.Rows {
		if len(row) != len(t.Header) || len(row) == 0 {
			res.problem("figure 4: row %v does not match header %v", row, t.Header)
			continue
		}
		for i := 1; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			finite := err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
			if row[0] == "mean" {
				sawMean = true
				mean[t.Header[i]] = v
				if !finite {
					res.problem("figure 4: mean of %s is %q", t.Header[i], row[i])
				}
				continue
			}
			cells++
			if !finite {
				bad++
				res.problem("figure 4: cell %s/%s is %q", row[0], t.Header[i], row[i])
			} else if t.Header[i] == "leaf" && (v < 0.99 || v > 1.10) {
				res.problem("figure 4: leaf on %s is %.3f, outside [0.99, 1.10]", row[0], v)
			}
		}
	}
	switch {
	case !sawMean:
		res.problem("figure 4: no mean row")
	case !(mean["amnt"] < mean["strict"]):
		res.problem("figure 4: mean amnt %.3f is not below mean strict %.3f", mean["amnt"], mean["strict"])
	}
	if cells == 0 {
		res.problem("figure 4: empty table")
	}
	return mean, cells, bad
}

// runSim is sim-fig4's end-to-end run. Set-up is a short run of the
// same binary (-scale 0.05), timed like the others so that work a
// later change moves to process start shows; the measured phase is
// one full regeneration of the figure, fixed work rather than a fixed
// window.
func (e *Env) runSim(ctx context.Context, sz Sizes, res *Result) error {
	w, _ := ByName("sim-fig4")
	var setups []float64
	for i := 0; i < w.setups; i++ {
		_, wall, err := e.runFigure4(ctx, "0.05")
		if err != nil {
			return err
		}
		setups = append(setups, wall.Seconds())
	}
	tab, wall, err := e.runFigure4(ctx, sz.SimScale)
	if err != nil {
		return err
	}
	_, cells, bad := tab.check(res)
	res.Attempted, res.Failed = cells, bad
	res.Samples["sim_wall_s"] = 1
	res.fillEndToEnd(map[string]float64{
		"setup_s":    median(setups),
		"ops_per_s":  float64(cells-bad) / wall.Seconds(),
		"sim_wall_s": wall.Seconds(),
	}, wall)
	return nil
}
