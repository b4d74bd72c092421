package experiments

import (
	"strconv"
	"strings"
	"testing"

	"amnt/internal/stats"
	"amnt/internal/workload"
)

// tiny returns fast options for CI-grade runs; the orderings asserted
// below hold at any scale.
func tiny() Options { return Options{Scale: 0.05, Seed: 1} }

// runOne runs one driver and returns its first table.
func runOne(o Options, d Driver) (*stats.Table, error) {
	tables, err := Run(o, d)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// cell parses a table cell as float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a number: %v", s, err)
	}
	return v
}

// column returns the index of a header column.
func column(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, header)
	return -1
}

func TestFigure3(t *testing.T) {
	tbl, err := runOne(tiny(), Figure3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() == 0 {
		t.Fatal("figure 3 produced no rows")
	}
	out := tbl.Render()
	for _, want := range []string{"single (lbm)", "multi (perlbench+lbm)", "interleaving"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 3 missing %q", want)
		}
	}
}

func TestFigure4Ordering(t *testing.T) {
	o := tiny()
	tbl, err := runOne(o, Figure4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != len(workload.PARSEC())+1 {
		t.Fatalf("rows = %d, want %d workloads + mean", tbl.NumRows(), len(workload.PARSEC()))
	}
	header := tbl.Header()
	rows := tbl.Rows()
	mean := rows[len(rows)-1]
	if mean[0] != "mean" {
		t.Fatalf("last row = %q, want mean", mean[0])
	}
	leaf := cell(t, mean[column(t, header, "leaf")])
	strict := cell(t, mean[column(t, header, "strict")])
	amnt := cell(t, mean[column(t, header, "amnt")])
	amntPP := cell(t, mean[column(t, header, "amnt++")])
	// The paper's headline ordering must hold at any scale.
	if !(leaf <= amnt && amnt < strict) {
		t.Fatalf("ordering violated: leaf %.3f, amnt %.3f, strict %.3f", leaf, amnt, strict)
	}
	if amntPP > amnt {
		t.Fatalf("amnt++ (%.3f) should not exceed amnt (%.3f)", amntPP, amnt)
	}
	// Every normalized value is >= ~1 (no protocol beats no-crash-
	// consistency by more than noise).
	for _, row := range rows {
		for i := 1; i < len(row); i++ {
			if v := cell(t, row[i]); v < 0.9 {
				t.Fatalf("%s/%s normalized %.3f < 0.9", row[0], header[i], v)
			}
		}
	}
}

func TestFigure5(t *testing.T) {
	tbl, err := runOne(tiny(), Figure5)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 pairs", tbl.NumRows())
	}
	header := tbl.Header()
	for _, row := range tbl.Rows() {
		strict := cell(t, row[column(t, header, "strict")])
		amnt := cell(t, row[column(t, header, "amnt")])
		if amnt >= strict && strict > 1.01 {
			t.Fatalf("%s: amnt %.3f should beat strict %.3f", row[0], amnt, strict)
		}
	}
}

func TestFigures6And7(t *testing.T) {
	tables, err := Run(tiny(), Figures6And7)
	if err != nil {
		t.Fatal(err)
	}
	perf, hits := tables[0], tables[1]
	if perf.NumRows() != 6 || hits.NumRows() != 6 {
		t.Fatalf("rows = %d/%d, want 6 each (3 pairs x 2 protocols)", perf.NumRows(), hits.NumRows())
	}
	// Hit rates must not increase as the subtree level deepens
	// (smaller regions protect less), allowing small noise.
	header := hits.Header()
	l2 := column(t, header, "L2")
	l7 := column(t, header, "L7")
	for _, row := range hits.Rows() {
		first := cell(t, row[l2])
		last := cell(t, row[l7])
		if last > first+0.05 {
			t.Fatalf("%s %s: hit rate rose with level: L2 %.3f -> L7 %.3f", row[0], row[1], first, last)
		}
	}
	// Hit rates are rates.
	for _, row := range hits.Rows() {
		for i := 2; i < len(row); i++ {
			if v := cell(t, row[i]); v < 0 || v > 1 {
				t.Fatalf("hit rate %v out of range", v)
			}
		}
	}
}

func TestFigure8(t *testing.T) {
	tbl, err := runOne(tiny(), Figure8)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != len(workload.SPEC())+1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	header := tbl.Header()
	mean := tbl.Rows()[tbl.NumRows()-1]
	amnt := cell(t, mean[column(t, header, "amnt")])
	anubis := cell(t, mean[column(t, header, "anubis")])
	strict := cell(t, mean[column(t, header, "strict")])
	if amnt > anubis {
		t.Fatalf("amnt mean (%.3f) should not exceed anubis (%.3f)", amnt, anubis)
	}
	if amnt >= strict && strict > 1.01 {
		t.Fatalf("amnt (%.3f) should beat strict (%.3f)", amnt, strict)
	}
}

func TestTable2WithinPaperBand(t *testing.T) {
	tbl, err := runOne(tiny(), Table2)
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	for _, row := range tbl.Rows() {
		perf := cell(t, row[column(t, header, "normalized performance")])
		instr := cell(t, row[column(t, header, "instruction overhead")])
		if perf < 0.9 || perf > 1.1 {
			t.Fatalf("%s: normalized performance %.3f outside sane band", row[0], perf)
		}
		if instr < 1.0 || instr > 1.1 {
			t.Fatalf("%s: instruction overhead %.3f outside sane band", row[0], instr)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tbl, err := runOne(tiny(), Table3)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, want := range []string{"4 kB", "768 B", "37 kB", "96 B", "64 B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4(t *testing.T) {
	tbl, err := runOne(tiny(), Table4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 8 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestTable4Measured(t *testing.T) {
	tbl, err := runOne(tiny(), Table4Measured)
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	reads := column(t, header, "counter reads")
	proto := column(t, header, "protocol")
	verdict := column(t, header, "verdict")
	byProto := map[string][]float64{}
	for _, row := range tbl.Rows() {
		byProto[row[proto]] = append(byProto[row[proto]], cell(t, row[reads]))
		if row[verdict] != "recovered" {
			t.Errorf("%s: verdict %s, want recovered", row[proto], row[verdict])
		}
	}
	// Leaf recovery work grows with memory; strict does none; amnt is
	// bounded below leaf.
	if len(byProto["leaf"]) != 2 || byProto["leaf"][0] == 0 {
		t.Fatalf("leaf recovery did no work: %v", byProto["leaf"])
	}
	if byProto["leaf"][1] <= byProto["leaf"][0] {
		t.Fatalf("leaf recovery did not grow with memory: %v", byProto["leaf"])
	}
	for i := range byProto["amnt"] {
		if byProto["amnt"][i] > byProto["leaf"][i] {
			t.Fatalf("amnt recovery (%v) exceeded leaf (%v)", byProto["amnt"], byProto["leaf"])
		}
	}
	for _, v := range byProto["strict"] {
		if v != 0 {
			t.Fatalf("strict recovery read counters: %v", byProto["strict"])
		}
	}
}

func TestOwnerAlternation(t *testing.T) {
	if got := ownerAlternation(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := ownerAlternation([][]uint64{{1, 2, 3}}); got != 0 {
		t.Fatalf("single owner = %v, want 0", got)
	}
	// Perfect interleave: pages 0,2,4 vs 1,3,5.
	if got := ownerAlternation([][]uint64{{0, 2, 4}, {1, 3, 5}}); got != 1 {
		t.Fatalf("perfect interleave = %v, want 1", got)
	}
	// Two contiguous halves: one alternation out of five.
	if got := ownerAlternation([][]uint64{{0, 1, 2}, {3, 4, 5}}); got != 0.2 {
		t.Fatalf("split halves = %v, want 0.2", got)
	}
}

func TestAblationHistoryInterval(t *testing.T) {
	tbl, err := runOne(Options{Scale: 0.2, Seed: 1}, AblationHistoryInterval)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	header := tbl.Header()
	moves := column(t, header, "movements")
	first := cell(t, tbl.Rows()[0][moves])
	last := cell(t, tbl.Rows()[tbl.NumRows()-1][moves])
	if first < last {
		t.Fatalf("short intervals should move more: interval8=%v, interval1024=%v", first, last)
	}
}

func TestAblationMetaCache(t *testing.T) {
	tbl, err := runOne(tiny(), AblationMetaCache)
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	rows := tbl.Rows()
	// Anubis must be more sensitive to cache size than AMNT: its
	// smallest-cache overhead exceeds its largest-cache overhead by
	// more than AMNT's spread.
	aFirst := cell(t, rows[0][column(t, header, "anubis norm")])
	aLast := cell(t, rows[len(rows)-1][column(t, header, "anubis norm")])
	mFirst := cell(t, rows[0][column(t, header, "amnt norm")])
	mLast := cell(t, rows[len(rows)-1][column(t, header, "amnt norm")])
	if (aFirst - aLast) < (mFirst-mLast)-0.05 {
		t.Fatalf("anubis spread (%.3f) should exceed amnt spread (%.3f)", aFirst-aLast, mFirst-mLast)
	}
}

func TestAblationCoalescing(t *testing.T) {
	tbl, err := runOne(tiny(), AblationCoalescing)
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	var leafOn, leafOff float64
	for _, row := range tbl.Rows() {
		if row[0] == "leaf" && row[1] == "on" {
			leafOn = cell(t, row[column(t, header, "cycles")])
		}
		if row[0] == "leaf" && row[1] == "off" {
			leafOff = cell(t, row[column(t, header, "cycles")])
		}
	}
	if leafOff < leafOn {
		t.Fatalf("disabling coalescing should not speed leaf up: on=%v off=%v", leafOn, leafOff)
	}
}

func TestAblationStopLoss(t *testing.T) {
	tbl, err := runOne(tiny(), AblationStopLoss)
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	rows := tbl.Rows()
	persists := column(t, header, "counter persists")
	if cell(t, rows[0][persists]) <= cell(t, rows[len(rows)-1][persists]) {
		t.Fatal("larger stop-loss should persist fewer counters")
	}
	for _, row := range rows {
		if v := row[column(t, header, "verdict")]; v != "recovered" {
			t.Fatalf("osiris N=%s: verdict %s, want recovered", row[0], v)
		}
	}
}

func TestAblationReadOverlap(t *testing.T) {
	tbl, err := runOne(tiny(), AblationReadOverlap)
	if err != nil {
		t.Fatal(err)
	}
	header := tbl.Header()
	rows := tbl.Rows()
	base := column(t, header, "volatile cycles")
	if cell(t, rows[0][base]) <= cell(t, rows[len(rows)-1][base]) {
		t.Fatal("higher overlap should shrink the baseline")
	}
}

func TestStorage(t *testing.T) {
	tbl, err := runOne(tiny(), Storage)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 6 { // 5 mixes + mean
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	header := tbl.Header()
	mean := tbl.Rows()[tbl.NumRows()-1]
	amnt := cell(t, mean[column(t, header, "amnt")])
	anubis := cell(t, mean[column(t, header, "anubis")])
	battery := cell(t, mean[column(t, header, "battery")])
	if amnt > anubis {
		t.Fatalf("amnt (%.3f) should beat anubis (%.3f) on storage mixes", amnt, anubis)
	}
	if battery > 1.01 {
		t.Fatalf("battery (%.3f) should match the volatile baseline at runtime", battery)
	}
	// The read-only mix is insensitive to persistence — except for the
	// indirection family, which must fetch a membership entry before
	// every read (the paper's §7.3 critique, reproduced).
	for _, row := range tbl.Rows() {
		if row[0] != "ycsb-c" {
			continue
		}
		for i := 1; i < len(row); i++ {
			if header[i] == "indirect" {
				continue
			}
			if v := cell(t, row[i]); v > 1.05 {
				t.Fatalf("ycsb-c %s = %.3f, read-only should be ~1.0", header[i], v)
			}
		}
	}
}

func TestAblationReplacement(t *testing.T) {
	tbl, err := runOne(tiny(), AblationReplacement)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	header := tbl.Header()
	// AMNT beats anubis under every replacement policy.
	for _, row := range tbl.Rows() {
		amnt := cell(t, row[column(t, header, "amnt norm")])
		anubis := cell(t, row[column(t, header, "anubis norm")])
		if amnt > anubis+0.01 {
			t.Fatalf("%s: amnt %.3f > anubis %.3f", row[0], amnt, anubis)
		}
	}
}

func TestAblationMultiSubtree(t *testing.T) {
	tbl, err := runOne(Options{Scale: 0.1, Seed: 1}, AblationMultiSubtree)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5 { // K=1,2,4,8 + AMNT++
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	header := tbl.Header()
	cyc := column(t, header, "cycles")
	k1 := cell(t, tbl.Rows()[0][cyc])
	k2 := cell(t, tbl.Rows()[1][cyc])
	if k2 > k1 {
		t.Fatalf("K=2 (%v) should not be slower than K=1 (%v) on a two-program mix", k2, k1)
	}
}
