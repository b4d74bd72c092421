package recovery

import (
	"math"
	"strings"
	"testing"
	"time"

	"amnt/internal/mee"
)

// within checks a modeled value lands within tol (relative) of the
// paper's published value.
func within(t *testing.T, name string, got time.Duration, paperMs, tol float64) {
	t.Helper()
	gotMs := float64(got) / float64(time.Millisecond)
	if paperMs == 0 {
		if gotMs != 0 {
			t.Errorf("%s: got %.2f ms, paper 0", name, gotMs)
		}
		return
	}
	if rel := math.Abs(gotMs-paperMs) / paperMs; rel > tol {
		t.Errorf("%s: got %.2f ms, paper %.2f ms (%.1f%% off, tol %.0f%%)",
			name, gotMs, paperMs, rel*100, tol*100)
	}
}

func TestLeafMatchesPaper(t *testing.T) {
	m := DefaultModel()
	for i, size := range Table4Sizes {
		within(t, "leaf", m.Leaf(size), PaperTable4["leaf"][i], 0.05)
	}
}

func TestLeafScalesLinearly(t *testing.T) {
	m := DefaultModel()
	r := float64(m.Leaf(16e12)) / float64(m.Leaf(2e12))
	if math.Abs(r-8) > 0.01 {
		t.Fatalf("16TB/2TB leaf ratio = %v, want 8", r)
	}
}

func TestStrictAndBMFAreZero(t *testing.T) {
	m := DefaultModel()
	if m.Strict(2e12) != 0 || m.BMF(128e12) != 0 {
		t.Fatal("strict/bmf recovery should be zero")
	}
}

func TestAnubisFixedAndNearPaper(t *testing.T) {
	m := DefaultModel()
	if m.Anubis(2e12) != m.Anubis(128e12) {
		t.Fatal("anubis recovery should not scale with memory")
	}
	within(t, "anubis", m.Anubis(2e12), 1.30, 0.10)
}

func TestOsirisNearPaper(t *testing.T) {
	m := DefaultModel()
	for i, size := range Table4Sizes {
		within(t, "osiris", m.Osiris(size), PaperTable4["osiris"][i], 0.10)
	}
}

func TestAMNTLevelsExactlyDivideLeaf(t *testing.T) {
	m := DefaultModel()
	leaf := m.Leaf(2e12)
	if m.AMNT(2e12, 1) != leaf {
		t.Fatal("level 1 should equal leaf")
	}
	if got := m.AMNT(2e12, 2); got != leaf/8 {
		t.Fatalf("level 2 = %v, want leaf/8 = %v", got, leaf/8)
	}
	if got := m.AMNT(2e12, 4); got != leaf/512 {
		t.Fatalf("level 4 = %v, want leaf/512", got)
	}
	if m.AMNT(2e12, 0) != leaf {
		t.Fatal("level < 1 should clamp to whole tree")
	}
}

func TestAMNTMatchesPaper(t *testing.T) {
	m := DefaultModel()
	for li, level := range []int{2, 3, 4} {
		key := []string{"amnt-l2", "amnt-l3", "amnt-l4"}[li]
		for i, size := range Table4Sizes {
			within(t, key, m.AMNT(size, level), PaperTable4[key][i], 0.05)
		}
	}
}

func TestStaleFraction(t *testing.T) {
	cases := []struct {
		proto string
		level int
		want  float64
	}{
		{"leaf", 0, 1}, {"osiris", 0, 1}, {"strict", 0, 0}, {"bmf", 0, 0},
		{"amnt", 2, 0.125}, {"amnt", 3, 1.0 / 64}, {"amnt", 4, 1.0 / 512},
		{"unknown", 0, 0},
	}
	for _, c := range cases {
		if got := StaleFraction(c.proto, c.level); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("StaleFraction(%s,%d) = %v, want %v", c.proto, c.level, got, c.want)
		}
	}
}

func TestFromReport(t *testing.T) {
	m := DefaultModel()
	rep := mee.RecoveryReport{CounterReads: 1000, NodeWrites: 100}
	got := m.FromReport(rep)
	// 1000 reads + 100 writes re-read + 8x write cost = (64000 + 6400 + 51200)
	wantSec := (64000.0 + 6400 + 51200) / 12e9
	want := time.Duration(wantSec * float64(time.Second))
	if got != want {
		t.Fatalf("FromReport = %v, want %v", got, want)
	}
	if m.FromReport(mee.RecoveryReport{}) != 0 {
		t.Fatal("empty report should cost zero")
	}
}

func TestTable4Render(t *testing.T) {
	tbl := Table4(DefaultModel())
	if tbl.NumRows() != 8 {
		t.Fatalf("rows = %d, want 8", tbl.NumRows())
	}
	out := tbl.Render()
	for _, want := range []string{"leaf", "strict", "anubis", "osiris", "bmf", "amnt-l2", "amnt-l3", "amnt-l4", "12.5%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table4 missing %q:\n%s", want, out)
		}
	}
}

func TestOrderingAcrossProtocols(t *testing.T) {
	// Table 4's qualitative ordering at every size: strict = bmf = 0
	// < anubis < amnt-l4 < amnt-l3 < amnt-l2 < leaf < osiris.
	m := DefaultModel()
	for _, size := range Table4Sizes {
		seq := []time.Duration{
			m.Strict(size), m.Anubis(size), m.AMNT(size, 4),
			m.AMNT(size, 3), m.AMNT(size, 2), m.Leaf(size), m.Osiris(size),
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("ordering violated at size %d: %v", size, seq)
			}
		}
	}
}

func TestTriadModel(t *testing.T) {
	m := DefaultModel()
	leaf := m.Leaf(2e12)
	t2 := m.Triad(2e12, 2)
	t4 := m.Triad(2e12, 4)
	if !(t4 < t2 && t2 < leaf) {
		t.Fatalf("ordering: leaf %v, triad2 %v, triad4 %v", leaf, t2, t4)
	}
	if m.Triad(2e12, 0) != leaf {
		t.Fatal("triad with no persisted levels should equal leaf")
	}
}

func TestRecommendLevel(t *testing.T) {
	m := DefaultModel()
	const mem = 2e12
	cases := []struct {
		name     string
		budget   time.Duration
		maxLevel int
		want     int
	}{
		{"budget equals level 3's time", m.AMNT(mem, 3), 8, 3},
		{"no feasible level", m.AMNT(mem, 4) - 1, 4, 0},
		{"max level below 2", time.Hour, 1, 0},
	}
	for _, c := range cases {
		if got := m.RecommendLevel(mem, c.budget, c.maxLevel); got != c.want {
			t.Errorf("%s: RecommendLevel(2TB, %v, %d) = %d, want %d", c.name, c.budget, c.maxLevel, got, c.want)
		}
	}
}
