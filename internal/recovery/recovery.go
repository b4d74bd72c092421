// Package recovery provides the analytic crash-recovery time model
// behind the paper's Table 4, plus helpers to convert the functional
// recovery reports produced by the simulator into modeled wall-clock
// time.
//
// The model follows §6.7 of the paper: recovery is bound by memory
// bandwidth; a six-channel Optane-class system offers 12 GB/s of read
// bandwidth under the 8:1 read:write recovery mix, and recomputed
// levels are written back before the next level starts (so written
// nodes are re-read once, and writes cost 8 reads' worth of
// bandwidth). Anubis recovery is latency- rather than bandwidth-bound
// (a fixed number of dependent node recomputations), and Osiris must
// additionally scan per-block ECC state to replay stop-loss counters.
package recovery

import (
	"time"

	"amnt/internal/mee"
	"amnt/internal/stats"
)

// Model parameterizes the analytic recovery-time computation.
type Model struct {
	// ReadBW is the aggregate recovery read bandwidth in bytes/sec
	// (12 GB/s: six channels × 2 GB/s of read share).
	ReadBW float64
	// WriteCostFactor is the bandwidth cost of one written byte in
	// read-byte equivalents (the 8:1 mix).
	WriteCostFactor float64
	// ReadLatency is a single dependent device read (Anubis's
	// latency-bound recomputation chain).
	ReadLatency time.Duration
	// AnubisEntries is the shadow-table capacity (metadata cache
	// lines).
	AnubisEntries int
	// AnubisParallelism is the memory-level parallelism available to
	// Anubis's (mostly independent) per-entry child fetches.
	AnubisParallelism int
	// OsirisECCFraction is the fraction of the data region Osiris
	// must scan (ECC state per 64 B block) to replay counters.
	OsirisECCFraction float64
	// Arity is the BMT fan-out.
	Arity int
}

// DefaultModel returns the paper's §6.7 parameters.
func DefaultModel() Model {
	return Model{
		ReadBW:            12e9,
		WriteCostFactor:   8,
		ReadLatency:       305 * time.Nanosecond,
		AnubisEntries:     1024,
		AnubisParallelism: 2,
		OsirisECCFraction: 0.25,
		Arity:             8,
	}
}

// counterBytes returns the size of the counter (leaf) level for a
// memory: one 64 B counter block per 4 kB page.
func counterBytes(memBytes uint64) float64 { return float64(memBytes) / 64 }

// innerBytes returns the total size of all inner tree levels:
// counterBytes/8 + counterBytes/64 + ... ≈ counterBytes/7.
func (m Model) innerBytes(memBytes uint64) float64 {
	c := counterBytes(memBytes)
	total := 0.0
	for c >= 64 {
		c /= float64(m.Arity)
		total += c
	}
	return total
}

// rebuildTime is the full-tree reconstruction time: read all
// counters, write every inner level back and re-read it for the next
// level's computation.
func (m Model) rebuildTime(memBytes uint64) time.Duration {
	c := counterBytes(memBytes)
	i := m.innerBytes(memBytes)
	readEquiv := c + 2*i + m.WriteCostFactor*i
	return time.Duration(readEquiv / m.ReadBW * float64(time.Second))
}

// Leaf returns leaf persistence's recovery time: the whole tree is
// stale and rebuilt from the counters.
func (m Model) Leaf(memBytes uint64) time.Duration { return m.rebuildTime(memBytes) }

// Strict returns strict persistence's recovery time (nothing stale).
func (m Model) Strict(uint64) time.Duration { return 0 }

// BMF returns Bonsai Merkle Forest's recovery time: every node is
// covered by a persistent root, so like strict it recovers instantly.
func (m Model) BMF(uint64) time.Duration { return 0 }

// Anubis returns the fixed, cache-bounded recovery time: each shadow
// table entry triggers the dependent fetch of eight children.
func (m Model) Anubis(uint64) time.Duration {
	fetches := m.AnubisEntries * m.Arity
	if m.AnubisParallelism > 1 {
		fetches /= m.AnubisParallelism
	}
	return time.Duration(fetches) * m.ReadLatency
}

// Osiris returns the stop-loss recovery time: scan ECC state for
// every data block to replay counters, then rebuild the whole tree.
func (m Model) Osiris(memBytes uint64) time.Duration {
	scan := float64(memBytes) * m.OsirisECCFraction / m.ReadBW
	return time.Duration(scan*float64(time.Second)) + m.rebuildTime(memBytes)
}

// Triad returns Triad-NVM's recovery time with M strictly persisted
// inner levels: only the levels above the persisted boundary are
// rebuilt, from boundary nodes that are 8^M times fewer than the
// counters.
func (m Model) Triad(memBytes uint64, levels int) time.Duration {
	if levels <= 0 {
		return m.rebuildTime(memBytes)
	}
	c := counterBytes(memBytes)
	for i := 0; i < levels; i++ {
		c /= float64(m.Arity)
	}
	i := 0.0
	for b := c; b >= 64; {
		b /= float64(m.Arity)
		i += b
	}
	readEquiv := c + 2*i + m.WriteCostFactor*i
	return time.Duration(readEquiv / m.ReadBW * float64(time.Second))
}

// AMNT returns the fast subtree's recovery time at the given subtree
// level (paper numbering: root = level 1, level k ⇒ 8^(k-1) regions);
// only 1/8^(k-1) of the tree is stale.
func (m Model) AMNT(memBytes uint64, level int) time.Duration {
	if level < 1 {
		level = 1
	}
	regions := 1
	for i := 1; i < level; i++ {
		regions *= m.Arity
	}
	return m.rebuildTime(memBytes) / time.Duration(regions)
}

// RecommendLevel is §4.1's BIOS decision: the shallowest AMNT subtree
// level in [2, maxLevel] whose modeled recovery time at memBytes fits
// the budget, or 0 when none does. Deeper levels recover faster but
// relax less memory (lower subtree hit rates), so the shallowest
// feasible level keeps the most run-time performance.
func (m Model) RecommendLevel(memBytes uint64, budget time.Duration, maxLevel int) int {
	for level := 2; level <= maxLevel; level++ {
		if m.AMNT(memBytes, level) <= budget {
			return level
		}
	}
	return 0
}

// StaleFraction returns the fraction of the BMT assumed stale at
// crash for each protocol (the paper's Table 4 right column).
func StaleFraction(protocol string, level int) float64 {
	switch protocol {
	case "leaf", "osiris":
		return 1.0
	case "strict", "bmf":
		return 0
	case "amnt":
		regions := 1.0
		for i := 1; i < level; i++ {
			regions *= 8
		}
		return 1 / regions
	}
	return 0
}

// FromReport converts a functional recovery report (device block
// traffic counted by the simulator) into modeled wall-clock time, so
// measured recoveries on small memories can be compared against the
// analytic curve.
func (m Model) FromReport(rep mee.RecoveryReport) time.Duration {
	readBytes := float64(rep.CounterReads+rep.DataReads+rep.ShadowReads) * 64
	writeBytes := float64(rep.NodeWrites) * 64
	equiv := readBytes + writeBytes + m.WriteCostFactor*writeBytes
	return time.Duration(equiv / m.ReadBW * float64(time.Second))
}

// PaperTable4 holds the published Table 4 values in milliseconds for
// {2 TB, 16 TB, 128 TB}, used by EXPERIMENTS.md comparisons.
var PaperTable4 = map[string][3]float64{
	"leaf":    {6222.21, 49777.78, 398222.21},
	"strict":  {0, 0, 0},
	"anubis":  {1.30, 1.30, 1.30},
	"osiris":  {50666.67, 405333.32, 3242666.64},
	"bmf":     {0, 0, 0},
	"amnt-l2": {777.77, 6222.21, 49777.78},
	"amnt-l3": {97.22, 777.77, 6222.21},
	"amnt-l4": {12.15, 97.22, 777.77},
}

// Table4Sizes are the paper's memory sizes (decimal terabytes).
var Table4Sizes = []uint64{2e12, 16e12, 128e12}

// Table4 renders the full Table 4 reproduction: modeled recovery time
// per protocol per memory size, with the paper's value alongside.
func Table4(m Model) *stats.Table {
	t := stats.NewTable("Table 4 — recovery time (ms) vs memory size",
		"protocol", "2TB model", "2TB paper", "16TB model", "16TB paper",
		"128TB model", "128TB paper", "BMT stale %")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rows := []struct {
		name  string
		f     func(uint64) time.Duration
		stale string
	}{
		{"leaf", m.Leaf, "100%"},
		{"strict", m.Strict, "0%"},
		{"anubis", m.Anubis, "fixed"},
		{"osiris", m.Osiris, "100%*"},
		{"bmf", m.BMF, "0%"},
		{"amnt-l2", func(b uint64) time.Duration { return m.AMNT(b, 2) }, "12.5%"},
		{"amnt-l3", func(b uint64) time.Duration { return m.AMNT(b, 3) }, "1.56%"},
		{"amnt-l4", func(b uint64) time.Duration { return m.AMNT(b, 4) }, "0.2%"},
	}
	for _, r := range rows {
		paper := PaperTable4[r.name]
		t.AddRow(r.name,
			ms(r.f(Table4Sizes[0])), paper[0],
			ms(r.f(Table4Sizes[1])), paper[1],
			ms(r.f(Table4Sizes[2])), paper[2],
			r.stale)
	}
	t.AddNote("model: 12 GB/s recovery read bandwidth, 8:1 read:write mix, written levels re-read once")
	t.AddNote("osiris additionally scans per-block ECC state (0.25 B/B) to replay stop-loss counters")
	return t
}
