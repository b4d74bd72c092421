package sim

import (
	"context"
	"fmt"

	"amnt/internal/bmt"
	"amnt/internal/cache"
	"amnt/internal/cpu"
	"amnt/internal/kernel"
	"amnt/internal/radix"
	"amnt/internal/scm"
	"amnt/internal/stats"
	"amnt/internal/workload"
)

// frontEnd is the protocol-independent half of a machine: the traces,
// the kernel, the cache hierarchies with their snoop, and the version
// table. It keeps a static clock — trace gaps, fault handlers, level
// hit and snoop cycles — and turns every transfer its hierarchies
// raise into one event for the back end (DESIGN.md §2.1): applied at
// once in a Machine, appended to a Stream by Record.
type frontEnd struct {
	cfg    FrontEndConfig
	kern   *kernel.Kernel
	l3     *cache.Cache
	cores  []*cpu.Hierarchy
	procs  []*kernel.Process
	traces []*workload.Trace
	// versions counts the stores to each data block. Leaves appear on
	// first store, so the table follows the touched footprint, never
	// MemoryBytes.
	versions radix.Table[uint32]
	pageHist *stats.Histogram
	// static is the static clock; last is its value at the latest
	// event, so static-last is the gap the next event carries.
	static, last uint64
	// Exactly one of be (a live machine) and rec (a recording) is set.
	be  *backEnd
	rec *Stream
}

func newFrontEnd(cfg FrontEndConfig, traces []*workload.Trace) *frontEnd {
	kcfg := kernel.Config{MemoryBytes: cfg.MemoryBytes}
	if cfg.AMNTPlusPlusLevel > 0 {
		kcfg.AMNTPlusPlus = true
		kcfg.SubtreeRegionPages = bmt.GeometryForCapacity(cfg.MemoryBytes).CoverageBytes(cfg.AMNTPlusPlusLevel) / kernel.PageSize
	}
	f := &frontEnd{cfg: cfg, kern: kernel.NewAged(kcfg, cfg.Seed, cfg.PrefragmentChurn)}
	if cfg.CollectPageHist {
		f.pageHist = stats.NewHistogram()
	}
	if kcfg.AMNTPlusPlus && cfg.PrefragmentChurn > 0 {
		// One reclamation pass so the biased ordering is in place at
		// first allocation, as after any uptime.
		f.kern.Allocator().Restructure(kcfg.SubtreeRegionPages)
	}
	f.l3 = cpu.SharedL3(cfg.L3Bytes)
	for i, tr := range traces {
		f.cores = append(f.cores, cpu.NewHierarchy(fmt.Sprintf("core%d", i), cfg.Core, f.l3, f))
		if cfg.SharedAddressSpace && i > 0 {
			f.procs = append(f.procs, f.procs[0])
		} else {
			f.procs = append(f.procs, f.kern.NewProcess(tr.Spec().Name))
		}
		f.traces = append(f.traces, tr)
	}
	if cfg.SharedAddressSpace {
		// Threads share data: wire the dirty-migration snoop so a
		// line dirtied in one core's private cache is transferred, not
		// re-read stale from memory.
		for i := range f.cores {
			i := i
			f.cores[i].SetSnoop(func(block uint64) bool {
				for j, other := range f.cores {
					if j != i && other.ExtractDirty(block) {
						return true
					}
				}
				return false
			})
		}
	}
	return f
}

// Transfer is the front end's cpu.Memory: it stamps the transfer with
// its gap since the previous event and the block's current version,
// then hands it to the back end or the recording.
func (f *frontEnd) Transfer(at, block uint64, writeBack bool) error {
	gap, version := at-f.last, f.versions.Get(block)
	f.last = at
	if f.be != nil {
		return f.be.apply(gap, block, version, writeBack)
	}
	f.rec.append(gap, block, version, writeBack)
	return nil
}

// step runs one access from trace i. done reports trace exhaustion.
func (f *frontEnd) step(i int) (done bool, err error) {
	acc, ok := f.traces[i].Next()
	if !ok {
		return true, nil
	}
	f.static += uint64(acc.Gap) // 1 IPC for non-memory instructions
	paddr, fault := f.procs[i].Translate(acc.VAddr)
	if fault {
		// Charge the fault handler's instructions as cycles.
		f.static += 150
	}
	block := paddr / scm.BlockSize
	if f.pageHist != nil {
		f.pageHist.Observe(paddr / kernel.PageSize)
	}
	cycles, err := f.cores[i].Access(f.static, block, acc.Write)
	if err != nil {
		return false, err
	}
	if acc.Write {
		// Bump after the (write-allocate) access: any fill during the
		// access sees the pre-store contents; the eviction that
		// eventually writes this line back will see the new version.
		*f.versions.At(block)++
	}
	f.static += cycles
	return false, nil
}

// cancelCheckMask sets how often a run polls for cancellation: every
// (mask+1) round-robin sweeps. A sweep is a handful of microseconds of
// host time, so a cancelled run aborts in well under a millisecond
// while the common (never-cancelled) path pays one counter increment
// and a branch per sweep.
const cancelCheckMask = 1<<10 - 1

// roundRobin drives the traces round-robin through step until all are
// done (or the first, under StopAtFirstDone), step reports stop, or
// ctx is done, whose error it then returns unwrapped.
func (f *frontEnd) roundRobin(ctx context.Context, step func(i int) (done, stop bool, err error)) (stopped bool, err error) {
	live := make([]bool, len(f.traces))
	for i := range live {
		live[i] = true
	}
	remaining := len(live)
	for sweep := uint64(0); remaining > 0; sweep++ {
		if sweep&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		for i := range f.traces {
			if !live[i] {
				continue
			}
			done, stop, err := step(i)
			if err != nil {
				return false, err
			}
			if done {
				live[i] = false
				remaining--
				if f.cfg.StopAtFirstDone {
					remaining = 0
				}
			}
			if stop {
				return true, nil
			}
		}
	}
	return false, nil
}

// result fills the front end's share of a Result: the workload names,
// access and instruction counts, L1 hit rate, paging and the page
// histogram.
func (f *frontEnd) result() Result {
	r := Result{
		PageFaults:     f.kern.PageFaults(),
		OSInstructions: f.kern.Instructions(),
		PageHist:       f.pageHist,
	}
	var l1Hits, l1Total uint64
	for i, h := range f.cores {
		r.Workloads = append(r.Workloads, f.traces[i].Spec().Name)
		l1 := h.Levels()[0]
		l1Total += l1.Accesses()
		l1Hits += uint64(float64(l1.Accesses()) * l1.HitRate())
		r.Accesses += f.traces[i].Spec().Accesses - f.traces[i].Remaining()
	}
	if l1Total > 0 {
		r.L1HitRate = float64(l1Hits) / float64(l1Total)
	}
	// Instructions = compute gaps + one per memory op + OS work. The
	// gap total is implicit in the clock; approximate it as accesses ×
	// mean gap, which is exact in expectation and consistent across
	// policies (same traces).
	var gapTotal uint64
	for _, tr := range f.traces {
		done := tr.Spec().Accesses - tr.Remaining()
		gapTotal += done * uint64(tr.Spec().GapMean)
	}
	r.Instructions = gapTotal + r.Accesses + r.OSInstructions
	return r
}
