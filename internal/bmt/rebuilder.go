package bmt

import (
	"amnt/internal/cme"
	"amnt/internal/scm"
)

// Rebuilder is the rebuild engine: an ordered walk of the occupied
// source nodes, one hash each, then one climb to the rebuild root. It
// runs in bounded Step calls so a serving goroutine can interleave
// rebuild work with foreground traffic; Rebuild and RebuildAbove are
// one Step over the whole span. Stepping in chunks leaves the final
// RebuildResult and the device statistics bit-identical to one Step
// (pinned by test): every chunk resumes the same walk, one read
// charged and one Hash per node, and the climb runs once at the end.
//
// Overrides support degraded serving: a foreground write that lands
// on counter leaf L mid-rebuild snapshots L's pre-write content and
// registers it as an override, so the audit hashes the frozen image
// the crash left behind rather than the moving target. A nil override
// marks a leaf that did not exist at freeze time (first-touch during
// degraded serving); the walk steps over such leaves, uncharged.
// Reads are charged through scm.AccountReads, once per Step.
//
// A Rebuilder is single-goroutine: the owner calls Step/Done/Result
// from one goroutine (the shard worker), never concurrently.
type Rebuilder struct {
	dev       *scm.Device
	e         *cme.Engine
	g         Geometry
	zero      []uint64
	src       source
	rootLevel int
	rootIdx   uint64
	opts      RebuildOptions
	frozen    map[uint64][]byte

	next, hi uint64 // device indices in [next, hi) are still to be walked
	total    int    // source nodes planned at construction
	idxs     []uint64
	digs     []uint64
	res      RebuildResult
	done     bool
	open     bool // Progress.begin called, end pending
}

// NewRebuilder plans a resumable rebuild of the subtree rooted at
// (rootLevel, rootIdx) from its nodes at srcLevel: the counter leaves
// when srcLevel is g.Levels, else a persisted Tree-region level below
// the root (Triad-NVM's boundary). frozen maps counter-leaf indices to
// their content at freeze time: a non-nil entry overrides the device
// block, a nil entry excludes the leaf (it was absent at freeze time).
// The map may be nil, and the owner may add to it between Steps.
func NewRebuilder(dev *scm.Device, e *cme.Engine, g Geometry, srcLevel, rootLevel int, rootIdx uint64, opts RebuildOptions, frozen map[uint64][]byte) *Rebuilder {
	src := source{level: srcLevel, region: scm.Counter}
	if srcLevel < g.Levels {
		src = source{level: srcLevel, region: scm.Tree, flatOff: g.FlatIndex(srcLevel, 0)}
	}
	shift := uint(arityShift * (srcLevel - rootLevel))
	lo, hi := src.flatOff+rootIdx<<shift, src.flatOff+(rootIdx+1)<<shift
	total := dev.Count(src.region, lo, hi)
	for li, ov := range frozen {
		if ov == nil && li >= lo && li < hi && dev.Contains(src.region, li) {
			total-- // first-touch after freeze: not part of the crash image
		}
	}
	r := &Rebuilder{
		dev:       dev,
		e:         e,
		g:         g,
		zero:      ZeroDigests(e, g),
		src:       src,
		rootLevel: rootLevel,
		rootIdx:   rootIdx,
		opts:      opts,
		frozen:    frozen,
		next:      lo,
		hi:        hi,
		total:     total,
		idxs:      make([]uint64, 0, total),
		digs:      make([]uint64, 0, total),
	}
	r.opts.Progress.begin(uint64(total))
	r.open = true
	return r
}

// Done reports whether the rebuild has completed (Result is valid).
func (r *Rebuilder) Done() bool { return r.done }

// Step hashes up to maxLeaves more source nodes (all of them when
// maxLeaves <= 0) and, once every node is consumed, runs the climb
// and finishes the rebuild. It returns true when the rebuild is done.
func (r *Rebuilder) Step(maxLeaves int) bool {
	if r.done {
		return true
	}
	// Every rebuild runs this walk, so the per-node closure works on
	// locals and r's fields are written once, after it.
	idxs, digs := r.idxs, r.digs
	e, level, off := r.e, r.src.level, r.src.flatOff
	stop := -1 // maxLeaves <= 0: walk to the end
	if maxLeaves > 0 {
		stop = len(idxs) + maxLeaves
	}
	stopped := false
	r.dev.PeekScan(r.src.region, r.next, r.hi, func(idx uint64, blk []byte) bool {
		if len(r.frozen) > 0 { // usually empty: keep the map probe off the per-leaf path
			if ov, ok := r.frozen[idx]; ok {
				if ov == nil {
					return true
				}
				blk = ov
			}
		}
		idxs = append(idxs, idx-off)
		digs = append(digs, Hash(e, level, blk))
		if len(idxs) == stop {
			r.next, stopped = idx+1, true
			return false
		}
		return true
	})
	n := uint64(len(idxs) - len(r.idxs))
	r.idxs, r.digs = idxs, digs
	r.res.Cycles += r.dev.AccountReads(r.src.region, n)
	r.res.CounterReads += n
	r.opts.Progress.add(n)
	// A walk that stopped on the last planned node is done too: the
	// caller should not need one more Step to learn it.
	if stopped && len(r.idxs) < r.total {
		return false
	}
	idxs, digs = climb(e, r.g, r.zero, level, r.rootLevel, idxs, digs,
		persistEmitter(r.dev, r.g, r.rootLevel, r.rootIdx, r.opts.Persist, &r.res))
	finish(r.zero, r.g, r.rootLevel, idxs, digs, r.rootIdx, &r.res)
	r.done = true
	r.close()
	return true
}

// Result returns the completed rebuild's result. It panics if the
// rebuild has not finished — poll Done or the return of Step first.
func (r *Rebuilder) Result() RebuildResult {
	if !r.done {
		panic("bmt: Rebuilder.Result before completion")
	}
	return r.res
}

// Abort tears down an unfinished rebuild (closing its Progress
// bracket). Safe to call on a finished or already-aborted Rebuilder.
func (r *Rebuilder) Abort() { r.close() }

func (r *Rebuilder) close() {
	if r.open {
		r.open = false
		r.opts.Progress.end()
	}
}
