package bmt

import (
	"amnt/internal/cme"
	"amnt/internal/scm"
)

// Rebuilder is a resumable front for the rebuild engine: the same
// leaf-hash / climb / persist pipeline as RebuildWith, but split into
// bounded Step calls so a serving goroutine can interleave rebuild
// work with foreground traffic. When no overrides are supplied the
// final RebuildResult and the device statistics are bit-identical to
// a serial RebuildWith over the same span (pinned by test), because
// Step resumes the same ordered walk of the occupied leaves — one
// read charged and one Hash each — and the climb runs once at the
// end.
//
// Overrides support degraded serving: a foreground write that lands
// on counter leaf L mid-rebuild snapshots L's pre-write content and
// registers it as an override, so the audit hashes the frozen image
// the crash left behind rather than the moving target. A nil override
// marks a leaf that did not exist at freeze time (first-touch during
// degraded serving); the walk steps over such leaves, uncharged.
// Reads are charged through scm.AccountReads, once per Step, so
// cycle sums stay comparable to the blocking path.
//
// A Rebuilder is single-goroutine: the owner calls Step/Done/Result
// from one goroutine (the shard worker), never concurrently.
type Rebuilder struct {
	dev       *scm.Device
	e         *cme.Engine
	g         Geometry
	zero      []uint64
	rootLevel int
	rootIdx   uint64
	opts      RebuildOptions
	frozen    map[uint64][]byte

	next, hi uint64 // leaves in [next, hi) are still to be walked
	total    int    // source leaves planned at construction
	idxs     []uint64
	digs     []uint64
	res      RebuildResult
	done     bool
	open     bool // Progress.begin called, end pending
}

// NewRebuilder plans a resumable rebuild of the subtree rooted at
// (rootLevel, rootIdx). frozen maps counter-leaf indices to their
// content at freeze time: a non-nil entry overrides the device block,
// a nil entry excludes the leaf (it was absent at freeze time). The
// map may be nil, and the owner may add to it between Steps.
// opts.Workers is ignored — Step always runs the serial pipeline,
// since resumability is the point.
func NewRebuilder(dev *scm.Device, e *cme.Engine, g Geometry, rootLevel int, rootIdx uint64, opts RebuildOptions, frozen map[uint64][]byte) *Rebuilder {
	lo, hi := g.LeafSpan(rootLevel, rootIdx)
	total := dev.Count(scm.Counter, lo, hi)
	for li, ov := range frozen {
		if ov == nil && li >= lo && li < hi && dev.Contains(scm.Counter, li) {
			total-- // first-touch after freeze: not part of the crash image
		}
	}
	r := &Rebuilder{
		dev:       dev,
		e:         e,
		g:         g,
		zero:      ZeroDigests(e, g),
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

// Step hashes up to maxLeaves more source leaves (all of them when
// maxLeaves <= 0) and, once every leaf is consumed, runs the climb
// and finishes the rebuild. It returns true when the rebuild is done.
func (r *Rebuilder) Step(maxLeaves int) bool {
	if r.done {
		return true
	}
	was := len(r.idxs)
	stopped := false
	r.dev.PeekScan(scm.Counter, r.next, r.hi, func(idx uint64, blk []byte) bool {
		r.next = idx + 1
		if len(r.frozen) > 0 { // usually empty: keep the map probe off the per-leaf path

			if ov, ok := r.frozen[idx]; ok {
				if ov == nil {
					return true
				}
				blk = ov
			}
		}
		r.idxs = append(r.idxs, idx)
		r.digs = append(r.digs, Hash(r.e, r.g.Levels, blk))
		stopped = len(r.idxs)-was == maxLeaves
		return !stopped
	})
	n := uint64(len(r.idxs) - was)
	r.res.Cycles += r.dev.AccountReads(scm.Counter, n)
	r.res.CounterReads += n
	r.opts.Progress.add(n)
	// A walk that stopped on the last planned leaf is done too: the
	// caller should not need one more Step to learn it.
	if stopped && len(r.idxs) < r.total {
		return false
	}
	idxs, digs := climb(r.e, r.g, r.zero, r.g.Levels, r.rootLevel, r.idxs, r.digs,
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
