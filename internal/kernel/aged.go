package kernel

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
)

// agedKey is everything an aged allocator depends on: two kernels with
// the same page count, maximum order, seed and churn age into the same
// free lists, chunk for chunk.
type agedKey struct {
	pages    uint64
	maxOrder int
	seed     int64
	churn    int
}

// template is one key's aged allocator and pinned pages. It is built
// once and never written after, so any number of goroutines may copy
// it at once; NewAged hands out copies and never the template itself.
type template struct {
	key    agedKey
	once   sync.Once
	alloc  *Allocator
	pinned []uint64
}

// templates holds every key aged in this process. Nothing is evicted:
// a process only ages one state per seed × memory size × churn it
// simulates, a handful in all. A slice, not a map: a lookup is per
// machine, never per access, and this package keeps maps off its
// per-access files (TestArchNoMapPerAccess).
var templates struct {
	sync.Mutex
	list []*template
}

// templateBuilds counts template builds, for tests.
var templateBuilds atomic.Int64

// NewAged builds a kernel from cfg whose allocator is in the state
// Prefragment(seed, churn) leaves a fresh one in. The ageing runs once
// per process for each (page count, max order, seed, churn); every
// later kernel of that key gets a deep copy of the aged allocator, so
// it is the same state, byte for byte, at the cost of a copy. The
// first callers of a new key wait for one build. churn <= 0 is the
// pristine allocator, whatever the seed.
func NewAged(cfg Config, seed int64, churn int) *Kernel {
	cfg = cfg.withDefaults()
	t := agedTemplate(cfg, seed, churn)
	k := newKernel(cfg, t.alloc.Clone())
	// Shared read-only: the capacity cap makes a further Prefragment
	// on this copy append to a slice of its own.
	k.pinned = t.pinned[:len(t.pinned):len(t.pinned)]
	return k
}

// agedTemplate returns the built template for a defaulted cfg, seed
// and churn, adding and building it first if the key is new.
func agedTemplate(cfg Config, seed int64, churn int) *template {
	if churn <= 0 {
		seed, churn = 0, 0
	}
	key := agedKey{pages: cfg.MemoryBytes / PageSize, maxOrder: cfg.MaxOrder, seed: seed, churn: churn}
	templates.Lock()
	i := slices.IndexFunc(templates.list, func(t *template) bool { return t.key == key })
	if i < 0 {
		i = len(templates.list)
		templates.list = append(templates.list, &template{key: key})
	}
	t := templates.list[i]
	templates.Unlock()
	t.once.Do(t.build)
	return t
}

func (t *template) build() {
	templateBuilds.Add(1)
	k := &Kernel{alloc: NewAllocator(t.key.pages, t.key.maxOrder)}
	k.Prefragment(t.key.seed, t.key.churn)
	t.alloc, t.pinned = k.alloc, k.pinned
}

// Prefragment ages the allocator the way uptime does: a span of
// physical memory (capped at half of what is free) becomes a mosaic
// of pinned stretches (kernel text, page tables, long-lived daemons)
// and free runs a few pages long. The free runs are returned to the
// allocator in shuffled order, so the free lists start with partially
// contiguous chunks scattered across several subtree regions before
// falling back to pristine large chunks — the state in which physical
// placement policy (AMNT++) matters. The stretch lengths and the
// shuffle are drawn from seed. Simulated machines get an aged kernel
// from NewAged, which runs this once per key.
func (k *Kernel) Prefragment(seed int64, span int) {
	rng := rand.New(rand.NewSource(seed))
	if max := int(k.alloc.FreePages() / 2); span > max {
		span = max
	}
	var held []uint64
	for i := 0; i < span; i++ {
		page, ok := k.alloc.AllocPage()
		if !ok {
			break
		}
		held = append(held, page)
	}
	// Carve the span into alternating pinned stretches and free runs.
	var runs [][]uint64
	i := 0
	for i < len(held) {
		pinLen := 4 + rng.Intn(20) // pinned stretch: 4..23 pages
		for j := 0; j < pinLen && i < len(held); j++ {
			k.pinned = append(k.pinned, held[i])
			i++
		}
		runLen := 2 + rng.Intn(10) // free run: 2..11 pages
		var run []uint64
		for j := 0; j < runLen && i < len(held); j++ {
			run = append(run, held[i])
			i++
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	rng.Shuffle(len(runs), func(a, b int) { runs[a], runs[b] = runs[b], runs[a] })
	for _, run := range runs {
		// Free in reverse so the head-pushed list pops in ascending
		// (sequential) order within the run.
		for j := len(run) - 1; j >= 0; j-- {
			k.alloc.FreePage(run[j])
		}
	}
}
