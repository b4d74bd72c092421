package kernel

import (
	"fmt"
	"math/rand"

	"amnt/internal/radix"
	"amnt/internal/telemetry"
)

// PageSize is the physical page size in bytes (64 data blocks).
const PageSize = 4096

// BlocksPerPage is the number of 64-byte blocks per page.
const BlocksPerPage = PageSize / 64

// Config describes the kernel model.
type Config struct {
	// MemoryBytes is the physical memory size.
	MemoryBytes uint64
	// MaxOrder is the buddy allocator's largest order (Linux: 11).
	MaxOrder int
	// AMNTPlusPlus enables the modified allocator (free-list
	// restructuring during reclamation).
	AMNTPlusPlus bool
	// SubtreeRegionPages is the AMNT subtree region size in pages
	// (coverage of one node at the configured subtree level). Only
	// used when AMNTPlusPlus is set.
	SubtreeRegionPages uint64
	// ReclaimBatch is how many page frees accumulate before the
	// reclamation path (and, with AMNT++, the restructure) runs.
	ReclaimBatch int
}

// DefaultConfig returns an 8 GB kernel matching the paper's setup
// (subtree level 3 => 128 MB regions => 32768 pages).
func DefaultConfig() Config {
	return Config{
		MemoryBytes:        8 << 30,
		MaxOrder:           11,
		SubtreeRegionPages: (128 << 20) / PageSize,
		ReclaimBatch:       64,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MemoryBytes == 0 {
		c.MemoryBytes = d.MemoryBytes
	}
	if c.MaxOrder == 0 {
		c.MaxOrder = d.MaxOrder
	}
	if c.SubtreeRegionPages == 0 {
		c.SubtreeRegionPages = d.SubtreeRegionPages
	}
	if c.ReclaimBatch == 0 {
		c.ReclaimBatch = d.ReclaimBatch
	}
	return c
}

// Kernel owns the physical page allocator and the process table.
type Kernel struct {
	cfg         Config
	alloc       *Allocator
	procs       map[int]*Process
	nextPID     int
	pendingFree int
	pinned      []uint64
	restructs   uint64
	faults      uint64
}

// New builds a kernel from cfg.
func New(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	return &Kernel{
		cfg:   cfg,
		alloc: NewAllocator(cfg.MemoryBytes/PageSize, cfg.MaxOrder),
		procs: make(map[int]*Process),
	}
}

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Allocator exposes the buddy allocator (tests, stats).
func (k *Kernel) Allocator() *Allocator { return k.alloc }

// Instructions returns the modeled OS instructions executed so far
// (allocator paths plus page-fault handling).
func (k *Kernel) Instructions() uint64 {
	return k.alloc.Instructions() + k.faults*instrFault
}

// Restructures returns how many AMNT++ restructure passes ran.
func (k *Kernel) Restructures() uint64 { return k.restructs }

// PageFaults returns the number of demand-paging faults served.
func (k *Kernel) PageFaults() uint64 { return k.faults }

// RegisterMetrics publishes OS activity into a telemetry registry
// under prefix ("os").
func (k *Kernel) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".page_faults", "demand-paging faults", k.PageFaults)
	reg.Counter(prefix+".instructions", "modeled kernel instructions", k.Instructions)
	reg.Counter(prefix+".restructures", "AMNT++ free-list restructure passes", k.Restructures)
	reg.Gauge(prefix+".free_pages", "allocator free pages", func() float64 {
		return float64(k.alloc.FreePages())
	})
}

// NewProcess creates a process with an empty address space.
func (k *Kernel) NewProcess(name string) *Process {
	k.nextPID++
	p := &Process{
		PID:    k.nextPID,
		Name:   name,
		kernel: k,
	}
	k.procs[p.PID] = p
	return p
}

// reclaim is the page-free path; with AMNT++ it periodically reorders
// the free lists (out of the allocation critical path, §5).
func (k *Kernel) reclaim(page uint64) {
	k.alloc.FreePage(page)
	k.pendingFree++
	if k.pendingFree >= k.cfg.ReclaimBatch {
		k.pendingFree = 0
		if k.cfg.AMNTPlusPlus {
			k.alloc.Restructure(k.cfg.SubtreeRegionPages)
			k.restructs++
		}
	}
}

// Prefragment ages the allocator the way uptime does: a span of
// physical memory (capped at half of what is free) becomes a mosaic
// of pinned stretches (kernel text, page tables, long-lived daemons)
// and free runs a few pages long. The free runs are returned to the
// allocator in shuffled order, so the free lists start with partially
// contiguous chunks scattered across several subtree regions before
// falling back to pristine large chunks — the state in which physical
// placement policy (AMNT++) matters.
func (k *Kernel) Prefragment(rng *rand.Rand, span int) {
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

// PinnedPages returns how many pages Prefragment left pinned.
func (k *Kernel) PinnedPages() int { return len(k.pinned) }

// Process is a simulated address space: virtual pages map to physical
// pages on first touch (demand paging).
type Process struct {
	PID    int
	Name   string
	kernel *Kernel
	// pages holds 1+ppage per mapped vpage (0 = unmapped). Translate
	// runs once per simulated access, so this is a radix table rather
	// than a map.
	pages    radix.Table[uint64]
	resident int
}

// Translate returns the physical byte address backing vaddr,
// allocating a physical page on first touch. The second result
// reports whether a page fault was taken.
func (p *Process) Translate(vaddr uint64) (uint64, bool) {
	vpage := vaddr / PageSize
	if pp := p.pages.Get(vpage); pp != 0 {
		return (pp-1)*PageSize + vaddr%PageSize, false
	}
	page, allocated := p.kernel.alloc.AllocPage()
	if !allocated {
		panic(fmt.Sprintf("kernel: out of physical memory for %s", p.Name))
	}
	p.kernel.faults++
	*p.pages.At(vpage) = page + 1
	p.resident++
	return page*PageSize + vaddr%PageSize, true
}

// Resident returns the number of mapped pages.
func (p *Process) Resident() int { return p.resident }

// PhysicalPages returns the mapped physical page numbers in ascending
// virtual-page order.
func (p *Process) PhysicalPages() []uint64 {
	out := make([]uint64, 0, p.resident)
	p.pages.Range(func(_ uint64, pp *uint64) {
		if *pp != 0 {
			out = append(out, *pp-1)
		}
	})
	return out
}

// Release unmaps everything, sending the pages through reclamation
// (which is where AMNT++ restructures the free lists) in ascending
// virtual-page order.
func (p *Process) Release() {
	p.ReleasePages(1)
	delete(p.kernel.procs, p.PID)
}

// ReleasePages unmaps a fraction of the address space (models partial
// reclamation under memory pressure): every every-th mapped page in
// ascending virtual-page order, starting with the first.
func (p *Process) ReleasePages(every int) {
	if every <= 0 {
		return
	}
	i := 0
	p.pages.Range(func(_ uint64, pp *uint64) {
		if *pp == 0 {
			return
		}
		if i%every == 0 {
			p.kernel.reclaim(*pp - 1)
			*pp = 0
			p.resident--
		}
		i++
	})
}
