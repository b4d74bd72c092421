// Package kernel models the operating system pieces the paper touches:
// a Linux-style binary buddy physical page allocator (free_area array
// of per-order chunk lists with split and coalesce), per-process page
// tables with allocate-on-fault, page reclamation, and the AMNT++
// modification — reordering each free list during reclamation so that
// chunks in the subtree region with the most free chunks sit at the
// head, biasing future allocations toward one subtree region.
//
// The model also accounts the instructions the OS executes in the
// allocator paths, which is how Table 2's instruction overhead of the
// modified OS is reproduced.
package kernel

import "fmt"

// Modeled instruction costs of allocator paths (coarse but consistent
// across modified/unmodified kernels, which is all Table 2 needs).
const (
	instrAllocFast   = 40  // pop from a free list head
	instrSplit       = 25  // one split level
	instrFree        = 50  // push to a free list
	instrCoalesce    = 30  // one buddy merge
	instrFault       = 150 // page-fault entry/exit
	instrScanChunk   = 8   // AMNT++ restructure, per chunk scanned
	instrRestructure = 120 // AMNT++ restructure, fixed overhead
)

// chunkNode is one free chunk in a doubly-linked free list; all list
// operations are O(1), matching the kernel's list_head behaviour.
type chunkNode struct {
	start      uint64
	order      int
	prev, next *chunkNode
}

// freeList is one order's list. head is where allocations pop and
// frees push (Linux pushes freed chunks at the head as well).
type freeList struct {
	head, tail *chunkNode
	size       int
}

func (l *freeList) pushHead(n *chunkNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	l.size++
}

func (l *freeList) pushTail(n *chunkNode) {
	n.next = nil
	n.prev = l.tail
	if l.tail != nil {
		l.tail.next = n
	}
	l.tail = n
	if l.head == nil {
		l.head = n
	}
	l.size++
}

func (l *freeList) remove(n *chunkNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
	l.size--
}

// Allocator is a binary buddy allocator over a physical page range.
// Not safe for concurrent use.
type Allocator struct {
	totalPages uint64
	maxOrder   int
	freeArea   []freeList
	// freeIdx locates the free chunk starting at a page, if any.
	freeIdx map[uint64]*chunkNode
	free    uint64
	instr   uint64
}

// NewAllocator builds an allocator over totalPages pages with the
// given maximum order (Linux uses 11). The initial free lists hold
// maximal aligned chunks.
func NewAllocator(totalPages uint64, maxOrder int) *Allocator {
	if maxOrder < 0 {
		maxOrder = 0
	}
	a := &Allocator{
		totalPages: totalPages,
		maxOrder:   maxOrder,
		freeArea:   make([]freeList, maxOrder+1),
		freeIdx:    make(map[uint64]*chunkNode),
	}
	page := uint64(0)
	for page < totalPages {
		order := maxOrder
		for order > 0 && (page%(1<<uint(order)) != 0 || page+(1<<uint(order)) > totalPages) {
			order--
		}
		n := &chunkNode{start: page, order: order}
		a.freeArea[order].pushTail(n)
		a.freeIdx[page] = n
		a.free += 1 << uint(order)
		page += 1 << uint(order)
	}
	return a
}

// Clone returns a deep copy of a: every order's free list in list
// order, the chunk index rebuilt over the copied chunks, and the free
// page and instruction counts. The copy shares nothing with a.
func (a *Allocator) Clone() *Allocator {
	chunks := 0
	for o := range a.freeArea {
		chunks += a.freeArea[o].size
	}
	c := &Allocator{
		totalPages: a.totalPages,
		maxOrder:   a.maxOrder,
		freeArea:   make([]freeList, len(a.freeArea)),
		freeIdx:    make(map[uint64]*chunkNode, chunks),
		free:       a.free,
		instr:      a.instr,
	}
	nodes := make([]chunkNode, chunks) // one allocation for every chunk
	for o := range a.freeArea {
		for n := a.freeArea[o].head; n != nil; n = n.next {
			cn := &nodes[0]
			nodes = nodes[1:]
			cn.start, cn.order = n.start, n.order
			c.freeArea[o].pushTail(cn)
			c.freeIdx[cn.start] = cn
		}
	}
	return c
}

// TotalPages returns the managed page count.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages returns the number of currently free pages.
func (a *Allocator) FreePages() uint64 { return a.free }

// Instructions returns the modeled instructions executed so far.
func (a *Allocator) Instructions() uint64 { return a.instr }

// FreeChunks returns the number of free chunks at the given order.
func (a *Allocator) FreeChunks(order int) int {
	if order < 0 || order > a.maxOrder {
		return 0
	}
	return a.freeArea[order].size
}

// HeadChunk returns the first chunk of an order's free list (the next
// one allocations will take).
func (a *Allocator) HeadChunk(order int) (start uint64, ok bool) {
	if order < 0 || order > a.maxOrder || a.freeArea[order].head == nil {
		return 0, false
	}
	return a.freeArea[order].head.start, true
}

// Chunks returns the starts of all free chunks at an order, head
// first. For tests and diagnostics.
func (a *Allocator) Chunks(order int) []uint64 {
	if order < 0 || order > a.maxOrder {
		return nil
	}
	out := make([]uint64, 0, a.freeArea[order].size)
	for n := a.freeArea[order].head; n != nil; n = n.next {
		out = append(out, n.start)
	}
	return out
}

// Alloc allocates a 2^order-page chunk, splitting larger chunks as
// needed, and returns its first page. ok is false when memory is
// exhausted at every order >= order.
func (a *Allocator) Alloc(order int) (start uint64, ok bool) {
	if order < 0 || order > a.maxOrder {
		return 0, false
	}
	a.instr += instrAllocFast
	from := order
	for from <= a.maxOrder && a.freeArea[from].size == 0 {
		from++
	}
	if from > a.maxOrder {
		return 0, false
	}
	n := a.freeArea[from].head
	a.freeArea[from].remove(n)
	delete(a.freeIdx, n.start)
	start = n.start
	// Split down to the requested order; the upper half of each split
	// goes back to the head of the lower list (Linux behavior).
	for from > order {
		from--
		a.instr += instrSplit
		upper := &chunkNode{start: start + (1 << uint(from)), order: from}
		a.freeArea[from].pushHead(upper)
		a.freeIdx[upper.start] = upper
	}
	a.free -= 1 << uint(order)
	return start, true
}

// AllocPage allocates a single page.
func (a *Allocator) AllocPage() (uint64, bool) { return a.Alloc(0) }

// Free returns a 2^order-page chunk to the allocator, coalescing with
// free buddies up to maxOrder.
func (a *Allocator) Free(start uint64, order int) {
	if order < 0 || order > a.maxOrder {
		panic(fmt.Sprintf("kernel: free with invalid order %d", order))
	}
	if start%(1<<uint(order)) != 0 || start+(1<<uint(order)) > a.totalPages {
		panic(fmt.Sprintf("kernel: free of misaligned chunk %d order %d", start, order))
	}
	if _, dup := a.freeIdx[start]; dup {
		panic(fmt.Sprintf("kernel: double free of chunk %d", start))
	}
	a.instr += instrFree
	a.free += 1 << uint(order)
	for order < a.maxOrder {
		buddy := start ^ (1 << uint(order))
		bn, ok := a.freeIdx[buddy]
		if !ok || bn.order != order {
			break
		}
		a.freeArea[order].remove(bn)
		delete(a.freeIdx, buddy)
		a.instr += instrCoalesce
		if buddy < start {
			start = buddy
		}
		order++
	}
	n := &chunkNode{start: start, order: order}
	a.freeArea[order].pushHead(n)
	a.freeIdx[start] = n
}

// FreePage frees a single page.
func (a *Allocator) FreePage(page uint64) { a.Free(page, 0) }

// Restructure implements the AMNT++ free-list reordering: count free
// chunks per subtree region, pick the region with the most, and move
// that region's chunks to the head of every order's list (stable
// otherwise). regionPages is the subtree region size in pages.
// It returns the chosen region.
func (a *Allocator) Restructure(regionPages uint64) uint64 {
	if regionPages == 0 {
		return 0
	}
	a.instr += instrRestructure
	counts := make([]int, (a.totalPages+regionPages-1)/regionPages)
	for o := range a.freeArea {
		for n := a.freeArea[o].head; n != nil; n = n.next {
			counts[n.start/regionPages]++
			a.instr += instrScanChunk
		}
	}
	// The first region with the most free chunks wins.
	var best uint64
	for r, c := range counts {
		if c > counts[best] {
			best = uint64(r)
		}
	}
	// Stable partition each list: biased region first.
	for o := range a.freeArea {
		var biased, rest freeList
		for n := a.freeArea[o].head; n != nil; {
			next := n.next
			n.prev, n.next = nil, nil
			if n.start/regionPages == best {
				biased.pushTail(n)
			} else {
				rest.pushTail(n)
			}
			a.instr += instrScanChunk
			n = next
		}
		a.freeArea[o] = concat(biased, rest)
	}
	return best
}

func concat(a, b freeList) freeList {
	if a.head == nil {
		return b
	}
	if b.head == nil {
		return a
	}
	a.tail.next = b.head
	b.head.prev = a.tail
	return freeList{head: a.head, tail: b.tail, size: a.size + b.size}
}

// CheckInvariants validates the allocator's internal consistency: no
// overlapping free chunks, index agreement, and an accurate free-page
// count. Intended for tests.
func (a *Allocator) CheckInvariants() error {
	var total uint64
	chunks := 0
	covered := make(map[uint64]bool)
	for order := range a.freeArea {
		seen := 0
		for n := a.freeArea[order].head; n != nil; n = n.next {
			seen++
			chunks++
			if in, ok := a.freeIdx[n.start]; !ok || in != n {
				return fmt.Errorf("chunk %d order %d missing from index", n.start, order)
			}
			if n.order != order {
				return fmt.Errorf("chunk %d order tag %d in list %d", n.start, n.order, order)
			}
			if n.start%(1<<uint(order)) != 0 {
				return fmt.Errorf("chunk %d misaligned for order %d", n.start, order)
			}
			for p := n.start; p < n.start+(1<<uint(order)); p++ {
				if covered[p] {
					return fmt.Errorf("page %d covered by two free chunks", p)
				}
				covered[p] = true
			}
			total += 1 << uint(order)
		}
		if seen != a.freeArea[order].size {
			return fmt.Errorf("order %d size %d != walked %d", order, a.freeArea[order].size, seen)
		}
	}
	if total != a.free {
		return fmt.Errorf("free count %d != list total %d", a.free, total)
	}
	if len(a.freeIdx) != chunks {
		return fmt.Errorf("index size %d != chunk count %d", len(a.freeIdx), chunks)
	}
	return nil
}
