package kernel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func smallAlloc() *Allocator { return NewAllocator(256, 5) }

func TestAllocatorBoot(t *testing.T) {
	a := smallAlloc()
	if a.FreePages() != 256 {
		t.Fatalf("free = %d, want 256", a.FreePages())
	}
	if a.FreeChunks(5) != 8 { // 256/32
		t.Fatalf("top-order chunks = %d, want 8", a.FreeChunks(5))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorNonPowerOfTwo(t *testing.T) {
	a := NewAllocator(100, 4) // 64+32+4 => chunks of 64? maxOrder 4 = 16 pages
	if a.FreePages() != 100 {
		t.Fatalf("free = %d, want 100", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Allocate everything page by page.
	for i := 0; i < 100; i++ {
		if _, ok := a.AllocPage(); !ok {
			t.Fatalf("alloc %d failed with %d free", i, a.FreePages())
		}
	}
	if _, ok := a.AllocPage(); ok {
		t.Fatal("allocated beyond capacity")
	}
}

func TestAllocSplitsAndFreeCoalesces(t *testing.T) {
	a := smallAlloc()
	p1, ok := a.AllocPage()
	if !ok {
		t.Fatal("alloc failed")
	}
	if a.FreePages() != 255 {
		t.Fatalf("free = %d", a.FreePages())
	}
	// Splitting a 32-page chunk yields free chunks at orders 0..4.
	for order := 0; order <= 4; order++ {
		if a.FreeChunks(order) != 1 {
			t.Fatalf("order %d chunks = %d, want 1", order, a.FreeChunks(order))
		}
	}
	a.FreePage(p1)
	if a.FreePages() != 256 {
		t.Fatal("free count after coalesce")
	}
	if a.FreeChunks(5) != 8 {
		t.Fatalf("coalescing did not restore top order: %d", a.FreeChunks(5))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreePanicsOnDoubleFree(t *testing.T) {
	a := smallAlloc()
	p, _ := a.AllocPage()
	a.FreePage(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	a.FreePage(p)
}

func TestFreePanicsOnMisaligned(t *testing.T) {
	a := smallAlloc()
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free not detected")
		}
	}()
	a.Free(3, 2)
}

func TestAllocOrder(t *testing.T) {
	a := smallAlloc()
	start, ok := a.Alloc(3) // 8 pages
	if !ok || start%8 != 0 {
		t.Fatalf("order-3 alloc = %d/%v", start, ok)
	}
	if a.FreePages() != 248 {
		t.Fatalf("free = %d", a.FreePages())
	}
	a.Free(start, 3)
	if a.FreePages() != 256 {
		t.Fatal("free after order-3 free")
	}
}

func TestAllocatorRandomizedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(512, 6)
		type held struct {
			start uint64
			order int
		}
		var live []held
		for i := 0; i < 300; i++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				j := rng.Intn(len(live))
				a.Free(live[j].start, live[j].order)
				live = append(live[:j], live[j+1:]...)
			} else {
				order := rng.Intn(4)
				if s, ok := a.Alloc(order); ok {
					live = append(live, held{s, order})
				}
			}
			if a.CheckInvariants() != nil {
				return false
			}
		}
		for _, h := range live {
			a.Free(h.start, h.order)
		}
		return a.CheckInvariants() == nil && a.FreePages() == 512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNoOverlappingAllocations(t *testing.T) {
	a := NewAllocator(128, 4)
	seen := make(map[uint64]bool)
	for {
		p, ok := a.AllocPage()
		if !ok {
			break
		}
		if seen[p] {
			t.Fatalf("page %d allocated twice", p)
		}
		seen[p] = true
	}
	if len(seen) != 128 {
		t.Fatalf("allocated %d pages, want 128", len(seen))
	}
}

func TestRestructureBiasesHead(t *testing.T) {
	a := NewAllocator(256, 5)
	// Carve the memory into single pages, free them in an interleaved
	// order so heads point at assorted regions.
	var pages []uint64
	for {
		p, ok := a.AllocPage()
		if !ok {
			break
		}
		pages = append(pages, p)
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	// Keep region 2 (pages 128..191 with 64-page regions) mostly
	// allocated-free balance equal; free everything.
	for _, p := range pages {
		a.FreePage(p)
	}
	best := a.Restructure(64)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// After restructure, the head chunk of every non-empty list lies
	// in the chosen region (when the region has chunks at that order).
	for order := 0; order <= 5; order++ {
		if a.FreeChunks(order) == 0 {
			continue
		}
		head, _ := a.HeadChunk(order)
		if head/64 != best {
			found := false
			for _, s := range a.Chunks(order) {
				if s/64 == best {
					found = true
					break
				}
			}
			if found {
				t.Fatalf("order %d head %d not in biased region %d", order, head, best)
			}
		}
	}
}

func TestRestructureZeroRegionNoop(t *testing.T) {
	a := smallAlloc()
	before := a.Instructions()
	a.Restructure(0)
	if a.Instructions() != before {
		t.Fatal("restructure(0) should be a no-op")
	}
}

func TestKernelDemandPaging(t *testing.T) {
	k := New(Config{MemoryBytes: 1 << 20, MaxOrder: 4, SubtreeRegionPages: 16})
	p := k.NewProcess("test")
	pa1, fault1 := p.Translate(0x1234)
	if !fault1 {
		t.Fatal("first touch should fault")
	}
	pa2, fault2 := p.Translate(0x1000 + 0x234)
	if fault2 {
		t.Fatal("second touch of same page should not fault")
	}
	if pa1 != pa2 {
		t.Fatalf("same vpage mapped twice: %#x vs %#x", pa1, pa2)
	}
	if pa1%PageSize != 0x234 {
		t.Fatalf("page offset lost: %#x", pa1)
	}
	if p.Resident() != 1 || k.PageFaults() != 1 {
		t.Fatal("residency/fault accounting wrong")
	}
}

func TestProcessIsolation(t *testing.T) {
	k := New(Config{MemoryBytes: 1 << 20, MaxOrder: 4, SubtreeRegionPages: 16})
	p1 := k.NewProcess("a")
	p2 := k.NewProcess("b")
	a1, _ := p1.Translate(0)
	a2, _ := p2.Translate(0)
	if a1/PageSize == a2/PageSize {
		t.Fatal("two processes share a physical page")
	}
}

func TestReleaseReturnsPages(t *testing.T) {
	k := New(Config{MemoryBytes: 1 << 20, MaxOrder: 4, SubtreeRegionPages: 16})
	before := k.Allocator().FreePages()
	p := k.NewProcess("t")
	for v := uint64(0); v < 50; v++ {
		p.Translate(v * PageSize)
	}
	if k.Allocator().FreePages() != before-50 {
		t.Fatal("pages not consumed")
	}
	p.Release()
	if k.Allocator().FreePages() != before {
		t.Fatal("pages not reclaimed")
	}
	if err := k.Allocator().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAMNTPlusPlusRestructuresOnReclaim(t *testing.T) {
	cfg := Config{MemoryBytes: 1 << 22, MaxOrder: 6, SubtreeRegionPages: 64, ReclaimBatch: 16, AMNTPlusPlus: true}
	k := New(cfg)
	p := k.NewProcess("t")
	for v := uint64(0); v < 64; v++ {
		p.Translate(v * PageSize)
	}
	p.Release()
	if k.Restructures() == 0 {
		t.Fatal("AMNT++ reclamation never restructured")
	}
	// Unmodified kernel never restructures.
	cfg.AMNTPlusPlus = false
	k2 := New(cfg)
	p2 := k2.NewProcess("t")
	for v := uint64(0); v < 64; v++ {
		p2.Translate(v * PageSize)
	}
	p2.Release()
	if k2.Restructures() != 0 {
		t.Fatal("unmodified kernel restructured")
	}
}

func TestAMNTPlusPlusImprovesRegionLocality(t *testing.T) {
	// After fragmentation, two interleaved processes fault pages; with
	// AMNT++ their pages should concentrate in fewer subtree regions.
	run := func(plusplus bool) int {
		cfg := Config{
			MemoryBytes:        1 << 24, // 4096 pages
			MaxOrder:           6,
			SubtreeRegionPages: 64, // 64 regions
			ReclaimBatch:       32,
			AMNTPlusPlus:       plusplus,
		}
		k := New(cfg)
		rng := rand.New(rand.NewSource(11))
		k.Prefragment(rng, 6000)
		// Churn through a victim process to trigger reclamation (and
		// restructuring in the ++ kernel).
		victim := k.NewProcess("victim")
		for v := uint64(0); v < 256; v++ {
			victim.Translate(v * PageSize)
		}
		victim.Release()
		a := k.NewProcess("a")
		b := k.NewProcess("b")
		regions := make(map[uint64]bool)
		for v := uint64(0); v < 128; v++ {
			pa, _ := a.Translate(v * PageSize)
			pb, _ := b.Translate(v * PageSize)
			regions[pa/PageSize/64] = true
			regions[pb/PageSize/64] = true
		}
		return len(regions)
	}
	plain := run(false)
	biased := run(true)
	if biased > plain {
		t.Fatalf("AMNT++ used %d regions, plain used %d — no locality gain", biased, plain)
	}
}

func TestInstructionAccounting(t *testing.T) {
	k := New(Config{MemoryBytes: 1 << 20, MaxOrder: 4, SubtreeRegionPages: 16})
	if k.Instructions() != 0 {
		t.Fatal("fresh kernel has instructions")
	}
	p := k.NewProcess("t")
	p.Translate(0)
	if k.Instructions() == 0 {
		t.Fatal("page fault cost not accounted")
	}
}

func TestReleasePages(t *testing.T) {
	k := New(Config{MemoryBytes: 1 << 20, MaxOrder: 4, SubtreeRegionPages: 16})
	p := k.NewProcess("t")
	for v := uint64(0); v < 40; v++ {
		p.Translate(v * PageSize)
	}
	p.ReleasePages(2)
	if p.Resident() != 20 {
		t.Fatalf("resident = %d, want 20", p.Resident())
	}
	p.ReleasePages(0) // no-op
	if p.Resident() != 20 {
		t.Fatal("ReleasePages(0) should be a no-op")
	}
	if err := k.Allocator().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleasePagesDeterministic: two identical processes that release
// every second page end with identical mappings and identical allocator
// state, because the walk is in ascending virtual-page order (it used to
// range over a Go map). Sparse and far addresses make the table grow in
// height mid-way.
func TestReleasePagesDeterministic(t *testing.T) {
	run := func() ([]uint64, [][]uint64) {
		k := New(Config{MemoryBytes: 4 << 20, MaxOrder: 6, SubtreeRegionPages: 64, AMNTPlusPlus: true, ReclaimBatch: 8})
		p := k.NewProcess("t")
		for v := uint64(0); v < 300; v++ {
			p.Translate((v * 7 % 300) * PageSize) // touch order is not address order
		}
		for _, far := range []uint64{1 << 30, 1 << 47, 1<<64 - 1} {
			p.Translate(far)
		}
		p.ReleasePages(2)
		if p.Resident() != 151 {
			t.Fatalf("resident = %d, want 151", p.Resident())
		}
		if err := k.Allocator().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var free [][]uint64
		for order := 0; order <= 6; order++ {
			free = append(free, k.Allocator().Chunks(order))
		}
		return p.PhysicalPages(), free
	}
	pages1, free1 := run()
	pages2, free2 := run()
	if !reflect.DeepEqual(pages1, pages2) {
		t.Fatalf("PhysicalPages differ between identical runs:\n%v\n%v", pages1, pages2)
	}
	if !reflect.DeepEqual(free1, free2) {
		t.Fatalf("free lists differ between identical runs:\n%v\n%v", free1, free2)
	}
	// The contract is ascending virtual-page order, whatever the touch
	// order and however far apart the pages sit.
	k := New(Config{MemoryBytes: 1 << 20, MaxOrder: 4})
	p := k.NewProcess("order")
	for _, v := range []uint64{9, 3, 1 << 40, 5} {
		p.Translate(v * PageSize)
	}
	want := make([]uint64, 0, 4)
	for _, v := range []uint64{3, 5, 9, 1 << 40} {
		pa, fault := p.Translate(v * PageSize)
		if fault {
			t.Fatalf("vpage %d faulted twice", v)
		}
		want = append(want, pa/PageSize)
	}
	if got := p.PhysicalPages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PhysicalPages = %v, want ascending virtual-page order %v", got, want)
	}
}

func TestPrefragmentPreservesInvariants(t *testing.T) {
	k := New(Config{MemoryBytes: 1 << 22, MaxOrder: 6, SubtreeRegionPages: 64})
	total := k.Allocator().FreePages()
	k.Prefragment(rand.New(rand.NewSource(9)), 2000)
	// Pinned pages stay allocated by design; everything else is free.
	if got := k.Allocator().FreePages() + uint64(k.PinnedPages()); got != total {
		t.Fatalf("pages unaccounted for: free+pinned=%d, total=%d", got, total)
	}
	if k.PinnedPages() == 0 {
		t.Fatal("prefragment pinned nothing — lists would re-coalesce")
	}
	if err := k.Allocator().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The free lists must actually be fragmented: singles present.
	if k.Allocator().FreeChunks(0) == 0 {
		t.Fatal("no order-0 fragmentation after prefragment")
	}
}
