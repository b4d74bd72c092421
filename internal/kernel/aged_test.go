package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"amnt/internal/kernel"
)

// allocState is what a kernel's allocator state is compared by.
type allocState struct {
	Chunks       [][]uint64
	FreePages    uint64
	Instructions uint64
}

func stateOf(a *kernel.Allocator, maxOrder int) allocState {
	s := allocState{FreePages: a.FreePages(), Instructions: a.Instructions()}
	for o := 0; o <= maxOrder; o++ {
		s.Chunks = append(s.Chunks, a.Chunks(o))
	}
	return s
}

// drive runs a seeded mix of page allocations, frees, restructures,
// demand faults and process releases on k and logs every page and
// region they return.
func drive(k *kernel.Kernel, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	a := k.Allocator()
	region := k.Config().SubtreeRegionPages
	var held, log []uint64
	p := k.NewProcess("p")
	vpage := uint64(0)
	for i := 0; i < 600; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			if page, ok := a.AllocPage(); ok {
				held = append(held, page)
				log = append(log, page)
			}
		case r < 6 && len(held) > 0:
			j := rng.Intn(len(held))
			a.FreePage(held[j])
			held = append(held[:j], held[j+1:]...)
		case r == 6:
			log = append(log, a.Restructure(region))
		case r < 9:
			pa, _ := p.Translate(vpage * kernel.PageSize)
			vpage += 1 + uint64(rng.Intn(3))
			log = append(log, pa)
		default:
			p.Release()
			p = k.NewProcess("p")
		}
	}
	p.Release()
	return append(log, k.Restructures(), k.Instructions())
}

// TestNewAgedMatchesFreshAgeing: a kernel copied from the aged template
// is in the state a fresh kernel reaches by ageing itself, and the same
// operations on both give the same pages, on the stock and the AMNT++
// kernel alike.
func TestNewAgedMatchesFreshAgeing(t *testing.T) {
	geometries := []kernel.Config{
		{MemoryBytes: 1 << 22, MaxOrder: 6, SubtreeRegionPages: 64, ReclaimBatch: 16},
		{MemoryBytes: 1 << 24, MaxOrder: 8, SubtreeRegionPages: 256, ReclaimBatch: 32},
		{MemoryBytes: 300 * kernel.PageSize, MaxOrder: 4, SubtreeRegionPages: 48, ReclaimBatch: 8},
	}
	for _, geo := range geometries {
		for _, seed := range []int64{1, 7} {
			for _, churn := range []int{0, 2000, 6000} {
				for _, plusplus := range []bool{false, true} {
					cfg := geo
					cfg.AMNTPlusPlus = plusplus
					t.Run(fmt.Sprintf("pages=%d/seed=%d/churn=%d/amnt++=%v", cfg.MemoryBytes/kernel.PageSize, seed, churn, plusplus), func(t *testing.T) {
						fresh := kernel.New(cfg)
						fresh.Prefragment(seed, churn)
						aged := kernel.NewAged(cfg, seed, churn)
						if err := aged.Allocator().CheckInvariants(); err != nil {
							t.Fatal(err)
						}
						if got, want := stateOf(aged.Allocator(), cfg.MaxOrder), stateOf(fresh.Allocator(), cfg.MaxOrder); !reflect.DeepEqual(got, want) {
							t.Fatalf("aged copy differs from a fresh ageing:\n got %+v\nwant %+v", got, want)
						}
						if aged.Instructions() != fresh.Instructions() || aged.PinnedPages() != fresh.PinnedPages() {
							t.Fatalf("instructions %d, pinned %d; fresh ageing has %d, %d",
								aged.Instructions(), aged.PinnedPages(), fresh.Instructions(), fresh.PinnedPages())
						}
						if churn > 0 && aged.PinnedPages() == 0 {
							t.Fatal("ageing pinned nothing")
						}
						if got, want := drive(aged, seed+100), drive(fresh, seed+100); !reflect.DeepEqual(got, want) {
							t.Fatalf("same operations gave different pages:\n got %v\nwant %v", got, want)
						}
						if got, want := stateOf(aged.Allocator(), cfg.MaxOrder), stateOf(fresh.Allocator(), cfg.MaxOrder); !reflect.DeepEqual(got, want) {
							t.Fatal("allocators differ after the same operations")
						}
						if err := aged.Allocator().CheckInvariants(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestNewAgedIsolation: working a copy hard, ageing it further
// included, leaves the template and a sibling copy as they were.
func TestNewAgedIsolation(t *testing.T) {
	cfg := kernel.Config{MemoryBytes: 1 << 22, MaxOrder: 6, SubtreeRegionPages: 64, ReclaimBatch: 16, AMNTPlusPlus: true}
	const seed, churn = 3, 2000
	tmpl := kernel.Template(cfg, seed, churn)
	want := stateOf(tmpl, cfg.MaxOrder)
	a := kernel.NewAged(cfg, seed, churn)
	b := kernel.NewAged(cfg, seed, churn)
	pinned := b.PinnedPages()

	drive(a, 5)
	a.Prefragment(9, 500)
	for {
		if _, ok := a.Allocator().AllocPage(); !ok {
			break
		}
	}

	if got := stateOf(tmpl, cfg.MaxOrder); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating a copy changed the template")
	}
	if err := tmpl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(b.Allocator(), cfg.MaxOrder); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating a copy changed its sibling")
	}
	if b.PinnedPages() != pinned || kernel.NewAged(cfg, seed, churn).PinnedPages() != pinned {
		t.Fatal("ageing a copy further changed the shared pinned pages")
	}
}

// singleFlightRuns gives every run of TestNewAgedSingleFlight (-count)
// a key no earlier run built.
var singleFlightRuns atomic.Int64

// TestNewAgedSingleFlight: concurrent first callers of a new key build
// its template once and all get the same state.
func TestNewAgedSingleFlight(t *testing.T) {
	cfg := kernel.Config{MemoryBytes: 1 << 24, MaxOrder: 8}
	seed := 1<<40 + singleFlightRuns.Add(1)
	before := kernel.TemplateBuilds()
	start := make(chan struct{})
	kernels := make([]*kernel.Kernel, 4)
	var wg sync.WaitGroup
	for i := range kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			kernels[i] = kernel.NewAged(cfg, seed, 3000)
		}()
	}
	close(start)
	wg.Wait()
	if built := kernel.TemplateBuilds() - before; built != 1 {
		t.Fatalf("4 concurrent callers built the template %d times, want 1", built)
	}
	want := stateOf(kernels[0].Allocator(), cfg.MaxOrder)
	for i, k := range kernels[1:] {
		if got := stateOf(k.Allocator(), cfg.MaxOrder); !reflect.DeepEqual(got, want) {
			t.Fatalf("caller %d got a different state", i+1)
		}
	}
}

var benchKernel *kernel.Kernel

// BenchmarkAgeKernel compares ageing a Figure 4 kernel (8 GB, max
// order 11, churn 36 000) from scratch with copying the shared template.
func BenchmarkAgeKernel(b *testing.B) {
	cfg := kernel.DefaultConfig()
	const seed, churn = 1, 36_000
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchKernel = kernel.New(cfg)
			benchKernel.Prefragment(seed, churn)
		}
	})
	b.Run("copy", func(b *testing.B) {
		kernel.NewAged(cfg, seed, churn)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchKernel = kernel.NewAged(cfg, seed, churn)
		}
	})
}
