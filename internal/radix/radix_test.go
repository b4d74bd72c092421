package radix

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesMap drives a Table and a map with the same stores
// over key ranges that make the table grow from one leaf to full
// height, and requires equal contents, ascending Range order, and Get
// of absent keys (inside and beyond the current height) to be zero.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint32]
	model := map[uint64]uint32{}
	if tab.Get(0) != 0 || tab.Get(1<<63) != 0 {
		t.Fatal("empty table returned a value")
	}
	for _, span := range []uint64{300, 1 << 12, 1 << 20, 1 << 40, 1<<64 - 1} {
		for i := 0; i < 2000; i++ {
			key := rng.Uint64() % span
			if i%50 == 0 {
				key = span - uint64(i) // the top of the range, 2^64-1 included
			}
			*tab.At(key) += uint32(i + 1)
			model[key] += uint32(i + 1)
			if probe := rng.Uint64(); tab.Get(probe) != model[probe] {
				t.Fatalf("Get(%d) = %d, model %d", probe, tab.Get(probe), model[probe])
			}
		}
		for k, v := range model {
			if tab.Get(k) != v {
				t.Fatalf("span %d: Get(%d) = %d, model %d", span, k, tab.Get(k), v)
			}
		}
	}
	var keys []uint64
	last, first := uint64(0), true
	tab.Range(func(k uint64, v *uint32) {
		if !first && k <= last {
			t.Fatalf("Range visited %d after %d", k, last)
		}
		last, first = k, false
		if *v != model[k] {
			t.Fatalf("Range(%d) = %d, model %d", k, *v, model[k])
		}
		if *v != 0 {
			keys = append(keys, k)
		}
	})
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("Range saw %d set keys, model has %d", len(keys), len(want))
	}
}

// TestTableGetNoAllocs: lookups and stores to existing leaves stay off
// the heap, and At's pointer survives later growth.
func TestTableGetNoAllocs(t *testing.T) {
	var tab Table[uint64]
	p := tab.At(7)
	*p = 42
	*tab.At(1 << 50) = 1 // grows the table by several levels
	if tab.Get(7) != 42 || p != tab.At(7) {
		t.Fatal("growth moved an existing entry")
	}
	var sum uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		sum += tab.Get(7) + tab.Get(1<<50) + tab.Get(1<<30)
		*tab.At(8)++
	}); allocs != 0 {
		t.Fatalf("%v allocations per lookup, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("lookups returned nothing")
	}
}
