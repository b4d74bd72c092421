package gen

import "testing"

func TestStreamsAreDeterministicAndDisjoint(t *testing.T) {
	mix := Mix{Keys: 1000, PutShare: 0.5, Zipf: true}
	a, b := NewStream(7, mix, 2, 0), NewStream(7, mix, 2, 0)
	other := NewStream(7, mix, 2, 1)
	for i := 0; i < 10_000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("op %d: same seed gave %v and %v", i, x, y)
		}
		if x.Key%2 != 0 || x.Key >= mix.Keys {
			t.Fatalf("op %d: client 0 drew key %d", i, x.Key)
		}
		if z := other.Next(); z.Key%2 != 1 || z.Key >= mix.Keys {
			t.Fatalf("op %d: client 1 drew key %d", i, z.Key)
		}
	}
	if NewStream(8, mix, 2, 0).Next() == NewStream(7, mix, 2, 0).Next() &&
		NewStream(8, mix, 2, 0).Uniform() == NewStream(7, mix, 2, 0).Uniform() {
		t.Error("different seeds gave the same stream")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	s := NewStream(1, Mix{Keys: 8192, Zipf: true}, 1, 0)
	counts := map[uint64]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[s.Next().Key]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// YCSB's zipfian (theta 0.99) gives the hottest of 8192 items
	// about a tenth of the draws; uniform would give it 0.01 %.
	if top < n/20 {
		t.Errorf("hottest key drew %d of %d operations; not zipfian", top, n)
	}
}

func TestStampRoundTrip(t *testing.T) {
	k, v, ok := Stamp(Value(42, 7))
	if !ok || k != 42 || v != 7 {
		t.Fatalf("Stamp(Value(42, 7)) = %d, %d, %v", k, v, ok)
	}
	bad := Value(42, 7)
	bad[9] ^= 1
	if _, _, ok := Stamp(bad); ok {
		t.Error("a value with a flipped version bit still passes the check word")
	}
	var b Batch
	b.Put(1, 2)
	b.Get(3)
	if got, want := string(b.Body()), `{"puts":[{"key":1,"value_b64":"`; len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("batch body %q", got)
	}
}
