package cache

import (
	"sort"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways = 8 lines of 64 B.
	return New(Config{Name: "t", SizeBytes: 8 * 64, LineBytes: 64, Assoc: 2, HitCycles: 2})
}

func TestGeometry(t *testing.T) {
	c := small()
	if c.Lines() != 8 {
		t.Fatalf("lines = %d, want 8", c.Lines())
	}
	if c.HitCycles() != 2 {
		t.Fatalf("hit cycles = %d", c.HitCycles())
	}
	if c.Config().Name != "t" {
		t.Fatalf("name = %q", c.Config().Name)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, LineBytes: 64, Assoc: 2},
		{SizeBytes: 128, LineBytes: 64, Assoc: 0},
		{SizeBytes: 64, LineBytes: 64, Assoc: 2}, // 1 line, not divisible by 2 ways
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New accepted bad geometry %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _, _, _ := c.Access(100, false); hit {
		t.Fatal("first access hit")
	}
	if hit, _, _, _ := c.Access(100, false); !hit {
		t.Fatal("second access missed")
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", c.HitRate())
	}
	if c.Accesses() != 2 {
		t.Fatalf("accesses = %d", c.Accesses())
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Keys 0, 4, 8 all map to set 0 (4 sets). Assoc 2.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 is now MRU, 4 is LRU
	hit, _, victim, evicted := c.Access(8, false)
	if hit {
		t.Fatal("unexpected hit")
	}
	if !evicted || victim.Key != 4 {
		t.Fatalf("victim = %+v, want key 4", victim)
	}
	if victim.Dirty {
		t.Fatal("clean victim reported dirty")
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Fatal("residency after eviction wrong")
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d", c.Evictions())
	}
}

func TestDirtyVictim(t *testing.T) {
	c := small()
	c.Access(0, true)
	c.Access(4, false)
	_, _, victim, evicted := c.Access(8, false) // evicts 0 (LRU after 4 inserted? no: MRU order 4,0)
	if !evicted {
		t.Fatal("no victim")
	}
	if victim.Key != 0 || !victim.Dirty {
		t.Fatalf("victim = %+v, want dirty key 0", victim)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := small()
	c.Access(1, false)
	if l := c.Lookup(1); l == nil || l.Dirty {
		t.Fatal("read access should not be dirty")
	}
	c.Access(1, true)
	if l := c.Lookup(1); l == nil || !l.Dirty {
		t.Fatal("write access should mark dirty")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(4, false) // MRU: 4, LRU: 0
	// Probing 0 must not promote it.
	if !c.Probe(0) {
		t.Fatal("probe missed resident key")
	}
	_, _, victim, evicted := c.Access(8, false)
	if !evicted || victim.Key != 0 {
		t.Fatalf("probe perturbed LRU: victim %+v", victim)
	}
	if c.Accesses() != 3 {
		t.Fatal("probe counted as access")
	}
}

func TestLookupAux(t *testing.T) {
	c := small()
	c.Access(2, false)
	l := c.Lookup(2)
	if l == nil {
		t.Fatal("lookup failed")
	}
	l.Aux = 77
	if c.Lookup(2).Aux != 77 {
		t.Fatal("aux not persisted")
	}
	// Aux travels with the victim.
	c.Access(6, false)
	c.Access(10, false)
	if c.Lookup(99) != nil {
		t.Fatal("lookup of absent key should be nil")
	}
}

func TestAuxOnVictim(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Lookup(0).Aux = 42
	c.Access(4, false)
	_, _, victim, evicted := c.Access(8, false) // evicts 0
	if !evicted || victim.Key != 0 || victim.Aux != 42 {
		t.Fatalf("victim = %+v, want key 0 aux 42", victim)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(3, true)
	present, dirty := c.Invalidate(3)
	if !present || !dirty {
		t.Fatalf("invalidate = %v/%v, want true/true", present, dirty)
	}
	if c.Probe(3) {
		t.Fatal("key still resident after invalidate")
	}
	present, _ = c.Invalidate(3)
	if present {
		t.Fatal("second invalidate should report absent")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := small()
	for k := uint64(0); k < 8; k++ {
		c.Access(k, true)
	}
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Fatalf("len after InvalidateAll = %d", c.Len())
	}
	if c.Accesses() != 8 {
		t.Fatal("InvalidateAll should preserve stats")
	}
}

func TestCleanAndDirtyKeys(t *testing.T) {
	c := small()
	c.Access(0, true)
	c.Access(1, true)
	c.Access(2, false)
	dirty := c.DirtyKeys(nil)
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 1 {
		t.Fatalf("dirty keys = %v", dirty)
	}
	filtered := c.DirtyKeys(func(k uint64) bool { return k == 1 })
	if len(filtered) != 1 || filtered[0] != 1 {
		t.Fatalf("filtered dirty keys = %v", filtered)
	}
	if !c.Clean(0) {
		t.Fatal("clean of dirty line returned false")
	}
	if c.Clean(0) {
		t.Fatal("clean of clean line returned true")
	}
	if c.Clean(99) {
		t.Fatal("clean of absent line returned true")
	}
	if len(c.DirtyKeys(nil)) != 1 {
		t.Fatal("dirty count after clean wrong")
	}
}

func TestFlushDirty(t *testing.T) {
	c := small()
	c.Access(0, true)
	c.Access(1, true)
	keys := c.FlushDirty(nil)
	if len(keys) != 2 {
		t.Fatalf("flushed %d keys", len(keys))
	}
	if len(c.DirtyKeys(nil)) != 0 {
		t.Fatal("dirty lines remain after flush")
	}
	if c.Len() != 2 {
		t.Fatal("flush must not evict lines")
	}
}

func TestKeysAndLen(t *testing.T) {
	c := small()
	c.Access(10, false)
	c.Access(20, false)
	keys := c.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 2 || keys[0] != 10 || keys[1] != 20 {
		t.Fatalf("keys = %v", keys)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestResetStats(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(0, false)
	c.ResetStats()
	if c.Accesses() != 0 || c.HitRate() != 0 || c.Evictions() != 0 {
		t.Fatal("stats not reset")
	}
	if !c.Probe(0) {
		t.Fatal("ResetStats must not drop contents")
	}
}

// Property: residency never exceeds capacity, and a key is resident
// immediately after it is accessed.
func TestCapacityProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		c := small()
		for _, k := range keys {
			c.Access(k, k%2 == 0)
			if !c.Probe(k) {
				return false
			}
			if c.Len() > c.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache and a reference model (per-set LRU lists) agree
// on hits and victims.
func TestLRUReferenceModel(t *testing.T) {
	const sets, assoc = 4, 2
	f := func(keys []uint64) bool {
		c := small()
		ref := make([][]uint64, sets) // MRU first
		for _, k := range keys {
			k %= 32
			si := k % sets
			// Reference lookup.
			refHit := false
			for i, rk := range ref[si] {
				if rk == k {
					refHit = true
					ref[si] = append(ref[si][:i], ref[si][i+1:]...)
					break
				}
			}
			var refVictim *uint64
			if !refHit && len(ref[si]) == assoc {
				v := ref[si][len(ref[si])-1]
				refVictim = &v
				ref[si] = ref[si][:len(ref[si])-1]
			}
			ref[si] = append([]uint64{k}, ref[si]...)

			hit, _, victim, evicted := c.Access(k, false)
			if hit != refHit {
				return false
			}
			if evicted != (refVictim != nil) {
				return false
			}
			if evicted && victim.Key != *refVictim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newWithPolicy(r Replacement) *Cache {
	return New(Config{Name: "p", SizeBytes: 8 * 64, LineBytes: 64, Assoc: 2, HitCycles: 2, Replacement: r})
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Fatal("policy names wrong")
	}
	if Replacement(9).String() != "replacement(9)" {
		t.Fatal("unknown policy name")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := newWithPolicy(FIFO)
	// Keys 0, 4, 8 map to set 0.
	c.Access(0, false)
	c.Access(4, false)
	// Touch 0 again: FIFO must NOT promote it.
	c.Access(0, false)
	_, _, victim, evicted := c.Access(8, false)
	if !evicted || victim.Key != 0 {
		t.Fatalf("FIFO victim = %+v, want first-in key 0", victim)
	}
}

func TestRandomReplacementStaysConsistent(t *testing.T) {
	c := newWithPolicy(Random)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 200; i++ {
		key := (i * 4) % 64
		c.Access(key, i%3 == 0)
		seen[key] = true
		if c.Len() > c.Lines() {
			t.Fatal("over capacity")
		}
		if !c.Probe(key) {
			t.Fatal("just-accessed key not resident")
		}
	}
	// Every resident line must be one we actually inserted, exactly once.
	keys := c.Keys()
	unique := make(map[uint64]bool)
	for _, k := range keys {
		if !seen[k] {
			t.Fatalf("resident key %d never inserted", k)
		}
		if unique[k] {
			t.Fatalf("key %d duplicated in cache", k)
		}
		unique[k] = true
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	run := func() []uint64 {
		c := newWithPolicy(Random)
		for i := uint64(0); i < 100; i++ {
			c.Access((i*4)%64, false)
		}
		keys := c.Keys()
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic residency size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic residency")
		}
	}
}
