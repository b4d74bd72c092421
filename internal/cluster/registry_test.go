package cluster

import (
	"testing"
	"time"
)

// TestRegistrySweepReassignsOrphans drives the pulse/TTL machinery:
// a node that stops pulsing is marked down, every one of its
// partitions is reassigned to a surviving node and tracked as
// pending until AdoptDone, and partitions owned by live nodes never
// move.
func TestRegistrySweepReassignsOrphans(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := members(3)
	reg := NewRegistry(InitialState(64, 0, ms), time.Second, t0)

	// All three pulse at t0+500ms; no sweep work.
	t1 := t0.Add(500 * time.Millisecond)
	for _, m := range ms {
		if _, err := reg.Pulse(m.ID, "ok", t1); err != nil {
			t.Fatalf("pulse %s: %v", m.ID, err)
		}
	}
	if got := reg.Sweep(t1); got != nil {
		t.Fatalf("sweep with fresh pulses reassigned %v", got)
	}
	epoch0 := reg.State().Epoch

	// node-1 goes silent; the others keep pulsing past the TTL.
	t2 := t1.Add(1500 * time.Millisecond)
	reg.Pulse("node-0", "ok", t2)
	reg.Pulse("node-2", "ok", t2)
	before := reg.State()
	dead := OwnedBy(before, "node-1")
	if len(dead) == 0 {
		t.Fatal("node-1 owned nothing; test vacuous")
	}
	moves := reg.Sweep(t2)
	if len(moves) != len(dead) {
		t.Fatalf("sweep reassigned %d partitions, want %d (node-1's)", len(moves), len(dead))
	}
	after := reg.State()
	if after.Epoch <= epoch0 {
		t.Fatalf("sweep did not advance the epoch: %d -> %d", epoch0, after.Epoch)
	}
	for _, mv := range moves {
		if mv.From != "node-1" {
			t.Fatalf("sweep moved partition %d owned by live node %s", mv.Partition, mv.From)
		}
		if mv.To == "node-1" || mv.To == "" {
			t.Fatalf("partition %d reassigned to %q", mv.Partition, mv.To)
		}
		if mv.ToAddr == "" {
			t.Fatalf("reassign %d carries no adopter address", mv.Partition)
		}
	}
	for p, owner := range before.Assign {
		if owner != "node-1" && after.Assign[p] != owner {
			t.Fatalf("live partition %d moved %s→%s during sweep", p, owner, after.Assign[p])
		}
	}

	// Pending gating: the view routes the orphans as adopting until
	// AdoptDone; a second sweep does not reassign them again.
	v := reg.View()
	if len(v.Pending) != len(moves) {
		t.Fatalf("view tracks %d pending, want %d", len(v.Pending), len(moves))
	}
	if st := v.Status["node-1"]; st.Alive {
		t.Fatal("dead node still marked alive in the view")
	}
	if again := reg.Sweep(t2.Add(10 * time.Millisecond)); again != nil {
		t.Fatalf("second sweep re-reassigned %v", again)
	}
	for _, mv := range moves {
		reg.AdoptDone(mv.Partition, t2)
	}
	if v := reg.View(); len(v.Pending) != 0 {
		t.Fatalf("pending not cleared after AdoptDone: %v", v.Pending)
	}

	// The dead node pulsing again revives it (epoch bump) but does
	// not claw back partitions.
	epoch1 := reg.State().Epoch
	if _, err := reg.Pulse("node-1", "ok", t2.Add(time.Second)); err != nil {
		t.Fatalf("revival pulse: %v", err)
	}
	st := reg.State()
	if st.Epoch <= epoch1 {
		t.Fatal("revival did not advance the epoch")
	}
	if got := OwnedBy(st, "node-1"); len(got) != 0 {
		t.Fatalf("revived node clawed back partitions %v", got)
	}
}

// TestRegistryFlip pins the planned-migration ownership flip.
func TestRegistryFlip(t *testing.T) {
	t0 := time.Unix(0, 0)
	reg := NewRegistry(InitialState(8, 0, members(2)), time.Second, t0)
	st := reg.State()
	part := OwnedBy(st, "node-0")[0]
	if err := reg.Flip(part, "node-1", t0); err != nil {
		t.Fatalf("flip: %v", err)
	}
	if got := reg.State().Owner(part); got != "node-1" {
		t.Fatalf("owner after flip = %q", got)
	}
	if err := reg.Flip(part, "ghost", t0); err == nil {
		t.Fatal("flip to unknown node accepted")
	}
	if err := reg.Flip(999, "node-1", t0); err == nil {
		t.Fatal("flip of unknown partition accepted")
	}
}

// TestClientInstallNewerOnly pins the client's ring adoption: it
// routes by the installed state, a newer state replaces it, and a
// same-or-older state is ignored.
func TestClientInstallNewerOnly(t *testing.T) {
	s := InitialState(16, 0, members(2))
	c := NewClient(s)
	part := OwnedBy(s, "node-0")[0]
	key := uint64(part) // key%16 == part for part < 16

	id, _, err := c.Route(key)
	if err != nil || id != "node-0" {
		t.Fatalf("route = %s, %v; want node-0", id, err)
	}
	// A newer state that moves the partition is installed and routed.
	s2 := s.Clone()
	s2.Epoch = s.Epoch + 1
	s2.Assign[part] = "node-1"
	if !c.Install(s2) {
		t.Fatal("newer state not installed")
	}
	if id, addr, _ := c.Route(key); id != "node-1" || addr != s.Addr("node-1") {
		t.Fatalf("route after install = %s@%s, want node-1@%s", id, addr, s.Addr("node-1"))
	}
	// Same-or-older epochs never reinstall.
	if c.Install(s) || c.Install(s2) {
		t.Fatal("older or same-epoch state installed")
	}
	if id, _, _ := c.Route(key); id != "node-1" {
		t.Fatalf("route after refused install = %s, want node-1", id)
	}
	// A client with no state routes nothing until one is installed.
	empty := NewClient(nil)
	if _, _, err := empty.Route(key); err == nil {
		t.Fatal("stateless client routed a key")
	}
	if !empty.Install(s) {
		t.Fatal("first state not installed")
	}
}
