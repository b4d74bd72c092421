package mee

import "testing"

func TestWriteQueuePostNoPressure(t *testing.T) {
	q := newWriteQueue(4, 100)
	if stall, _ := q.post(0, 1); stall != 0 {
		t.Fatalf("first post stalled %d cycles", stall)
	}
	if stall, _ := q.post(10, 2); stall != 0 {
		t.Fatalf("second post stalled %d cycles", stall)
	}
	if q.pendingCount(10) != 2 {
		t.Fatalf("pending = %d, want 2", q.pendingCount(10))
	}
}

func TestWriteQueueFullStalls(t *testing.T) {
	q := newWriteQueue(2, 100)
	q.post(0, 1) // completes at 100
	q.post(0, 2) // completes at 200
	stall, _ := q.post(0, 3)
	if stall != 100 {
		t.Fatalf("stall = %d, want 100 (until the oldest drains)", stall)
	}
}

func TestWriteQueueCoalescing(t *testing.T) {
	q := newWriteQueue(2, 100)
	q.post(0, 7)
	// A second write to the same pending address merges for free even
	// though the queue would otherwise be at capacity soon.
	if stall, merged := q.post(0, 7); stall != 0 || !merged {
		t.Fatalf("coalesced write: stall=%d merged=%v", stall, merged)
	}
	if q.mergedWrites() != 1 {
		t.Fatalf("merged = %d, want 1", q.mergedWrites())
	}
	if q.pendingCount(0) != 1 {
		t.Fatalf("pending = %d, want 1 (merged)", q.pendingCount(0))
	}
	// Once drained, the same address enqueues afresh.
	if _, merged := q.post(1000, 7); merged {
		t.Fatal("post after drain should not merge")
	}
}

func TestWriteQueueDrainsOverTime(t *testing.T) {
	q := newWriteQueue(2, 100)
	q.post(0, 1)
	q.post(0, 2)
	// At time 500 everything has drained; no stall.
	if stall, _ := q.post(500, 3); stall != 0 {
		t.Fatalf("stall after drain = %d", stall)
	}
	if q.pendingCount(500) != 1 {
		t.Fatalf("pending = %d, want 1", q.pendingCount(500))
	}
}

func TestWriteQueueBlockWaitsForCompletion(t *testing.T) {
	q := newWriteQueue(8, 100)
	wait := q.block(0)
	if wait != 100 {
		t.Fatalf("blocking write wait = %d, want 100", wait)
	}
	// Back-to-back blocking writes serialize on the drain rate.
	wait = q.block(100)
	if wait != 100 {
		t.Fatalf("second blocking wait = %d, want 100", wait)
	}
	// A blocking write behind a posted backlog waits for its turn.
	q2 := newWriteQueue(8, 100)
	q2.post(0, 1)
	q2.post(0, 2)
	wait = q2.block(0)
	if wait != 300 {
		t.Fatalf("blocked behind backlog wait = %d, want 300", wait)
	}
}

func TestWriteQueueReset(t *testing.T) {
	q := newWriteQueue(2, 100)
	q.post(0, 1)
	q.post(0, 2)
	q.reset()
	if q.pendingCount(0) != 0 {
		t.Fatal("pending after reset")
	}
	if stall, _ := q.post(0, 1); stall != 0 {
		t.Fatal("stall after reset")
	}
}

func TestWriteQueueZeroDepthClamped(t *testing.T) {
	q := newWriteQueue(0, 10)
	if len(q.ring) != 1 {
		t.Fatalf("depth = %d, want clamp to 1", len(q.ring))
	}
}

// TestWriteQueueNoAllocs pins the queue off the heap: a warm queue
// admits, coalesces, stalls, blocks and retires — wrapping its ring
// many times over — without allocating.
func TestWriteQueueNoAllocs(t *testing.T) {
	q := newWriteQueue(4, 100)
	now, key := uint64(0), uint64(0)
	var stalls uint64
	step := func() {
		key++
		s, _ := q.post(now, key)
		stalls += s
		switch key % 5 {
		case 0:
			q.block(now)
		case 1:
			q.post(now, key) // still pending: merges
		}
		now += 60 // slower than the drain rate: the queue fills and stalls
	}
	for i := 0; i < 100; i++ {
		step() // warm-up: the occupancy histogram has seen every depth
	}
	if allocs := testing.AllocsPerRun(10_000, step); allocs != 0 {
		t.Fatalf("%v allocations per write-queue operation, want 0", allocs)
	}
	if stalls == 0 || q.mergedWrites() == 0 || q.occupancy().Count(4) == 0 {
		t.Fatalf("stalls=%d merged=%d full-admits=%d: a path did not run", stalls, q.mergedWrites(), q.occupancy().Count(4))
	}
	// The survivors come out oldest first across the ring's seam.
	q.reset()
	q.head = 3
	for k := uint64(10); k < 14; k++ {
		q.post(0, k)
	}
	if got := q.inFlight(0); len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Fatalf("inFlight across the seam = %v, want [10 11 12 13]", got)
	}
}
