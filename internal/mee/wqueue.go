package mee

import "amnt/internal/stats"

// writeQueue models the SCM write path: a bounded queue of in-flight
// writes drained at a fixed service rate, with address coalescing —
// a write to an address that is already pending merges into the
// existing entry, exactly as an ADR-covered write-pending queue
// combines repeated updates to the same metadata block. Posted writes
// stall the CPU only when the queue is full; blocking persists
// (strict-path tree writes, Anubis shadow-table updates) additionally
// wait for their own completion, which is what makes strict
// persistence expensive on write-intensive workloads while leaf-style
// counter/HMAC persists stay nearly free.
type writeQueue struct {
	drainCycles uint64
	noCoalesce  bool
	// ring holds the n in-flight writes in FIFO completion order,
	// oldest at head; its length is the queue depth.
	ring     []wqEntry
	head, n  int
	lastDone uint64
	merged   uint64
	// occ samples the queue occupancy seen by each admitted write
	// (after retirement, before insertion), so the distribution shows
	// how close the queue runs to its depth.
	occ *stats.Histogram
}

type wqEntry struct {
	done uint64
	key  uint64
	// tracked is false for barrier entries with no address.
	tracked bool
}

func newWriteQueue(depth int, drainCycles uint64) *writeQueue {
	if depth <= 0 {
		depth = 1
	}
	return &writeQueue{
		drainCycles: drainCycles,
		ring:        make([]wqEntry, depth),
		occ:         stats.NewHistogram(),
	}
}

// at returns the i-th oldest in-flight entry.
func (q *writeQueue) at(i int) *wqEntry {
	return &q.ring[(q.head+i)%len(q.ring)]
}

// pop drops the oldest entry.
func (q *writeQueue) pop() {
	q.head = (q.head + 1) % len(q.ring)
	q.n--
}

// retire drops entries completed by now.
func (q *writeQueue) retire(now uint64) {
	for q.n > 0 && q.ring[q.head].done <= now {
		q.pop()
	}
}

// pending reports whether a tracked write to key is in flight.
func (q *writeQueue) pending(key uint64) bool {
	for i := 0; i < q.n; i++ {
		if e := q.at(i); e.tracked && e.key == key {
			return true
		}
	}
	return false
}

// post enqueues a write to key at absolute time now, returning stall
// cycles (non-zero only on queue back-pressure) and whether the write
// coalesced into an already-pending entry for the same address.
func (q *writeQueue) post(now uint64, key uint64) (stall uint64, merged bool) {
	q.retire(now)
	if !q.noCoalesce && q.pending(key) {
		q.merged++
		return 0, true
	}
	stall, _ = q.admit(now, key, true)
	return stall, false
}

// block enqueues a write at time now and waits for its completion,
// returning the total cycles until it is durable.
func (q *writeQueue) block(now uint64) (wait uint64) {
	q.retire(now)
	stall, done := q.admit(now, 0, false)
	completion := now + stall
	if done > completion {
		return done - now
	}
	return stall
}

// admit performs the shared enqueue logic.
func (q *writeQueue) admit(now uint64, key uint64, tracked bool) (stall, done uint64) {
	q.occ.Observe(uint64(q.n))
	if q.n == len(q.ring) {
		head := q.ring[q.head]
		stall = head.done - now
		now = head.done
		q.pop()
	}
	start := now
	if q.lastDone > start {
		start = q.lastDone
	}
	done = start + q.drainCycles
	q.lastDone = done
	q.n++
	*q.at(q.n - 1) = wqEntry{done: done, key: key, tracked: tracked}
	return stall, done
}

// inFlight returns the address keys of tracked writes still pending
// at time now, oldest first. Barrier entries (no address) are skipped.
func (q *writeQueue) inFlight(now uint64) []uint64 {
	var keys []uint64
	for i := 0; i < q.n; i++ {
		if e := q.at(i); e.tracked && e.done > now {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// pendingCount returns the number of in-flight writes at time now.
func (q *writeQueue) pendingCount(now uint64) int {
	n := 0
	for i := 0; i < q.n; i++ {
		if q.at(i).done > now {
			n++
		}
	}
	return n
}

// mergedWrites returns how many posted writes coalesced into pending
// entries.
func (q *writeQueue) mergedWrites() uint64 { return q.merged }

// occupancy returns the admit-time occupancy distribution. Statistics
// survive reset, like cache statistics survive a crash.
func (q *writeQueue) occupancy() *stats.Histogram { return q.occ }

// reset clears all in-flight state (crash: queued writes in our
// functional model were already applied to the device at issue time,
// so reset only affects timing).
func (q *writeQueue) reset() {
	q.head, q.n, q.lastDone = 0, 0, 0
}
