// Concurrent verified reads: the read view.
//
// A Controller is single-writer (the busy guard), but BMT
// verification is a pure function of device contents, the metadata
// cache, and the root register — none of which change while no
// guarded operation is running. ReadBlockConcurrent exploits that:
// any number of reader goroutines snapshot the counter/tree chain for
// a block under short read-lock sections (the snapshot source of the
// one verified-read walk, see climb), then hash, MAC-check, and
// decrypt entirely outside the lock on private copies, while the
// owner goroutine keeps exclusive write access through the unchanged
// enter()/exit() protocol.
//
// The protocol is a lock-assisted seqlock. Every guarded operation
// takes viewMu exclusively and bumps viewSeq once on entry, so:
//
//   - a snapshot section that holds viewMu.RLock observes a fully
//     consistent controller (writers are excluded for the section);
//   - two sections whose viewSeq loads agree are mutually consistent
//     (no writer ran between them), so verification failures against
//     the combined snapshot are genuine integrity violations;
//   - a seq change between sections is a benign conflict: the reader
//     retries, and after maxViewRetries abandons the attempt with
//     ErrViewConflict so the caller can fall back to the owner's
//     serialized queue.
//
// Readers never block on viewMu — TryRLock only. The owner may hold
// the lock for a long time (recovery, heal, checkpoint), and a reader
// sleeping on the mutex would defeat the fallback path's purpose.
//
// Invariants (documented in DESIGN.md §3.4):
//
//  1. A reader acks only data whose counter chain hashes to a trust
//     anchor (root register, policy anchor, or cache-resident node)
//     captured in the same consistent snapshot, and whose data MAC
//     matches under the captured counters. There is no unverified
//     fast path.
//  2. Readers mutate nothing: cache probes (Probe, not Access),
//     device peeks (PeekInto, not Read), and private atomics only
//     (the peeks are counted in one of them, viewFetches).
//     Consequently the simulated clock, LRU state, and Stats are
//     untouched — simulated timing remains a property of the
//     serialized path.
//  3. Policy read hooks must be pure for a policy to opt in
//     (ConcurrentReadSafe): OnDataRead a no-op and AnchorContent a
//     plain read of writer-locked state. Indirect (whose reads
//     charge a shadow-table fetch) opts out and always serializes.
package mee

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"amnt/internal/counters"
	"amnt/internal/scm"
)

// ErrViewConflict reports that a concurrent read could not obtain a
// consistent snapshot (writer activity on every attempt). The read
// was not performed; callers should retry on the serialized path.
var ErrViewConflict = errors.New("mee: concurrent read view conflict")

// ErrViewUnsupported reports that the attached policy's read hooks
// are not pure, so reads must use the serialized ReadBlock path.
var ErrViewUnsupported = errors.New("mee: policy does not support concurrent reads")

// maxViewRetries is how many snapshot attempts a concurrent read
// makes before abandoning to the serialized path.
const maxViewRetries = 4

// ConcurrentReadsSupported reports whether ReadBlockConcurrent may be
// used with the attached policy (true when its read-path hooks are
// pure; see the package comment above).
func (c *Controller) ConcurrentReadsSupported() bool { return c.viewOK }

// ConcurrentReadStats returns the view counters: verified reads
// served off the view, snapshot retries (seq conflicts), and reads
// abandoned to the serialized path.
func (c *Controller) ConcurrentReadStats() (reads, retries, conflicts uint64) {
	return c.viewReads.Load(), c.viewRetries.Load(), c.viewConflicts.Load()
}

// MetaFetches returns how many metadata blocks (counter, tree, HMAC)
// have been fetched from the device: the serialized path's
// Stats.MetaFetches (owner-written and unsynchronized, like the rest
// of Stats) plus the read view's own device peeks.
func (c *Controller) MetaFetches() uint64 { return c.st.MetaFetches.Value() + c.viewFetches.Load() }

// ViewMetaFetches returns the metadata blocks the read view fetched
// from the device. Safe from any goroutine.
func (c *Controller) ViewMetaFetches() uint64 { return c.viewFetches.Load() }

// viewScratch is the private memory of one snapshot attempt: a
// snapshot chain (see climb) and the data block's ciphertext and HMAC
// block. Hashing goes through the cme.Hasher interface, so these
// buffers cannot live on the reader's stack; the pool keeps them (and
// the chain's grown links) off the allocator.
type viewScratch struct {
	chain       chain
	ct, hmacBlk [scm.BlockSize]byte
}

var viewScratchPool = sync.Pool{New: func() any { return &viewScratch{chain: chain{snapshot: true}} }}

// ReadBlockConcurrent performs a verified read of data block b into
// dst (BlockSize bytes) without claiming the single-writer guard, so
// it may run from any number of goroutines concurrently with the
// owner's writes. It returns the number of snapshot retries the read
// needed (0 on first-attempt success).
//
// Errors: ErrViewUnsupported (policy opted out), ErrRecovering (an
// online recovery session owns the tree), ErrViewConflict (writer
// activity on every attempt — retry on the serialized path), or
// *IntegrityError (genuine verification failure). Unlike ReadBlock it
// returns no cycle count: the concurrent path is untimed (invariant 2).
func (c *Controller) ReadBlockConcurrent(b uint64, dst []byte) (int, error) {
	if len(dst) != scm.BlockSize {
		panic("mee: ReadBlockConcurrent buffer must be BlockSize bytes")
	}
	if !c.viewOK {
		return 0, ErrViewUnsupported
	}
	if b >= c.dev.DataBlocks() {
		return 0, fmt.Errorf("mee: read of block %d beyond capacity (%d blocks)", b, c.dev.DataBlocks())
	}
	retries := 0
	for attempt := 0; attempt <= maxViewRetries; attempt++ {
		if attempt > 0 {
			runtime.Gosched()
		}
		done, err := c.tryViewRead(b, dst, attempt)
		if done {
			if err == nil {
				c.viewReads.Add(1)
			}
			return retries, err
		}
		// Seq conflict or writer-held lock: retry the snapshot.
		if err == errViewRetry {
			retries++
			c.viewRetries.Add(1)
		}
	}
	c.viewConflicts.Add(1)
	return retries, ErrViewConflict
}

// errViewRetry distinguishes a seq conflict (snapshot invalidated by
// a writer between sections) from a TryRLock failure (writer holding
// the lock) in tryViewRead's not-done result. Internal only.
var errViewRetry = errors.New("mee: view snapshot invalidated")

// tryViewRead makes one snapshot attempt. done=false means retry
// (err tells which flavor); done=true means the read finished with
// err (nil on success).
func (c *Controller) tryViewRead(b uint64, dst []byte, attempt int) (done bool, err error) {
	// Section 1: capture the counter chain up to a trust anchor.
	if !c.viewMu.TryRLock() {
		return false, nil
	}
	if c.session != nil {
		c.viewMu.RUnlock()
		return true, ErrRecovering
	}
	if !c.dev.Contains(scm.Data, b) {
		// First touch: the block was never written and reads as
		// zeroes without verification, exactly like readBlock.
		c.viewMu.RUnlock()
		clear(dst)
		return true, nil
	}
	sc := viewScratchPool.Get().(*viewScratch)
	defer viewScratchPool.Put(sc)
	c.climb(&sc.chain, c.geo.Levels, counters.CounterIndex(b)) // a snapshot climb cannot fail
	seq1 := c.viewSeq.Load()
	c.viewMu.RUnlock()
	c.viewFetches.Add(uint64(len(sc.chain.links))) // every link was peeked

	if c.viewHook != nil {
		c.viewHook(attempt)
	}

	// Section 2: capture the ciphertext and its HMAC block.
	if !c.viewMu.TryRLock() {
		return false, nil
	}
	ct, hmacBlk := &sc.ct, &sc.hmacBlk
	c.dev.PeekInto(scm.Data, b, ct[:])
	hmacKey := HMACKey(b / hmacSlotsPerBlock)
	if content := c.cached(hmacKey); content != nil {
		copy(hmacBlk[:], content)
	} else {
		c.dev.PeekInto(scm.HMAC, b/hmacSlotsPerBlock, hmacBlk[:])
		c.viewFetches.Add(1)
	}
	seq2 := c.viewSeq.Load()
	c.viewMu.RUnlock()

	if seq1 != seq2 {
		return false, errViewRetry
	}

	// Verification and decryption: lock-free, on private copies. The
	// two sections agree on seq, so together they form one consistent
	// snapshot — any mismatch below is a genuine integrity violation.
	ctrContent, _, err := c.descend(&sc.chain, 0, 0)
	if err != nil {
		return true, err
	}
	ctr := counters.Decode(ctrContent)
	return true, c.openData(b, &ctr, hmacBlk[:], ct[:], dst)
}
