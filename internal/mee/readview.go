// Concurrent verified reads: the read view.
//
// A Controller is single-writer (the busy guard), but BMT
// verification is a pure function of device contents, the metadata
// cache, and the root register — none of which change while no
// guarded operation is running. ReadBlockConcurrent exploits that:
// any number of reader goroutines snapshot the counter/tree chain for
// a block under short read-lock sections, then hash, MAC-check, and
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
// Invariants (documented for DESIGN.md §15):
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

	"amnt/internal/bmt"
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

// ViewSeq returns the current read-view sequence number. It advances
// once per guarded top-level operation.
func (c *Controller) ViewSeq() uint64 { return c.viewSeq.Load() }

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

// viewChainLevels is the chain length a pooled snapshot holds: a tree
// this deep covers 8^11 pages (32 TiB). Deeper trees still work;
// append grows the chain past the pooled array.
const viewChainLevels = 12

// viewScratch is the private memory of one snapshot attempt. Hashing
// goes through the cme.Hasher interface, so these buffers cannot live
// on the reader's stack; the pool keeps them off the allocator.
type viewScratch struct {
	chain       [viewChainLevels]viewNode
	ct, hmacBlk [scm.BlockSize]byte
}

var viewScratchPool = sync.Pool{New: func() any { return new(viewScratch) }}

// viewNode is one captured link of a counter/tree chain: the node's
// position plus a private copy of its content. The last node of a
// chain is trusted (root register, policy anchor, or cache-resident);
// every earlier node must hash into its successor.
type viewNode struct {
	level   int
	idx     uint64
	content [scm.BlockSize]byte
}

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
		for i := range dst {
			dst[i] = 0
		}
		return true, nil
	}
	sc := viewScratchPool.Get().(*viewScratch)
	defer viewScratchPool.Put(sc)
	chain := sc.chain[:0]
	level, idx := c.geo.Levels, counters.CounterIndex(b)
	for {
		node := viewNode{level: level, idx: idx}
		if trusted := c.captureNode(&node); trusted {
			chain = append(chain, node)
			break
		}
		chain = append(chain, node)
		level, idx = bmt.Parent(level, idx)
	}
	seq1 := c.viewSeq.Load()
	c.viewMu.RUnlock()
	// Every link but the trusted last one came from the device.
	c.viewFetches.Add(uint64(len(chain) - 1))

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
	for i := len(chain) - 2; i >= 0; i-- {
		want := bmt.ChildDigest(chain[i+1].content[:], bmt.ChildSlot(chain[i].idx))
		got := bmt.Hash(c.eng, chain[i].level, chain[i].content[:])
		if got != want {
			region := "tree"
			if chain[i].level == c.geo.Levels {
				region = "counter"
			}
			return true, &IntegrityError{
				What: fmt.Sprintf("%s node level %d (concurrent read)", region, chain[i].level),
				Addr: chain[i].idx,
			}
		}
	}
	blk := counters.Decode(chain[0].content[:])
	major, minor := blk.Get(counters.MinorSlot(b))
	stored := bmt.ChildDigest(hmacBlk[:], int(b%hmacSlotsPerBlock))
	computed := c.eng.MAC(dataAddr(b), major, minor, ct[:])
	if stored != computed {
		return true, &IntegrityError{What: "data HMAC mismatch (concurrent read)", Addr: dataAddr(b)}
	}
	c.eng.Decrypt(dataAddr(b), major, minor, dst, ct[:])
	return true, nil
}

// captureNode copies the content of tree node (node.level, node.idx)
// into node.content, reporting whether the copy is trusted (root
// register, policy anchor, or metadata-cache resident — the same
// trust ladder as FetchVerified). Untrusted copies come from the
// device (absent tree nodes synthesize the zero node) and must be
// authenticated against their captured parent. Caller holds
// viewMu.RLock.
func (c *Controller) captureNode(node *viewNode) (trusted bool) {
	if node.level == 1 {
		copy(node.content[:], c.rootNV[:])
		return true
	}
	if content, ok := c.policy.AnchorContent(node.level, node.idx); ok {
		copy(node.content[:], content)
		return true
	}
	key := c.metaKeyFor(node.level, node.idx)
	if content := c.cached(key); content != nil {
		copy(node.content[:], content)
		return true
	}
	region, devIdx := key.region()
	if !c.dev.PeekInto(region, devIdx, node.content[:]) && region == scm.Tree {
		node.content = c.zeroNode[node.level]
	}
	return false
}
