package mee

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"amnt/internal/scm"
)

// TestReadBlockConcurrentMatchesSerial pins the equivalence contract:
// for every built-in policy, a concurrent read of a quiesced
// controller returns bit-identical data to the serialized ReadBlock,
// including the first-touch zero read.
func TestReadBlockConcurrentMatchesSerial(t *testing.T) {
	for _, p := range allPolicies() {
		t.Run(p.Name(), func(t *testing.T) {
			c := New(testDevice(), tinyCacheConfig(), p)
			if !c.ConcurrentReadsSupported() {
				t.Fatalf("%s: built-in policy should support concurrent reads", p.Name())
			}
			rng := rand.New(rand.NewSource(7))
			written := make([]uint64, 0, 64)
			for i := 0; i < 64; i++ {
				b := uint64(rng.Intn(int(c.Device().DataBlocks())))
				if _, err := c.WriteBlock(0, b, pattern(byte(b))); err != nil {
					t.Fatalf("write %d: %v", b, err)
				}
				written = append(written, b)
			}
			serial := make([]byte, scm.BlockSize)
			conc := make([]byte, scm.BlockSize)
			for _, b := range written {
				if _, err := c.ReadBlock(0, b, serial); err != nil {
					t.Fatalf("serial read %d: %v", b, err)
				}
				retries, err := c.ReadBlockConcurrent(b, conc)
				if err != nil {
					t.Fatalf("concurrent read %d: %v", b, err)
				}
				if retries != 0 {
					t.Fatalf("read %d: %d retries on a quiet controller", b, retries)
				}
				if !bytes.Equal(serial, conc) {
					t.Fatalf("read %d: serial %x != concurrent %x", b, serial[:8], conc[:8])
				}
			}
			// First touch: an unwritten block reads as zeroes on both paths.
			virgin := c.Device().DataBlocks() - 1
			if _, err := c.ReadBlockConcurrent(virgin, conc); err != nil {
				t.Fatalf("first-touch concurrent read: %v", err)
			}
			if !bytes.Equal(conc, make([]byte, scm.BlockSize)) {
				t.Fatalf("first-touch read not zero: %x", conc[:8])
			}
			reads, _, _ := c.ConcurrentReadStats()
			if reads == 0 {
				t.Fatal("view_reads not counted")
			}
		})
	}
}

// TestReadViewFetchAccounting: what the view fetches from the device
// is counted — in its own reader-side counter, folded into
// MetaFetches beside the serialized path's — and a view read leaves
// the allocator alone.
func TestReadViewFetchAccounting(t *testing.T) {
	c := New(testDevice(), tinyCacheConfig(), NewLeaf())
	// One block in each of 64 pages: far more counter leaves and tree
	// nodes than the 16-line cache holds.
	for p := uint64(0); p < 64; p++ {
		if _, err := c.WriteBlock(0, p*64, pattern(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush(0)
	owner := c.Stats().MetaFetches.Value()
	dst := make([]byte, scm.BlockSize)
	for p := uint64(0); p < 64; p++ {
		if _, err := c.ReadBlockConcurrent(p*64, dst); err != nil {
			t.Fatal(err)
		}
	}
	view := c.ViewMetaFetches()
	// Every read needs its counter leaf and its HMAC block; at most 16
	// of those 128 blocks can be cache-resident.
	if view < 128-16 {
		t.Fatalf("64 view reads over a 16-line cache counted %d device fetches", view)
	}
	if c.Stats().MetaFetches.Value() != owner || c.MetaFetches() != owner+view {
		t.Fatalf("MetaFetches = %d, want owner %d + view %d", c.MetaFetches(), owner, view)
	}
}

// TestWarmReadAllocs: a warm verified read allocates nothing on either
// path. One block in each of 64 pages over a 16-line cache, so most
// reads walk their chain from the device up to the root.
func TestWarmReadAllocs(t *testing.T) {
	c := New(testDevice(), tinyCacheConfig(), NewLeaf())
	for p := uint64(0); p < 64; p++ {
		if _, err := c.WriteBlock(0, p*64, pattern(byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush(0)
	dst := make([]byte, scm.BlockSize)
	var p uint64
	paths := map[string]func(b uint64) error{
		"ReadBlock": func(b uint64) error {
			_, err := c.ReadBlock(0, b, dst)
			return err
		},
		"ReadBlockConcurrent": func(b uint64) error {
			_, err := c.ReadBlockConcurrent(b, dst)
			return err
		},
	}
	for name, read := range paths {
		next := func() {
			p = (p + 7) % 64
			if err := read(p * 64); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i := 0; i < 64; i++ {
			next()
		}
		if n := testing.AllocsPerRun(128, next); n != 0 {
			t.Fatalf("warm %s: %v allocs, want 0", name, n)
		}
	}
}

// TestReadViewSeqConflictRetries injects a write between the two
// snapshot sections of the first attempt and proves the reader
// detects the seq change, retries exactly once, and still returns
// correct verified data.
func TestReadViewSeqConflictRetries(t *testing.T) {
	c := New(testDevice(), tinyCacheConfig(), NewLeaf())
	if _, err := c.WriteBlock(0, 3, pattern(3)); err != nil {
		t.Fatal(err)
	}
	fired := 0
	c.viewHook = func(attempt int) {
		if attempt == 0 {
			fired++
			// A write to an unrelated block still bumps the seq.
			if _, err := c.WriteBlock(0, 900, pattern(9)); err != nil {
				t.Errorf("injected write: %v", err)
			}
		}
	}
	dst := make([]byte, scm.BlockSize)
	retries, err := c.ReadBlockConcurrent(3, dst)
	c.viewHook = nil
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if fired != 1 || retries != 1 {
		t.Fatalf("want exactly 1 injected conflict and 1 retry, got fired=%d retries=%d", fired, retries)
	}
	if !bytes.Equal(dst, pattern(3)) {
		t.Fatalf("data after retry: %x", dst[:8])
	}
	if _, r, conflicts := c.ConcurrentReadStats(); r != 1 || conflicts != 0 {
		t.Fatalf("stats: retries=%d conflicts=%d", r, conflicts)
	}
}

// TestReadViewConflictExhaustion makes every attempt conflict and
// asserts the read abandons with ErrViewConflict (the store's cue to
// fall back to the serialized queue path) without returning data.
func TestReadViewConflictExhaustion(t *testing.T) {
	c := New(testDevice(), tinyCacheConfig(), NewLeaf())
	if _, err := c.WriteBlock(0, 3, pattern(3)); err != nil {
		t.Fatal(err)
	}
	c.viewHook = func(int) {
		if _, err := c.WriteBlock(0, 900, pattern(9)); err != nil {
			t.Errorf("injected write: %v", err)
		}
	}
	dst := make([]byte, scm.BlockSize)
	retries, err := c.ReadBlockConcurrent(3, dst)
	c.viewHook = nil
	if !errors.Is(err, ErrViewConflict) {
		t.Fatalf("want ErrViewConflict, got %v", err)
	}
	if retries != maxViewRetries+1 {
		t.Fatalf("want %d retries, got %d", maxViewRetries+1, retries)
	}
	if _, _, conflicts := c.ConcurrentReadStats(); conflicts != 1 {
		t.Fatalf("view_conflicts = %d, want 1", conflicts)
	}
}

// optOutPolicy shadows the base opt-in, standing in for policies
// (like core.Indirect) whose read hooks are not pure.
type optOutPolicy struct{ Leaf }

func (*optOutPolicy) ConcurrentReadSafe() bool { return false }

func TestReadViewUnsupportedPolicy(t *testing.T) {
	c := New(testDevice(), DefaultConfig(), &optOutPolicy{})
	if c.ConcurrentReadsSupported() {
		t.Fatal("opt-out policy reported as supported")
	}
	dst := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlockConcurrent(0, dst); !errors.Is(err, ErrViewUnsupported) {
		t.Fatalf("want ErrViewUnsupported, got %v", err)
	}
}

// TestReadViewDetectsTamper proves the concurrent path offers the
// same integrity guarantee as the serialized one: device tampering
// surfaces as *IntegrityError, never as silently wrong data.
func TestReadViewDetectsTamper(t *testing.T) {
	t.Run("data", func(t *testing.T) {
		c := New(testDevice(), DefaultConfig(), NewLeaf())
		if _, err := c.WriteBlock(0, 3, pattern(1)); err != nil {
			t.Fatal(err)
		}
		c.Device().TamperByte(scm.Data, 3, 5, 0xFF)
		dst := make([]byte, scm.BlockSize)
		_, err := c.ReadBlockConcurrent(3, dst)
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("tampered data read error = %v, want IntegrityError", err)
		}
	})
	// One node of block 3's chain tampered on the device at each level,
	// the counter leaf included: with the cache emptied the walk fetches
	// every rung below the root, and both reads must name the tampered
	// node.
	levels := New(testDevice(), DefaultConfig(), NewLeaf()).Geometry().Levels
	for level := 2; level <= levels; level++ {
		name := fmt.Sprintf("tree-level-%d", level)
		if level == levels {
			name = "counter"
		}
		t.Run(name, func(t *testing.T) {
			c := New(testDevice(), DefaultConfig(), NewLeaf())
			if _, err := c.WriteBlock(0, 3, pattern(1)); err != nil {
				t.Fatal(err)
			}
			c.Flush(0)
			g := c.Geometry()
			idx := g.Ancestor(level, 3/64)
			region, devIdx := c.metaKeyFor(level, idx).region()
			if !c.Device().TamperByte(region, devIdx, 5, 0x40) {
				t.Fatalf("level %d node %d not on the device", level, idx)
			}
			c.MetaCache().InvalidateAll()
			dst := make([]byte, scm.BlockSize)
			var view, owner *IntegrityError
			if _, err := c.ReadBlockConcurrent(3, dst); !errors.As(err, &view) {
				t.Fatalf("concurrent read error = %v, want IntegrityError", err)
			}
			if _, err := c.ReadBlock(0, 3, dst); !errors.As(err, &owner) {
				t.Fatalf("serialized read error = %v, want IntegrityError", err)
			}
			want := fmt.Sprintf("%s node level %d", region, level)
			if *view != *owner || view.What != want || view.Addr != idx {
				t.Fatalf("concurrent %v, serialized %v; want %s at %#x", view, owner, want, idx)
			}
		})
	}
}

// TestReadViewDuringRecoverySession pins the degradation contract:
// while an online recovery session owns the tree, concurrent reads
// refuse with ErrRecovering (the serialized path owns provisional
// loads), and resume as soon as the session finishes.
func TestReadViewDuringRecoverySession(t *testing.T) {
	c := New(testDevice(), DefaultConfig(), NewLeaf())
	for b := uint64(0); b < 64; b++ {
		if _, err := c.WriteBlock(0, b, pattern(byte(b))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash()
	s, err := c.BeginRecovery(0)
	if s == nil {
		t.Fatalf("leaf should support online recovery: %v", err)
	}
	dst := make([]byte, scm.BlockSize)
	if _, err := c.ReadBlockConcurrent(3, dst); !errors.Is(err, ErrRecovering) {
		t.Fatalf("during session: want ErrRecovering, got %v", err)
	}
	for !s.Step(1024) {
	}
	if _, err := s.Finish(0); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if _, err := c.ReadBlockConcurrent(3, dst); err != nil {
		t.Fatalf("after session: %v", err)
	}
	if !bytes.Equal(dst, pattern(3)) {
		t.Fatalf("data after recovery: %x", dst[:8])
	}
}

// TestReadViewHammer is the race-mode equivalence hammer at the
// controller level: one owner goroutine keeps writing versioned,
// block-stamped content while 32 readers verify concurrently. Every
// successful concurrent read must decode to its block's stamp (any
// torn or stale-mixed snapshot would fail the MAC/tree checks or
// decode to garbage), and no read may report an integrity violation.
func TestReadViewHammer(t *testing.T) {
	c := New(testDevice(), tinyCacheConfig(), NewLeaf())
	const blocks = 128
	stampFor := func(b, version uint64) []byte {
		v := make([]byte, scm.BlockSize)
		binary.LittleEndian.PutUint64(v, b)
		binary.LittleEndian.PutUint64(v[8:], version)
		return v
	}
	for b := uint64(0); b < blocks; b++ {
		if _, err := c.WriteBlock(0, b, stampFor(b, 0)); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 32
	const readsPerReader = 400
	var stop atomic.Bool
	var conflicts, served atomic.Uint64
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			dst := make([]byte, scm.BlockSize)
			for i := 0; i < readsPerReader; i++ {
				b := uint64(rng.Intn(blocks))
				_, err := c.ReadBlockConcurrent(b, dst)
				if errors.Is(err, ErrViewConflict) {
					conflicts.Add(1)
					continue // the store would fall back to the queue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d block %d: %w", r, b, err)
					return
				}
				if got := binary.LittleEndian.Uint64(dst); got != b {
					errCh <- fmt.Errorf("reader %d: block %d decoded stamp %d", r, b, got)
					return
				}
				served.Add(1)
			}
		}(r)
	}

	// Owner: 8 write bursts per loop, mimicking a put-epoch cadence.
	rng := rand.New(rand.NewSource(99))
	version := uint64(1)
	// One waiter for the whole run: a goroutine per burst would bury
	// the readers under thousands of runnable waiters on a small host.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for !stop.Load() {
		for w := 0; w < 8; w++ {
			b := uint64(rng.Intn(blocks))
			if _, err := c.WriteBlock(0, b, stampFor(b, version)); err != nil {
				t.Fatalf("owner write: %v", err)
			}
			version++
		}
		// Stop once the readers are done; otherwise give them the gap
		// between epochs that a real owner leaves.
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-done:
			stop.Store(true)
		default:
			runtime.Gosched()
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no reads served off the view")
	}
	t.Logf("served=%d conflicts=%d", served.Load(), conflicts.Load())
}
