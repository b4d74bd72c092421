package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

func migCfg(dir string) Config {
	cfg := Config{
		Shards:        4,
		ShardMemBytes: 1 << 18,
		Protocol:      "amnt",
		QueueDepth:    64,
		BatchMax:      8,
	}
	if dir != "" {
		cfg.CheckpointDir = dir
	}
	return cfg
}

// TestMigratePartitionRoundTrip drives the full hand-off protocol
// between two live stores: checkpoint copy, delta replay under
// concurrent writes, fence, final delta, activate, detach — and
// proves every acknowledged write is readable on the destination.
func TestMigratePartitionRoundTrip(t *testing.T) {
	ctx := context.Background()
	src, err := Open(migCfg(""))
	if err != nil {
		t.Fatalf("open src: %v", err)
	}
	defer src.Close(ctx)
	dstCfg := migCfg("")
	dstCfg.Owned = []int{}
	dst, err := Open(dstCfg)
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	defer dst.Close(ctx)
	if got := dst.Shards(); got != 0 {
		t.Fatalf("empty dst hosts %d shards, want 0", got)
	}

	const part = 2
	val := func(i int) []byte { return []byte(fmt.Sprintf("v-%d", i)) }
	key := func(i int) uint64 { return uint64(part + 4*i) } // all on partition 2
	for i := 0; i < 50; i++ {
		if err := src.Put(ctx, key(i), val(i)); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}

	image, err := src.MigrateBegin(ctx, part)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if len(image) == 0 {
		t.Fatal("empty checkpoint image")
	}
	if err := dst.MigrateAttach(part, bytes.NewReader(image)); err != nil {
		t.Fatalf("attach: %v", err)
	}

	// Writes during the copy are acknowledged by the source and must
	// arrive via the delta journal.
	for i := 50; i < 80; i++ {
		if err := src.Put(ctx, key(i), val(i)); err != nil {
			t.Fatalf("during-copy put %d: %v", i, err)
		}
	}
	ops, remaining, err := src.MigrateDelta(part, 0)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if len(ops) == 0 || remaining != 0 {
		t.Fatalf("delta: %d ops, %d remaining; want >0, 0", len(ops), remaining)
	}
	if err := dst.MigrateApply(part, ops); err != nil {
		t.Fatalf("apply: %v", err)
	}

	if err := src.MigrateFence(ctx, part); err != nil {
		t.Fatalf("fence: %v", err)
	}
	// Fenced writes nack retryable; reads keep serving from the source.
	if err := src.Put(ctx, key(0), []byte("late")); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced put: %v, want ErrFenced", err)
	}
	if v, err := src.Get(ctx, key(0)); err != nil || !bytes.Equal(v, val(0)) {
		t.Fatalf("fenced read: %q, %v", v, err)
	}
	final, remaining, err := src.MigrateDelta(part, 0)
	if err != nil {
		t.Fatalf("final delta: %v", err)
	}
	if remaining != 0 {
		t.Fatalf("final delta left %d ops behind the fence", remaining)
	}
	if err := dst.MigrateApply(part, final); err != nil {
		t.Fatalf("apply final: %v", err)
	}
	if err := dst.MigrateActivate(part); err != nil {
		t.Fatalf("activate: %v", err)
	}
	if err := src.MigrateDetach(ctx, part); err != nil {
		t.Fatalf("detach: %v", err)
	}

	// Ownership moved: the source refuses with the partition id, the
	// destination serves every acknowledged write.
	var notOwned *NotOwnedError
	if _, err := src.Get(ctx, key(0)); !errors.As(err, &notOwned) || notOwned.Partition != part {
		t.Fatalf("post-detach src get: %v, want NotOwnedError{%d}", err, part)
	}
	for i := 0; i < 80; i++ {
		v, err := dst.Get(ctx, key(i))
		if err != nil {
			t.Fatalf("dst get %d: %v", i, err)
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("dst get %d: %q, want %q", i, v, val(i))
		}
	}
	// The destination owns writes now.
	if err := dst.Put(ctx, key(80), val(80)); err != nil {
		t.Fatalf("dst put: %v", err)
	}
	if got := dst.Owned(); len(got) != 1 || got[0] != part {
		t.Fatalf("dst owned = %v, want [%d]", got, part)
	}
}

// TestMigrateFenceNacksQueuedPuts pins the fence cut deterministically
// by acting as the shard worker: a put drained from the queue before
// the fence op is acknowledged and journaled, a put drained after it
// is nacked with ErrFenced — never acknowledged against the stale
// source. FIFO order through the queue is what makes the fence a
// precise boundary between the final delta and refused writes.
func TestMigrateFenceNacksQueuedPuts(t *testing.T) {
	s := &Store{cfg: migCfg("").withDefaults(), staging: map[int]*shard{}}
	sh, err := s.newShard(0)
	if err != nil {
		t.Fatalf("newShard: %v", err)
	}
	sh.inj.Attach()
	s.tab.Store(newShardTable([]*shard{sh}))

	// Begin the migration (journal on) from the worker's seat.
	var img bytes.Buffer
	begin := request{op: opMigrateBegin, migBuf: &img, resp: make(chan response, 1)}
	sh.serveBatch([]request{begin})
	if r := <-begin.resp; r.err != nil {
		t.Fatalf("begin: %v", r.err)
	}

	// One drained batch, in queue order: put A, fence, put B.
	putA := putReq(1, []byte("before"))
	fence := request{op: opMigrateFence, resp: make(chan response, 1)}
	putB := putReq(2, []byte("after"))
	sh.serveBatch([]request{putA, fence, putB})

	if err := firstErr(<-putA.resp); err != nil {
		t.Fatalf("pre-fence put: %v, want ack", err)
	}
	if r := <-fence.resp; r.err != nil {
		t.Fatalf("fence: %v", r.err)
	}
	if r := <-putB.resp; !errors.Is(r.err, ErrFenced) {
		t.Fatalf("post-fence put: %v, want ErrFenced", r.err)
	}
	if n := sh.m[cFencedNacks].Load(); n != 1 {
		t.Fatalf("fenced_nacks = %d, want 1", n)
	}

	// The journal holds exactly the acknowledged write: the fence cut
	// is complete (A present) and sound (B absent).
	ops, remaining, err := s.MigrateDelta(0, 0)
	if err != nil || remaining != 0 {
		t.Fatalf("delta: %v, remaining %d", err, remaining)
	}
	if len(ops) != 1 || ops[0].Block != 1 || !bytes.Equal(ops[0].Value, []byte("before")) {
		t.Fatalf("journal = %+v, want exactly put A", ops)
	}

	// The submit fast path also refuses fenced writes without
	// enqueueing them.
	if err := s.Put(context.Background(), 0, []byte("x")); !errors.Is(err, ErrFenced) {
		t.Fatalf("submit-path fenced put: %v, want ErrFenced", err)
	}
	if n := len(sh.ch); n != 0 {
		t.Fatalf("fenced put reached the queue (len %d)", n)
	}

	// Abort lifts the fence and drops the journal.
	abort := request{op: opMigrateAbort, resp: make(chan response, 1)}
	sh.serveBatch([]request{abort})
	if r := <-abort.resp; r.err != nil {
		t.Fatalf("abort: %v", r.err)
	}
	putC := putReq(3, []byte("resumed"))
	sh.serveBatch([]request{putC})
	if err := firstErr(<-putC.resp); err != nil {
		t.Fatalf("post-abort put: %v", err)
	}
	if _, _, err := s.MigrateDelta(0, 0); !errors.Is(err, ErrNoMigration) {
		t.Fatalf("post-abort delta: %v, want ErrNoMigration", err)
	}
}

// TestAdoptFromCheckpointDir pins the kill-one-node hand-off: a
// partition checkpointed by one store is adopted by another through
// the shared checkpoint directory, recovery-audited, and served.
func TestAdoptFromCheckpointDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	a, err := Open(migCfg(dir))
	if err != nil {
		t.Fatalf("open a: %v", err)
	}
	const part = 1
	key := func(i int) uint64 { return uint64(part + 4*i) }
	for i := 0; i < 40; i++ {
		if err := a.Put(ctx, key(i), []byte(fmt.Sprintf("a-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := a.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Hard stop: no graceful close — the checkpoint is the only truth.
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := a.Close(cctx); err != nil {
		t.Fatalf("close a: %v", err)
	}

	bCfg := migCfg(filepath.Join(dir)) // same shared checkpoint dir
	bCfg.Owned = []int{3}
	b, err := Open(bCfg)
	if err != nil {
		t.Fatalf("open b: %v", err)
	}
	defer b.Close(ctx)
	if err := b.Adopt(part); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	for i := 0; i < 40; i++ {
		v, err := b.Get(ctx, key(i))
		if err != nil {
			t.Fatalf("adopted get %d: %v", i, err)
		}
		if want := fmt.Sprintf("a-%d", i); string(v) != want {
			t.Fatalf("adopted get %d = %q, want %q", i, v, want)
		}
	}
	if err := b.Put(ctx, key(40), []byte("post-adopt")); err != nil {
		t.Fatalf("post-adopt put: %v", err)
	}
	if got := b.Owned(); len(got) != 2 || got[0] != part || got[1] != 3 {
		t.Fatalf("owned = %v, want [1 3]", got)
	}
}
