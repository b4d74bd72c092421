// Live partition migration: the hand-off primitive that moves one
// partition's shard between stores without losing acknowledged
// writes. The protocol, driven from outside the store (the cluster
// layer speaks it over /v1/migrate):
//
//	source                          destination
//	------                          -----------
//	MigrateBegin(p)   → image    →  MigrateAttach(p, image)
//	  (checkpoint + journal on)       (load + recover + verify, staged)
//	MigrateDelta(p)   → ops      →  MigrateApply(p, ops)     × rounds
//	MigrateFence(p)                   (replay journaled writes)
//	  (writes nack ErrFenced)
//	MigrateDelta(p)   → final    →  MigrateApply(p, final)
//	                                MigrateActivate(p)
//	  (ring ownership flips here)
//	MigrateDetach(p)
//
// The image is the shard's checkpoint — recovery on the destination
// rebuilds and audits the integrity tree from it, so the hand-off
// inherits the paper's recovery guarantees instead of trusting the
// wire. Writes acknowledged during the copy are journaled and
// replayed; the fence closes the journal with a precise cut (FIFO
// through the shard queue), so the final delta is complete. Reads
// keep serving from the source until the ring flips.
package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// migJournalCap bounds the write-delta journal of one outbound
// migration. A migration that cannot catch up within this many
// journaled writes should be aborted and retried off-peak.
const migJournalCap = 1 << 17

// ErrMigrationJournalOverflow: the write rate outran the journal
// during a copy; the migration must be aborted and retried.
var ErrMigrationJournalOverflow = errors.New("store: migration journal overflow")

// ErrNoMigration: the partition has no migration in progress.
var ErrNoMigration = errors.New("store: no migration in progress")

// ErrAlreadyStaged: the partition already has a staged inbound image.
var ErrAlreadyStaged = errors.New("store: partition already staged")

// ErrAlreadyOwned: the partition is already hosted by this store.
var ErrAlreadyOwned = errors.New("store: partition already owned")

// DeltaOp is one journaled write: a shard-local block and its raw
// (unframed) value. JSON encoding base64s the value.
type DeltaOp struct {
	Block uint64 `json:"block"`
	Value []byte `json:"value"`
}

// journal appends one acknowledged request's durable writes (errs[i]
// == nil) to the delta journal. Worker-goroutine only; a no-op unless
// an outbound migration is copying this shard.
func (sh *shard) journal(kvs []kvPair, errs []error) {
	if !sh.migActive.Load() {
		return
	}
	sh.migMu.Lock()
	defer sh.migMu.Unlock()
	if !sh.migOn {
		return
	}
	for i, kv := range kvs {
		if errs[i] != nil {
			continue
		}
		if len(sh.migLog) >= migJournalCap {
			sh.migOverflow = true
			return
		}
		sh.migLog = append(sh.migLog, DeltaOp{Block: kv.block, Value: append([]byte(nil), kv.value...)})
	}
}

// setJournal turns the delta journal on or off, emptying it.
func (sh *shard) setJournal(on bool) {
	sh.migMu.Lock()
	sh.migOn, sh.migLog, sh.migOverflow = on, nil, false
	sh.migMu.Unlock()
	sh.migActive.Store(on)
}

// MigrateBegin starts an outbound migration of one partition: it
// commits the open epoch, completes any in-flight rebuild, flushes,
// snapshots the shard's checkpoint image, and turns the write-delta
// journal on. The returned image is what MigrateAttach loads on the
// destination. The shard keeps serving reads and writes.
func (s *Store) MigrateBegin(ctx context.Context, part int) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.control(ctx, part, request{op: opMigrateBegin, migBuf: &buf}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MigrateDelta drains up to max journaled writes (0 = all) from the
// partition's outbound migration. remaining reports how many are
// still queued after the drain — the driver loops until it is small
// enough to fence. Fails with ErrMigrationJournalOverflow when the
// journal overflowed during the copy; the migration must be aborted.
func (s *Store) MigrateDelta(part, max int) (ops []DeltaOp, remaining int, err error) {
	sh, err := s.lookup(part)
	if err != nil {
		return nil, 0, err
	}
	sh.migMu.Lock()
	defer sh.migMu.Unlock()
	if !sh.migOn {
		return nil, 0, ErrNoMigration
	}
	if sh.migOverflow {
		return nil, 0, ErrMigrationJournalOverflow
	}
	n := len(sh.migLog)
	if max > 0 && max < n {
		n = max
	}
	ops = sh.migLog[:n:n]
	sh.migLog = sh.migLog[n:]
	return ops, len(sh.migLog), nil
}

// MigrateFence write-fences the partition for the final hand-off
// step: puts nack with ErrFenced (a retryable degradation, like
// ErrOverloaded) while reads keep serving. The fence is a worker
// control op, so FIFO order through the shard queue makes it a
// precise cut — every put acknowledged before it is in the journal,
// every put drained after it is refused. Call MigrateDelta once more
// after the fence for the complete final delta.
func (s *Store) MigrateFence(ctx context.Context, part int) error {
	return s.control(ctx, part, request{op: opMigrateFence})
}

// MigrateAbort cancels an outbound migration: the fence lifts, the
// journal drops, and the shard resumes normal service.
func (s *Store) MigrateAbort(ctx context.Context, part int) error {
	return s.control(ctx, part, request{op: opMigrateAbort})
}

// MigrateDetach removes the migrated-away partition from this store
// once the destination has activated it and ring ownership has
// flipped. The shard drains, flushes, and stops — but skips its final
// shutdown checkpoint, since the partition's image now belongs to the
// new owner. Requests racing the detach fail with NotOwnedError.
func (s *Store) MigrateDetach(ctx context.Context, part int) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	tab := s.table()
	sh := tab.parts[part]
	if sh == nil {
		s.mu.Unlock()
		return &NotOwnedError{Partition: part}
	}
	sh.noFinalCkpt.Store(true)
	sh.stopped.Store(true)
	s.tab.Store(tab.without(part))
	close(sh.ch)
	s.mu.Unlock()
	select {
	case <-sh.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MigrateAttach stages an inbound partition from a checkpoint image
// stream: a blocking restart from it — load, the protocol's recovery,
// and a whole-shard verify — so the destination trusts the recovery
// audit, not the wire. The staged shard is not yet routed to; apply
// deltas with MigrateApply, then make it live with MigrateActivate.
func (s *Store) MigrateAttach(part int, r io.Reader) error {
	if part < 0 || part >= s.cfg.Partitions {
		return fmt.Errorf("store: no partition %d", part)
	}
	// Checked before the recovery, a cheap refusal, and again under the
	// lock that stages the shard. Caller holds s.mu.
	free := func() error {
		switch {
		case s.closed:
			return ErrClosed
		case s.table().parts[part] != nil:
			return ErrAlreadyOwned
		case s.staging[part] != nil:
			return ErrAlreadyStaged
		}
		return nil
	}
	s.mu.Lock()
	err := free()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	sh, err := s.newShard(part)
	if err != nil {
		return err
	}
	if err := sh.restart(r, true); err != nil {
		return fmt.Errorf("store: attach partition %d: %w", part, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := free(); err != nil {
		return err
	}
	s.staging[part] = sh
	return nil
}

// MigrateApply replays one batch of journaled writes onto the staged
// partition as one epoch, through the same drain the worker runs.
// Single-threaded per partition by contract (the migration driver is
// the only writer until activation, and the staged shard has no
// worker yet). The first error aborts the apply.
func (s *Store) MigrateApply(part int, ops []DeltaOp) error {
	s.mu.Lock()
	sh := s.staging[part]
	s.mu.Unlock()
	if sh == nil {
		return ErrNoMigration
	}
	req := request{op: opPut, kvs: make([]kvPair, len(ops)), resp: make(chan response, 1)}
	for i, op := range ops {
		if op.Block >= sh.blocks {
			return fmt.Errorf("store: apply partition %d: %w", part, ErrOutOfRange)
		}
		if len(op.Value) > MaxValueLen {
			return fmt.Errorf("store: apply partition %d: %w", part, ErrValueTooLarge)
		}
		req.kvs[i] = kvPair{op.Block, op.Value}
	}
	sh.serveBatch([]request{req})
	resp := <-req.resp
	if resp.err != nil {
		return fmt.Errorf("store: apply partition %d: %w", part, resp.err)
	}
	for i, err := range resp.errs {
		if err != nil {
			return fmt.Errorf("store: apply partition %d block %d: %w", part, ops[i].Block, err)
		}
	}
	return nil
}

// MigrateActivate makes the staged partition live: its worker starts
// and the shard table gains the mapping, so requests for the
// partition route here from the next shardFor on. The caller flips
// ring ownership around this call.
func (s *Store) MigrateActivate(part int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.staging[part]
	if sh == nil {
		return ErrNoMigration
	}
	delete(s.staging, part)
	sh.now += sh.ctrl.Flush(sh.now)
	s.tab.Store(s.table().with(sh))
	go sh.run()
	return nil
}

// MigrateDiscard drops a staged inbound partition (migration aborted
// before activation).
func (s *Store) MigrateDiscard(part int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staging[part] == nil {
		return ErrNoMigration
	}
	delete(s.staging, part)
	return nil
}

// Staging returns the partition ids with staged (attached but not yet
// activated) inbound migrations.
func (s *Store) Staging() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.staging))
	for p := range s.staging {
		out = append(out, p)
	}
	return out
}

// Adopt loads an orphaned partition from the shared checkpoint
// directory — the kill-one-node hand-off path. The dead node's last
// checkpoint is the durable truth for the partition; Adopt attaches
// it (load + recover + verify) and activates it in one step. Writes
// acknowledged by the dead node after its last checkpoint were
// journaled nowhere and are the documented loss window of a hard
// kill; the cluster closes it by checkpointing on a barrier before
// reporting writes as surviving (see the chaos drill).
func (s *Store) Adopt(part int) error {
	if s.cfg.CheckpointDir == "" {
		return errors.New("store: no checkpoint dir configured")
	}
	if part < 0 || part >= s.cfg.Partitions {
		return fmt.Errorf("store: no partition %d", part)
	}
	path := filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("shard-%03d.ckpt", part))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: adopt partition %d: %w", part, err)
	}
	defer f.Close()
	if err := s.MigrateAttach(part, f); err != nil {
		return err
	}
	return s.MigrateActivate(part)
}
