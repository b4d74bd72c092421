package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// backEnd is the protocol half of a machine: the SCM device and the
// secure memory controller with its policy. It applies the front
// end's events on the full clock — static time plus every controller
// latency so far — and checks every decrypted read against the bytes
// the block's version derives (DESIGN.md §2.1).
type backEnd struct {
	dev    *scm.Device
	ctrl   *mee.Controller
	policy mee.Policy
	// now is the full clock at the latest event.
	now uint64
	// want is the one buffer block contents are derived into, for a
	// write-back and for the oracle alike; got receives a read's
	// plaintext.
	want, got [scm.BlockSize]byte
}

func newBackEnd(cfg Config, policy mee.Policy) *backEnd {
	dev := scm.New(scm.Config{CapacityBytes: cfg.MemoryBytes})
	return &backEnd{dev: dev, ctrl: mee.New(dev, cfg.MEE, policy), policy: policy}
}

// apply runs one transfer gap static cycles after the previous one:
// a write-back of block's bytes at version, or a read checked against
// them.
func (b *backEnd) apply(gap, block uint64, version uint32, writeBack bool) error {
	b.now += gap
	blockContent(b.want[:], block, version)
	var lat uint64
	var err error
	if writeBack {
		lat, err = b.ctrl.WriteBlock(b.now, block, b.want[:])
	} else if lat, err = b.ctrl.ReadBlock(b.now, block, b.got[:]); err == nil && !bytes.Equal(b.got[:], b.want[:]) {
		j := 0
		for b.got[j] == b.want[j] {
			j++
		}
		err = fmt.Errorf("sim: block %d plaintext diverged at byte %d", block, j)
	}
	b.now += lat
	return err
}

// replay applies s's events in order, polling ctx once per chunk.
func (b *backEnd) replay(ctx context.Context, s *Stream) error {
	n := 0
	for c := s.head; c != nil; c = c.next {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sim: replay aborted at cycle %d: %w", b.now, err)
		}
		events := c.ev[:]
		if c == s.tail {
			events = events[:s.n]
		}
		for _, ev := range events {
			if ev.op == gapOnly {
				b.now += uint64(ev.gap)
			} else if err := b.apply(uint64(ev.gap), ev.op&^writeBackBit, ev.version, ev.op&writeBackBit != 0); err != nil {
				return fmt.Errorf("replay event %d @%d: %w", n, b.now, err)
			}
			n++
		}
	}
	return nil
}

// fill sets the back end's share of r: the policy, the cycle count
// (cycles, the full clock at the end of the run) and every controller,
// device and policy statistic.
func (b *backEnd) fill(r *Result, cycles uint64) {
	r.Policy = b.policy.Name()
	r.Cycles = cycles
	r.MetaHitRate = b.ctrl.MetaCache().HitRate()
	r.DeviceReads = b.dev.Stats().Reads.Value()
	r.DeviceWrites = b.dev.Stats().Writes.Value()
	st := b.ctrl.Stats()
	r.Reads = st.DataReads.Value()
	r.Writes = st.DataWrites.Value()
	r.MetaFetches = st.MetaFetches.Value()
	r.SyncPersists = st.SyncPersists.Value()
	r.PostedWrites = st.PostedWrites.Value()
	r.MergedWrites = b.ctrl.MergedWrites()
	r.StallCycles = st.StallCycles.Value()
	r.Overflows = st.Overflows.Value()
	r.VerifyHashes = st.VerifyHashes.Value()
	r.PolicyCycles = st.PolicyCycles.Value()
	r.MetaLevelHitRates = b.ctrl.LevelHitRates()
	if occ := b.ctrl.WriteQueueOccupancy(); occ.Total() > 0 {
		keys := occ.Keys()
		r.WQOccupancy = make([]uint64, keys[len(keys)-1]+1)
		for _, k := range keys {
			r.WQOccupancy[k] = occ.Count(k)
		}
		r.WQOccupancyP50 = occ.Quantile(0.50)
		r.WQOccupancyP99 = occ.Quantile(0.99)
	}
	if a, ok := b.policy.(interface {
		SubtreeHitRate() float64
		Movements() uint64
	}); ok {
		r.SubtreeHitRate = a.SubtreeHitRate()
		r.Movements = a.Movements()
	}
}

// blockContent fills out (BlockSize bytes) with the plaintext of block
// at version.
func blockContent(out []byte, block uint64, version uint32) {
	if version == 0 {
		clear(out) // never written: zeros
		return
	}
	binary.LittleEndian.PutUint64(out[0:], block)
	binary.LittleEndian.PutUint32(out[8:], version)
	for i := 12; i < scm.BlockSize; i++ {
		out[i] = byte(block) ^ byte(version) ^ byte(i)
	}
}
