package mee

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"amnt/internal/bmt"
	"amnt/internal/telemetry"
)

// NVSnapshotter is an optional policy extension for checkpointing:
// policies with non-volatile on-chip state beyond the root register
// (AMNT's subtree register, BMF's persistent root set) serialize it
// here so a checkpoint captures everything a reboot would preserve.
type NVSnapshotter interface {
	// SaveNV returns the policy's NV state blob.
	SaveNV() []byte
	// RestoreNV reinstates a blob produced by SaveNV.
	RestoreNV(data []byte) error
}

// checkpointMagic identifies the checkpoint format, version 1.
const checkpointMagic = "AMNTCKP1"

// SaveCheckpoint captures the machine's persistent state — the SCM
// device contents, the NV root register, and the policy's NV state —
// after flushing all dirty metadata, so the checkpoint is
// self-consistent (loadable without running recovery). This mirrors
// the gem5-artifact workflow the paper ships: simulate the long
// warm-up once, then fork crash/recovery experiments from the
// checkpoint.
func (c *Controller) SaveCheckpoint(w io.Writer) error {
	c.enter()
	defer c.exit()
	if c.session != nil {
		// Mid-recovery device state (a half-rebuilt tree) must never
		// become a checkpoint; the caller finishes the session first.
		return ErrRecovering
	}
	if c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Kind: telemetry.EvCheckpoint,
			Note: "save: " + c.policy.Name(),
		})
	}
	c.flush(0)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	writeBlob := func(p []byte) error {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		if _, err := bw.Write(n[:]); err != nil {
			return err
		}
		_, err := bw.Write(p)
		return err
	}
	if err := writeBlob([]byte(c.policy.Name())); err != nil {
		return err
	}
	if _, err := bw.Write(c.rootNV[:]); err != nil {
		return err
	}
	var nv []byte
	if s, ok := c.policy.(NVSnapshotter); ok {
		nv = s.SaveNV()
	}
	if err := writeBlob(nv); err != nil {
		return err
	}
	if _, err := c.dev.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Upper bounds on the two length-prefixed blobs of a checkpoint. A
// policy name is a registry key; the largest NV blob is BMF's root set
// (73 bytes a root). Lengths are checked against them before anything
// is allocated, since images arrive over the network
// (/v1/migrate/attach).
const (
	maxCheckpointName = 256
	maxCheckpointNV   = 64 << 10
)

// LoadCheckpoint restores a checkpoint into this controller. The
// active policy must match the one that saved it. Volatile state
// (metadata cache, write queue, policy tracking) resets, exactly as
// on a reboot from persistent media. The root register, the NV blob
// and the device are committed only once the whole image has parsed:
// a refused image leaves the controller as it was.
func (c *Controller) LoadCheckpoint(r io.Reader) error {
	c.enter()
	defer c.exit()
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("mee: checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return fmt.Errorf("mee: not a checkpoint (magic %q)", magic)
	}
	readBlob := func(limit uint32) ([]byte, error) {
		var n [4]byte
		if _, err := io.ReadFull(br, n[:]); err != nil {
			return nil, err
		}
		size := binary.LittleEndian.Uint32(n[:])
		if size > limit {
			return nil, fmt.Errorf("length %d exceeds %d", size, limit)
		}
		p := make([]byte, size)
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, err
		}
		return p, nil
	}
	name, err := readBlob(maxCheckpointName)
	if err != nil {
		return fmt.Errorf("mee: checkpoint policy name: %w", err)
	}
	if string(name) != c.policy.Name() {
		return fmt.Errorf("mee: checkpoint was saved under policy %q, controller runs %q", name, c.policy.Name())
	}
	var root [bmt.NodeSize]byte
	if _, err := io.ReadFull(br, root[:]); err != nil {
		return fmt.Errorf("mee: checkpoint root register: %w", err)
	}
	nv, err := readBlob(maxCheckpointNV)
	if err != nil {
		return fmt.Errorf("mee: checkpoint NV blob: %w", err)
	}
	snap, canRestore := c.policy.(NVSnapshotter)
	if !canRestore && len(nv) != 0 {
		return fmt.Errorf("mee: checkpoint carries NV state the %q policy cannot restore", c.policy.Name())
	}
	// RestoreNV checks its blob before it changes anything, so the
	// blob is tried here and taken back if the device is refused.
	var prevNV []byte
	if canRestore {
		prevNV = snap.SaveNV()
		if err := snap.RestoreNV(nv); err != nil {
			return fmt.Errorf("mee: checkpoint policy NV: %w", err)
		}
	}
	// The device is the image's last part; ReadFrom replaces the
	// contents only once all of it has parsed.
	if _, err := c.dev.ReadFrom(br); err != nil {
		if canRestore {
			_ = snap.RestoreNV(prevNV) // a blob SaveNV made always restores
		}
		return fmt.Errorf("mee: checkpoint device: %w", err)
	}
	// The whole image parsed: commit the root register. Reboot
	// semantics: volatile state is gone.
	c.rootNV = root
	if c.session != nil {
		c.session.abort()
		c.session = nil
	}
	c.meta.InvalidateAll()
	c.wq.reset()
	c.policy.Crash()
	if c.trace != nil {
		c.trace.Emit(telemetry.Event{
			Kind: telemetry.EvCheckpoint,
			Note: "load: " + c.policy.Name(),
		})
	}
	return nil
}
