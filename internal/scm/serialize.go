package scm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// deviceMagic identifies the device snapshot format, version 1.
const deviceMagic = "AMNTSCM1"

// WriteTo serializes the device's configuration and full contents in
// a deterministic binary form (blocks sorted by index per region).
// It implements io.WriterTo and underpins machine checkpoints — the
// artifact-style workflow of "simulate once, crash-test many times".
func (d *Device) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := write([]byte(deviceMagic)); err != nil {
		return n, err
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], d.cfg.CapacityBytes)
	binary.LittleEndian.PutUint64(hdr[8:], d.cfg.ReadCycles)
	binary.LittleEndian.PutUint64(hdr[16:], d.cfg.WriteCycles)
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	for r := Region(0); r < numRegions; r++ {
		s := &d.store[r]
		var count [8]byte
		binary.LittleEndian.PutUint64(count[:], uint64(s.live))
		if err := write(count[:]); err != nil {
			return n, err
		}
		for _, e := range s.order() {
			var rec [8]byte
			binary.LittleEndian.PutUint64(rec[:], e.key)
			if err := write(rec[:]); err != nil {
				return n, err
			}
			if err := write(s.block(e.ref - 1)[:]); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadFrom replaces the device's contents (and configuration) with a
// snapshot written by WriteTo. Statistics are preserved (the snapshot
// records state, not history). A snapshot that is truncated, names a
// block twice or does not start with the magic is an error and leaves
// the device as it was; memory is claimed only for blocks actually
// read, whatever count the snapshot declares. It implements
// io.ReaderFrom.
func (d *Device) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	n := int64(0)
	read := func(p []byte) error {
		m, err := io.ReadFull(br, p)
		n += int64(m)
		return err
	}
	magic := make([]byte, len(deviceMagic))
	if err := read(magic); err != nil {
		return n, fmt.Errorf("scm: snapshot magic: %w", err)
	}
	if string(magic) != deviceMagic {
		return n, fmt.Errorf("scm: not a device snapshot (magic %q)", magic)
	}
	var hdr [24]byte
	if err := read(hdr[:]); err != nil {
		return n, fmt.Errorf("scm: snapshot header: %w", err)
	}
	cfg := Config{
		CapacityBytes: binary.LittleEndian.Uint64(hdr[0:]),
		ReadCycles:    binary.LittleEndian.Uint64(hdr[8:]),
		WriteCycles:   binary.LittleEndian.Uint64(hdr[16:]),
	}
	var store [numRegions]regionStore
	for r := Region(0); r < numRegions; r++ {
		var count [8]byte
		if err := read(count[:]); err != nil {
			return n, fmt.Errorf("scm: region %s count: %w", r, err)
		}
		blocks := binary.LittleEndian.Uint64(count[:])
		for i := uint64(0); i < blocks; i++ {
			var rec [8 + BlockSize]byte
			if err := read(rec[:]); err != nil {
				return n, fmt.Errorf("scm: region %s block %d: %w", r, i, err)
			}
			idx := binary.LittleEndian.Uint64(rec[:])
			if store[r].find(idx) != nil {
				return n, fmt.Errorf("scm: region %s lists block %d twice", r, idx)
			}
			store[r].add(idx, rec[8:])
		}
	}
	d.cfg, d.store = cfg, store
	return n, nil
}
