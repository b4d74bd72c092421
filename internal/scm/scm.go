// Package scm models the storage-class memory (PCM) device: a
// non-volatile, byte-retentive store of 64-byte blocks organized into
// regions (application data, encryption counters, data HMACs, BMT
// nodes, and protocol-private areas such as Anubis's shadow table),
// with the DDR-based PCM timing from the paper's Table 1.
//
// The device is functional — every block holds real bytes that survive
// a simulated crash — and carries timing: each access reports its cost
// in CPU cycles, which the caller accumulates. A Tamper API lets the
// attack tests corrupt, replay, and splice blocks exactly as the
// paper's threat model allows a physical attacker to.
package scm

import (
	"fmt"

	"amnt/internal/stats"
	"amnt/internal/telemetry"
)

// BlockSize is the device access granularity in bytes.
const BlockSize = 64

// Region identifies a logical area of the SCM address space. Real
// hardware lays these out contiguously in one physical address space;
// the simulator keeps them as separate namespaces so geometry changes
// never require re-deriving base offsets.
type Region int

// Regions of the SCM device.
const (
	Data    Region = iota // application data (ciphertext)
	Counter               // split-counter blocks (BMT leaves)
	HMAC                  // per-block data HMACs
	Tree                  // BMT inner nodes
	Shadow                // protocol-private (e.g. Anubis shadow table)
	numRegions
)

var regionNames = [...]string{"data", "counter", "hmac", "tree", "shadow"}

func (r Region) String() string {
	if r < 0 || int(r) >= len(regionNames) {
		return fmt.Sprintf("region(%d)", int(r))
	}
	return regionNames[r]
}

// Config holds device geometry and timing. Latencies are in CPU
// cycles; DefaultConfig derives them from the paper's 305 ns read /
// 391 ns write at 2 GHz.
type Config struct {
	// CapacityBytes is the size of the data region. Metadata regions
	// are sized implicitly by the structures stored in them.
	CapacityBytes uint64
	// ReadCycles is the cost of a 64 B read from the device.
	ReadCycles uint64
	// WriteCycles is the cost of a 64 B write (persist) to the device.
	WriteCycles uint64
}

// Paper Table 1 timing at a 2 GHz core clock.
const (
	// DefaultReadCycles is 305 ns at 2 GHz.
	DefaultReadCycles = 610
	// DefaultWriteCycles is 391 ns at 2 GHz.
	DefaultWriteCycles = 782
	// DefaultCapacity is the paper's 8 GB PCM.
	DefaultCapacity = 8 << 30
)

// DefaultConfig returns the paper's Table 1 device configuration.
func DefaultConfig() Config {
	return Config{
		CapacityBytes: DefaultCapacity,
		ReadCycles:    DefaultReadCycles,
		WriteCycles:   DefaultWriteCycles,
	}
}

// Stats aggregates device traffic. Reads/Writes count block accesses.
type Stats struct {
	Reads  stats.Counter
	Writes stats.Counter
	// RegionReads/RegionWrites break traffic down by region.
	RegionReads  [numRegions]stats.Counter
	RegionWrites [numRegions]stats.Counter
}

// WriteObserver sees every durable Write as it happens: the block's
// previous content (nil on first touch) and the content being
// persisted. Both slices alias device storage and are only valid for
// the duration of the call — observers that need the bytes later must
// copy them. The fault-injection harness uses this to journal write
// pre-images so a simulated power failure can tear or drop individual
// persists.
type WriteObserver func(region Region, index uint64, old, new []byte)

// Device is a simulated SCM DIMM. Storage is sparse: blocks never
// written read as zero and are reported as absent by Contains (the
// memory controller uses absence to detect first-touch blocks).
//
// Each region keeps its blocks in one regionStore (store.go). A
// Device is driven by one goroutine; the exception is PeekInto and
// Contains, which never write to the device and may run concurrently
// with each other while nothing else does.
type Device struct {
	cfg   Config
	store [numRegions]regionStore
	stat  Stats
	obs   WriteObserver
}

// New creates a device with the given configuration; zero fields take
// the Table 1 defaults.
func New(cfg Config) *Device {
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = DefaultCapacity
	}
	if cfg.ReadCycles == 0 {
		cfg.ReadCycles = DefaultReadCycles
	}
	if cfg.WriteCycles == 0 {
		cfg.WriteCycles = DefaultWriteCycles
	}
	return &Device{cfg: cfg}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the device's traffic counters.
func (d *Device) Stats() *Stats { return &d.stat }

// RegisterMetrics publishes device traffic into a telemetry registry
// under prefix ("scm"): total reads/writes plus a per-region
// breakdown ("scm.reads.tree", ...).
func (d *Device) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+".reads", "device block reads", d.stat.Reads.Value)
	reg.Counter(prefix+".writes", "device block writes", d.stat.Writes.Value)
	for r := Region(0); r < numRegions; r++ {
		r := r
		reg.Counter(prefix+".reads."+r.String(), "device block reads, "+r.String()+" region",
			d.stat.RegionReads[r].Value)
		reg.Counter(prefix+".writes."+r.String(), "device block writes, "+r.String()+" region",
			d.stat.RegionWrites[r].Value)
	}
}

// DataBlocks returns the number of 64 B blocks in the data region.
func (d *Device) DataBlocks() uint64 { return d.cfg.CapacityBytes / BlockSize }

// Read copies block (region, index) into dst and returns the access
// cost in cycles. Unwritten blocks read as zeroes.
func (d *Device) Read(region Region, index uint64, dst []byte) uint64 {
	if len(dst) != BlockSize {
		panic("scm: read buffer must be BlockSize bytes")
	}
	d.stat.Reads.Inc()
	d.stat.RegionReads[region].Inc()
	if blk := d.store[region].find(index); blk != nil {
		copy(dst, blk[:])
	} else {
		clear(dst)
	}
	return d.cfg.ReadCycles
}

// ReadIfPresent is Read for a block that may be absent: a present
// block is copied into dst and charged like Read; an absent one
// leaves dst alone, touches no statistics and costs nothing. It is
// the one-lookup form of Contains followed by Read.
func (d *Device) ReadIfPresent(region Region, index uint64, dst []byte) (cycles uint64, ok bool) {
	if len(dst) != BlockSize {
		panic("scm: read buffer must be BlockSize bytes")
	}
	blk := d.store[region].find(index)
	if blk == nil {
		return 0, false
	}
	copy(dst, blk[:])
	return d.AccountReads(region, 1), true
}

// PeekInto copies block (region, index) into dst without timing or
// statistics, reporting whether the block was present (absent blocks
// read as zero, like Read). Unlike Read it never mutates device
// state, so concurrent PeekInto calls are safe while no Write, Erase,
// or tamper operation overlaps — the controller's concurrent read
// view relies on this.
func (d *Device) PeekInto(region Region, index uint64, dst []byte) bool {
	if len(dst) != BlockSize {
		panic("scm: peek buffer must be BlockSize bytes")
	}
	if blk := d.store[region].find(index); blk != nil {
		copy(dst, blk[:])
		return true
	}
	clear(dst)
	return false
}

// AccountReads records n block reads against a region's traffic
// counters without touching storage, returning their total cost in
// cycles (n × ReadCycles). Together with PeekInto and PeekScan it
// lets a bulk reader keep device statistics and cycle sums
// bit-identical to n individual Read calls.
func (d *Device) AccountReads(region Region, n uint64) uint64 {
	d.stat.Reads.Add(n)
	d.stat.RegionReads[region].Add(n)
	return n * d.cfg.ReadCycles
}

// Scan visits the present blocks of a region whose index lies in
// [lo, hi), in ascending index order, until fn returns false. fn
// sees each block in place: blk aliases device storage, is valid
// only for the duration of the call and must not be written through.
// Every block handed to fn is charged as one Read; the total cost in
// cycles is returned. fn may use the device, except that it must not
// add or remove blocks of the region being scanned.
func (d *Device) Scan(region Region, lo, hi uint64, fn func(index uint64, blk []byte) bool) uint64 {
	return d.AccountReads(region, d.PeekScan(region, lo, hi, fn))
}

// PeekScan is Scan without timing or statistics; it returns how many
// blocks fn was handed. Like Scan, Count, Indices and WriteTo — and
// unlike PeekInto — it refreshes the device's cached index ordering
// if the region's key set changed since the ordering was last taken,
// so it belongs to the goroutine that drives the device.
func (d *Device) PeekScan(region Region, lo, hi uint64, fn func(index uint64, blk []byte) bool) uint64 {
	s := &d.store[region]
	var n uint64
	for _, e := range s.span(lo, hi) {
		n++
		if !fn(e.key, s.block(e.ref - 1)[:]) {
			break
		}
	}
	return n
}

// Count returns the number of present blocks of a region whose index
// lies in [lo, hi), without timing or statistics.
func (d *Device) Count(region Region, lo, hi uint64) int {
	return len(d.store[region].span(lo, hi))
}

// Write persists src into block (region, index) and returns the
// access cost in cycles. The write is durable: it survives Crash.
func (d *Device) Write(region Region, index uint64, src []byte) uint64 {
	if len(src) != BlockSize {
		panic("scm: write buffer must be BlockSize bytes")
	}
	d.stat.Writes.Inc()
	d.stat.RegionWrites[region].Inc()
	s := &d.store[region]
	blk := s.find(index)
	if d.obs != nil {
		if blk != nil {
			d.obs(region, index, blk[:], src)
		} else {
			d.obs(region, index, nil, src)
		}
	}
	if blk != nil {
		copy(blk[:], src)
	} else {
		s.add(index, src)
	}
	return d.cfg.WriteCycles
}

// SetWriteObserver installs (or, with nil, removes) a write observer.
// The disabled path costs one pointer check per write.
func (d *Device) SetWriteObserver(fn WriteObserver) { d.obs = fn }

// Erase deletes one block from a region without timing or statistics,
// reverting it to the never-written state. The fault injector uses it
// to model a first-touch write that never reached the device.
func (d *Device) Erase(region Region, index uint64) {
	d.store[region].remove(index)
}

// Contains reports whether block (region, index) has ever been
// written. The memory controller uses this to identify first-touch
// data blocks, which are initialized rather than verified. Like
// PeekInto it never mutates device state.
func (d *Device) Contains(region Region, index uint64) bool {
	return d.store[region].find(index) != nil
}

// BlocksWritten returns the number of distinct blocks present in a
// region (the device's occupied footprint there).
func (d *Device) BlocksWritten(region Region) int { return d.store[region].live }

// Indices returns the indices of all blocks present in a region, in
// ascending order. The slice is the caller's. Callers that want the
// blocks too should Scan instead of looking each index up.
func (d *Device) Indices(region Region) []uint64 {
	ord := d.store[region].order()
	out := make([]uint64, len(ord))
	for i, e := range ord {
		out[i] = e.key
	}
	return out
}

// DropRange deletes all blocks of a region whose index lies in
// [lo, hi), without timing or statistics. It models volatility: a
// hybrid SCM+DRAM machine loses its DRAM partition's contents at
// power failure, so the crash path drops those blocks outright.
func (d *Device) DropRange(region Region, lo, hi uint64) {
	s := &d.store[region]
	// remove invalidates the ordering but leaves its entries alone.
	for _, e := range s.span(lo, hi) {
		s.remove(e.key)
	}
}

// Peek returns a copy of the stored block without timing or stats, or
// nil if absent. It is an inspection hook for tests and recovery
// analysis, not part of the architectural interface.
func (d *Device) Peek(region Region, index uint64) []byte {
	blk := d.store[region].find(index)
	if blk == nil {
		return nil
	}
	out := make([]byte, BlockSize)
	copy(out, blk[:])
	return out
}

// --- Attack surface -------------------------------------------------

// TamperByte XORs mask into one byte of a stored block, modelling an
// active splicing/spoofing attack on the untrusted device. It reports
// whether the block existed.
func (d *Device) TamperByte(region Region, index uint64, offset int, mask byte) bool {
	blk := d.store[region].find(index)
	if blk == nil || offset < 0 || offset >= BlockSize {
		return false
	}
	blk[offset] ^= mask
	return true
}

// SwapBlocks exchanges two stored blocks within a region (a splicing
// attack). Both blocks must exist.
func (d *Device) SwapBlocks(region Region, a, b uint64) bool {
	ba, bb := d.store[region].find(a), d.store[region].find(b)
	if ba == nil || bb == nil {
		return false
	}
	*ba, *bb = *bb, *ba
	return true
}

// SnapshotBlock captures the current contents of a block for a later
// ReplayBlock (a replay attack). Returns nil if absent.
func (d *Device) SnapshotBlock(region Region, index uint64) []byte {
	return d.Peek(region, index)
}

// ReplayBlock restores previously captured contents over a block,
// bypassing timing and statistics (the attacker is not the CPU).
func (d *Device) ReplayBlock(region Region, index uint64, snapshot []byte) {
	if len(snapshot) != BlockSize {
		panic("scm: replay snapshot must be BlockSize bytes")
	}
	s := &d.store[region]
	if blk := s.find(index); blk != nil {
		copy(blk[:], snapshot)
	} else {
		s.add(index, snapshot)
	}
}
