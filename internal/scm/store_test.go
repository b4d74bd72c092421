package scm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"
)

// modelRegion is the region TestDeviceStoreModel drives; modelKeys
// bounds its index space so that erases, rewrites and index-table
// growth all happen many times in a few thousand steps.
const (
	modelRegion = Tree
	modelKeys   = 300
)

// checkAgainstModel compares everything the device can be asked about
// one region with a reference map.
func checkAgainstModel(t *testing.T, step int, d *Device, want map[uint64][BlockSize]byte, rng *rand.Rand) {
	t.Helper()
	if got := d.BlocksWritten(modelRegion); got != len(want) {
		t.Fatalf("step %d: BlocksWritten = %d, want %d", step, got, len(want))
	}
	for k := uint64(0); k < modelKeys; k++ {
		blk, ok := want[k]
		if d.Contains(modelRegion, k) != ok {
			t.Fatalf("step %d: Contains(%d) = %v, want %v", step, k, !ok, ok)
		}
		got := d.Peek(modelRegion, k)
		if ok != (got != nil) || (ok && !bytes.Equal(got, blk[:])) {
			t.Fatalf("step %d: Peek(%d) = %x, want %x (present %v)", step, k, got, blk, ok)
		}
	}
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if got := d.Indices(modelRegion); !slices.Equal(got, keys) {
		t.Fatalf("step %d: Indices = %v, want %v", step, got, keys)
	}

	// A bounded walk with an early stop: order, bounds, in-place
	// content, and read accounting equal to that many Reads.
	lo, hi := rng.Uint64()%modelKeys, rng.Uint64()%(modelKeys+1)
	var in []uint64
	for _, k := range keys {
		if k >= lo && k < hi {
			in = append(in, k)
		}
	}
	if got := d.Count(modelRegion, lo, hi); got != len(in) {
		t.Fatalf("step %d: Count[%d,%d) = %d, want %d", step, lo, hi, got, len(in))
	}
	stopAfter := len(in)
	if stopAfter > 0 && rng.Intn(2) == 0 {
		stopAfter = 1 + rng.Intn(stopAfter)
	}
	before := d.Stats().Reads.Value()
	beforeRegion := d.Stats().RegionReads[modelRegion].Value()
	var seen []uint64
	cycles := d.Scan(modelRegion, lo, hi, func(k uint64, blk []byte) bool {
		if w := want[k]; !bytes.Equal(blk, w[:]) {
			t.Fatalf("step %d: Scan handed %x for block %d, want %x", step, blk, k, w)
		}
		seen = append(seen, k)
		return len(seen) < stopAfter
	})
	if !slices.Equal(seen, in[:stopAfter]) {
		t.Fatalf("step %d: Scan[%d,%d) stop %d visited %v, want %v", step, lo, hi, stopAfter, seen, in[:stopAfter])
	}
	n := uint64(len(seen))
	if cycles != n*d.Config().ReadCycles ||
		d.Stats().Reads.Value() != before+n ||
		d.Stats().RegionReads[modelRegion].Value() != beforeRegion+n {
		t.Fatalf("step %d: Scan of %d blocks charged %d cycles, %d reads", step, n, cycles, d.Stats().Reads.Value()-before)
	}
	if got := d.PeekScan(modelRegion, lo, hi, func(uint64, []byte) bool { return true }); got != uint64(len(in)) ||
		d.Stats().Reads.Value() != before+n {
		t.Fatalf("step %d: PeekScan visited %d of %d blocks or touched the statistics", step, got, len(in))
	}
}

// TestDeviceStoreModel drives one region with seeded random mutations
// of every kind the device offers and compares it with a reference
// map after every step; then it reads the final state from several
// goroutines at once (PeekInto and Contains), which the race detector
// watches.
func TestDeviceStoreModel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := New(testConfig())
	want := make(map[uint64][BlockSize]byte)
	var blk [BlockSize]byte
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for step := 0; step < steps; step++ {
		k := rng.Uint64() % modelKeys
		rng.Read(blk[:])
		switch op := rng.Intn(20); {
		case op < 8:
			if got := d.Write(modelRegion, k, blk[:]); got != d.Config().WriteCycles {
				t.Fatalf("step %d: Write cost %d", step, got)
			}
			want[k] = blk
		case op < 11:
			// An erased index that is written again must read back as
			// the new bytes alone.
			d.Erase(modelRegion, k)
			delete(want, k)
			if rng.Intn(2) == 0 {
				d.Write(modelRegion, k, blk[:])
				want[k] = blk
			}
		case op < 12:
			lo := rng.Uint64() % modelKeys
			hi := lo + rng.Uint64()%32
			d.DropRange(modelRegion, lo, hi)
			for i := lo; i < hi; i++ {
				delete(want, i)
			}
		case op < 14:
			d.ReplayBlock(modelRegion, k, blk[:])
			want[k] = blk
		case op < 16:
			k2 := rng.Uint64() % modelKeys
			_, ok1 := want[k]
			_, ok2 := want[k2]
			if got := d.SwapBlocks(modelRegion, k, k2); got != (ok1 && ok2) {
				t.Fatalf("step %d: SwapBlocks(%d,%d) = %v", step, k, k2, got)
			}
			if ok1 && ok2 {
				want[k], want[k2] = want[k2], want[k]
			}
		case op < 18:
			off, mask := rng.Intn(BlockSize), byte(1)<<rng.Intn(8)
			_, ok := want[k]
			if got := d.TamperByte(modelRegion, k, off, mask); got != ok {
				t.Fatalf("step %d: TamperByte(%d) = %v, want %v", step, k, got, ok)
			}
			if ok {
				b := want[k]
				b[off] ^= mask
				want[k] = b
			}
		case op < 19:
			var image bytes.Buffer
			if _, err := d.WriteTo(&image); err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadFrom(&image); err != nil {
				t.Fatalf("step %d: ReadFrom: %v", step, err)
			}
		default:
			var dst [BlockSize]byte
			w, ok := want[k]
			if cycles, got := d.ReadIfPresent(modelRegion, k, dst[:]); got != ok || dst != w ||
				(ok && cycles != d.Config().ReadCycles) || (!ok && cycles != 0) {
				t.Fatalf("step %d: ReadIfPresent(%d) = %d, %v, %x", step, k, cycles, got, dst)
			}
		}
		checkAgainstModel(t, step, d, want, rng)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst [BlockSize]byte
			for k := uint64(0); k < modelKeys; k++ {
				w, ok := want[k]
				if d.PeekInto(modelRegion, k, dst[:]) != ok || d.Contains(modelRegion, k) != ok || dst != w {
					t.Errorf("concurrent PeekInto(%d) = %x, want %x (present %v)", k, dst, w, ok)
				}
			}
		}()
	}
	wg.Wait()
}

// goldenImage is a device snapshot written by the map-backed store of
// the commit before the slab store (five regions, one of them empty,
// one index above 2^32).
const goldenImage = "testdata/device_v1.golden"

// TestCheckpointGolden pins the on-disk format across the change of
// representation: an image written before it loads, and is written
// back byte for byte.
func TestCheckpointGolden(t *testing.T) {
	image, err := os.ReadFile(goldenImage)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{})
	if n, err := d.ReadFrom(bytes.NewReader(image)); err != nil || n != int64(len(image)) {
		t.Fatalf("ReadFrom: %d of %d bytes, %v", n, len(image), err)
	}
	if d.Config() != testConfig() {
		t.Fatalf("config = %+v", d.Config())
	}
	if d.BlocksWritten(Shadow) != 0 || !d.Contains(Tree, 1<<40) {
		t.Fatal("golden image did not load the blocks it holds")
	}
	var out bytes.Buffer
	if _, err := d.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), image) {
		t.Fatal("image written back differs from the one loaded")
	}
}

// TestDeviceNoAllocs: the steady-state access paths stay off the
// heap — an overwrite, a read and a peek touch only the slabs.
func TestDeviceNoAllocs(t *testing.T) {
	d := New(testConfig())
	var blk [BlockSize]byte
	for i := uint64(0); i < 100; i++ {
		d.Write(Data, i*7, blk[:])
	}
	for name, fn := range map[string]func(){
		"overwrite": func() { d.Write(Data, 21, blk[:]) },
		"read":      func() { d.Read(Data, 21, blk[:]); d.Read(Data, 22, blk[:]) },
		"peek":      func() { d.PeekInto(Data, 21, blk[:]); d.PeekInto(Data, 22, blk[:]) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

// imageOf serializes per-region (index, fill byte) lists in the
// snapshot format, declaring counts[r] blocks for region r whatever
// the list holds.
func imageOf(magic string, counts [numRegions]uint64, blocks [numRegions][]uint64) []byte {
	out := []byte(magic)
	out = binary.LittleEndian.AppendUint64(out, 1<<20)
	out = binary.LittleEndian.AppendUint64(out, 610)
	out = binary.LittleEndian.AppendUint64(out, 782)
	for r := range counts {
		out = binary.LittleEndian.AppendUint64(out, counts[r])
		for _, idx := range blocks[r] {
			out = binary.LittleEndian.AppendUint64(out, idx)
			out = append(out, bytes.Repeat([]byte{byte(idx)}, BlockSize)...)
		}
	}
	return out
}

// FuzzDeviceReadFrom feeds the checkpoint-image decoder arbitrary
// bytes: it may refuse them, but it must not panic, must not claim
// memory the input does not pay for, must leave the device alone when
// it refuses, and must write back exactly what it accepted.
func FuzzDeviceReadFrom(f *testing.F) {
	if golden, err := os.ReadFile(goldenImage); err == nil {
		f.Add(golden)
		f.Add(golden[:len(golden)/2])
	}
	two := [numRegions][]uint64{Data: {3, 9}}
	f.Add(imageOf(deviceMagic, [numRegions]uint64{Data: 2}, two))
	f.Add(imageOf("AMNTSCM2", [numRegions]uint64{Data: 2}, two))                                 // bad magic
	f.Add(imageOf(deviceMagic, [numRegions]uint64{Data: 1 << 60}, two))                          // oversized count
	f.Add(imageOf(deviceMagic, [numRegions]uint64{Data: 1}, two))                                // undersized count
	f.Add(imageOf(deviceMagic, [numRegions]uint64{Data: 2}, [numRegions][]uint64{Data: {5, 5}})) // duplicate index
	f.Add(imageOf(deviceMagic, [numRegions]uint64{Data: 2}, [numRegions][]uint64{Data: {9, 3}})) // descending
	f.Fuzz(func(t *testing.T, image []byte) {
		d := New(testConfig())
		var blk [BlockSize]byte
		blk[0] = 0xA5
		d.Write(Counter, 77, blk[:])

		_, err := d.ReadFrom(bytes.NewReader(image))
		if err != nil {
			if d.BlocksWritten(Counter) != 1 || !bytes.Equal(d.Peek(Counter, 77), blk[:]) || d.Config() != testConfig() {
				t.Fatalf("refused image (%v) changed the device", err)
			}
			return
		}
		blocks := 0
		for r := Region(0); r < numRegions; r++ {
			blocks += d.BlocksWritten(r)
		}
		if blocks*(8+BlockSize) > len(image) {
			t.Fatalf("%d blocks loaded from %d bytes", blocks, len(image))
		}
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		d2 := New(Config{})
		if _, err := d2.ReadFrom(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("own image refused: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := d2.WriteTo(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("image is not stable under load and write back")
		}
	})
}
