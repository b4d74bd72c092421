package mee

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"amnt/internal/scm"
)

func TestDeviceSnapshotRoundTrip(t *testing.T) {
	d := testDevice()
	blk := pattern(5)
	d.Write(scm.Data, 7, blk)
	d.Write(scm.Counter, 3, pattern(6))
	d.Write(scm.Tree, 99, pattern(7))
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := scm.New(scm.Config{CapacityBytes: 1 << 20})
	if _, err := d2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if d2.Config() != d.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", d2.Config(), d.Config())
	}
	for _, r := range []scm.Region{scm.Data, scm.Counter, scm.HMAC, scm.Tree, scm.Shadow} {
		if d2.BlocksWritten(r) != d.BlocksWritten(r) {
			t.Fatalf("region %s footprint mismatch", r)
		}
	}
	if !bytes.Equal(d2.Peek(scm.Data, 7), blk) {
		t.Fatal("block content mismatch")
	}
}

func TestDeviceSnapshotRejectsGarbage(t *testing.T) {
	d := testDevice()
	if _, err := d.ReadFrom(strings.NewReader("garbage not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := d.ReadFrom(strings.NewReader("")); err == nil {
		t.Fatal("empty accepted")
	}
}

// checkpointPolicies are the policies exercised through a full
// save/load/verify cycle.
func checkpointPolicies() []Policy {
	return []Policy{NewStrict(), NewLeaf(), NewOsiris(4), NewAnubis(), NewBMF()}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, p := range checkpointPolicies() {
		t.Run(p.Name(), func(t *testing.T) {
			c := New(testDevice(), tinyCacheConfig(), p)
			want := make(map[uint64][]byte)
			for i := uint64(0); i < 200; i++ {
				data := pattern(byte(i * 3))
				if _, err := c.WriteBlock(uint64(i), (i*37)%4096, data); err != nil {
					t.Fatal(err)
				}
				want[(i*37)%4096] = data
			}
			var ckpt bytes.Buffer
			if err := c.SaveCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			// Writes after the checkpoint must not leak into the restore.
			if _, err := c.WriteBlock(0, 9999, pattern(0xEE)); err != nil {
				t.Fatal(err)
			}
			if err := c.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatalf("load: %v", err)
			}
			if err := c.VerifyAll(0); err != nil {
				t.Fatalf("post-restore integrity: %v", err)
			}
			got := make([]byte, scm.BlockSize)
			for b, data := range want {
				if _, err := c.ReadBlock(0, b, got); err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("block %d content drift", b)
				}
			}
			// And the machine keeps working after a restore.
			if _, err := c.WriteBlock(0, 123, pattern(9)); err != nil {
				t.Fatalf("post-restore write: %v", err)
			}
			c.Crash()
			if _, err := c.Recover(0); err != nil {
				t.Fatalf("post-restore recovery: %v", err)
			}
		})
	}
}

func TestCheckpointPolicyMismatch(t *testing.T) {
	c := New(testDevice(), DefaultConfig(), NewLeaf())
	var ckpt bytes.Buffer
	if err := c.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	other := New(testDevice(), DefaultConfig(), NewStrict())
	if err := other.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("cross-policy checkpoint load accepted")
	}
}

func TestCheckpointGarbage(t *testing.T) {
	c := New(testDevice(), DefaultConfig(), NewLeaf())
	if err := c.LoadCheckpoint(strings.NewReader("nope")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestBMFNVSnapshotCarriesRootSet(t *testing.T) {
	p := NewBMF()
	p.Interval = 32
	c := New(testDevice(), DefaultConfig(), p)
	for i := 0; i < 300; i++ {
		if _, err := c.WriteBlock(0, uint64(i%8), pattern(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.RootCount() <= 1 {
		t.Fatal("precondition: want a pruned forest")
	}
	wantRoots := p.RootCount()
	var ckpt bytes.Buffer
	if err := c.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Wreck the live set, then restore.
	p.Crash()
	if err := c.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if p.RootCount() != wantRoots {
		t.Fatalf("root set = %d after restore, want %d", p.RootCount(), wantRoots)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatal(err)
	}
}

// checkpointState is what a refused image must leave untouched: the
// root register, the policy's NV blob and the device contents.
func checkpointState(t testing.TB, c *Controller) (root, nv, dev []byte) {
	r := c.Root()
	if s, ok := c.Policy().(NVSnapshotter); ok {
		nv = s.SaveNV()
	}
	var buf bytes.Buffer
	if _, err := c.Device().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return r[:], nv, buf.Bytes()
}

// loadAllocs loads img into c and reports the bytes allocated doing it.
func loadAllocs(c *Controller, img []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.LoadCheckpoint(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// writtenController returns a controller under p holding a few
// written blocks, so its root register and device are not the
// boot-time ones.
func writtenController(t testing.TB, p Policy, seed byte) *Controller {
	c := New(testDevice(), DefaultConfig(), p)
	for i := uint64(0); i < 40; i++ {
		if _, err := c.WriteBlock(i, (i*37+uint64(seed))%512, pattern(seed+byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// A checkpoint image is untrusted input (it arrives over
// /v1/migrate/attach): a declared blob length must not be allocated
// before it is read.
func TestLoadCheckpointBoundsDeclaredLength(t *testing.T) {
	c := New(testDevice(), DefaultConfig(), NewLeaf())
	alloc, err := loadAllocs(c, []byte("AMNTCKP1\xff\xff\xff\xff"))
	if err == nil {
		t.Fatal("hostile image accepted")
	}
	if alloc >= 1<<20 {
		t.Fatalf("12-byte image allocated %d bytes", alloc)
	}
}

// An image refused anywhere — here at its device magic, after the root
// register and NV blob parsed — leaves the controller as it was.
func TestLoadCheckpointRefusedKeepsState(t *testing.T) {
	for _, mk := range []func() Policy{func() Policy { return NewLeaf() }, func() Policy { return NewBMF() }} {
		t.Run(mk().Name(), func(t *testing.T) {
			var img bytes.Buffer
			if err := writtenController(t, mk(), 7).SaveCheckpoint(&img); err != nil {
				t.Fatal(err)
			}
			bad := bytes.Replace(img.Bytes(), []byte("AMNTSCM1"), []byte("AMNTSCMX"), 1)
			c := writtenController(t, mk(), 99)
			root, nv, dev := checkpointState(t, c)
			err := c.LoadCheckpoint(bytes.NewReader(bad))
			if err == nil || !strings.Contains(err.Error(), "scm: not a device snapshot") {
				t.Fatalf("err = %v, want the device magic refused", err)
			}
			root2, nv2, dev2 := checkpointState(t, c)
			if !bytes.Equal(root, root2) {
				t.Fatal("refused image changed the root register")
			}
			if !bytes.Equal(nv, nv2) {
				t.Fatal("refused image changed the policy's NV state")
			}
			if !bytes.Equal(dev, dev2) {
				t.Fatal("refused image changed the device")
			}
			if err := c.VerifyAll(0); err != nil {
				t.Fatalf("controller no longer verifies: %v", err)
			}
		})
	}
}

// FuzzLoadCheckpoint feeds arbitrary images to leaf and BMF
// controllers. Whatever an image declares, loading it allocates a
// bounded amount, and a refused image leaves the root register, the NV
// state and the device as they were.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, p := range []Policy{NewLeaf(), NewBMF()} {
		var img bytes.Buffer
		if err := writtenController(f, p, 3).SaveCheckpoint(&img); err != nil {
			f.Fatal(err)
		}
		f.Add(img.Bytes())
		f.Add(img.Bytes()[:img.Len()/2])
	}
	f.Add([]byte("AMNTCKP1\xff\xff\xff\xff"))
	f.Add([]byte("AMNTCKP1\x03\x00\x00\x00bmf"))
	f.Fuzz(func(t *testing.T, img []byte) {
		for _, p := range []Policy{NewLeaf(), NewBMF()} {
			c := writtenController(t, p, 11)
			root, nv, dev := checkpointState(t, c)
			alloc, err := loadAllocs(c, img)
			// Slabs and index tables for the blocks an image actually
			// carries, and a few KiB of buffers.
			if limit := uint64(1<<20 + 64*len(img)); alloc > limit {
				t.Fatalf("%s: a %d-byte image allocated %d bytes", p.Name(), len(img), alloc)
			}
			if err == nil {
				continue
			}
			root2, nv2, dev2 := checkpointState(t, c)
			if !bytes.Equal(root, root2) || !bytes.Equal(nv, nv2) || !bytes.Equal(dev, dev2) {
				t.Fatalf("%s: image refused (%v) but the controller changed", p.Name(), err)
			}
		}
	})
}
