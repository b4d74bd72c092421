package core

import (
	"bytes"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// movingPolicy is one movable-subtree protocol built with a given
// tracking interval over testDevice.
type movingPolicy struct {
	name string
	mk   func(interval int) mee.Policy
}

var movingPolicies = []movingPolicy{
	{"amnt", func(n int) mee.Policy { return New(WithInterval(n)) }},
	{"indirect", func(n int) mee.Policy { return NewIndirect(WithInterval(n)) }},
	{"amnt-multi", func(n int) mee.Policy { return New(WithInterval(n), WithRegisters(1)) }},
}

// TestMoveAtEpochBoundary replays the histories in which the subtree
// moves from region 0 to region 5 (the two share level-2 node 0) in
// the same epoch as a write to the region it leaves. Ancestors that
// write classified against the old subtree left lazy must be durable
// before the move, or recovery cannot patch the new subtree's path
// into a root the register agrees with.
func TestMoveAtEpochBoundary(t *testing.T) {
	cases := []struct {
		name     string
		interval int
		epochs   [][]uint64 // data blocks, one epoch per inner slice (WriteBlock for one)
	}{
		// The interval ends on block 0's own write.
		{"per-op", 3, [][]uint64{{2560}, {2561}, {0}}},
		// The interval ends on block 0, first of a 2-put epoch.
		{"epoch-ends-on-first", 3, [][]uint64{{2560}, {2561}, {0, 2562}}},
		// The interval ends on 2562, after block 0 in the same epoch:
		// re-classifying each write after its interval check would
		// leave both writes' level-2 ancestor lazy.
		{"epoch-ends-on-last", 4, [][]uint64{{2560}, {2561}, {0, 2562}}},
	}
	for _, tc := range cases {
		for _, p := range movingPolicies {
			t.Run(tc.name+"/"+p.name, func(t *testing.T) {
				c := mee.New(testDevice(), mee.DefaultConfig(), p.mk(tc.interval))
				want := make(map[uint64][]byte)
				for i, blocks := range tc.epochs {
					if len(blocks) == 1 {
						want[blocks[0]] = pattern(byte(i))
						if _, err := c.WriteBlock(0, blocks[0], want[blocks[0]]); err != nil {
							t.Fatal(err)
						}
						continue
					}
					e := c.BeginEpoch(0)
					for _, b := range blocks {
						want[b] = pattern(byte(i) ^ byte(b))
						if err := e.Put(b, want[b]); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := e.Commit(); err != nil {
						t.Fatalf("epoch %d: %v", i, err)
					}
				}
				checkRecovers(t, c, want)
			})
		}
	}
}

// checkRecovers power-cycles c and requires a clean recovery, a
// verifiable tree and every block in want readable with its value.
func checkRecovers(t *testing.T, c *mee.Controller, want map[uint64][]byte) {
	t.Helper()
	c.Crash()
	if _, err := c.Recover(0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := c.VerifyAll(0); err != nil {
		t.Fatalf("verify after recovery: %v", err)
	}
	got := make([]byte, scm.BlockSize)
	for b, v := range want {
		if _, err := c.ReadBlock(0, b, got); err != nil {
			t.Fatalf("read %d: %v", b, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("block %d lost its value", b)
		}
	}
}
