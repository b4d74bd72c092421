package core

import (
	"fmt"

	"amnt/internal/counters"
	"amnt/internal/mee"
)

// Indirect models the indirection-based fast-tree family (ProMT,
// Bo-Tree) the paper argues against in §7.3: the persistence protocol
// an access should use is recorded in an in-memory membership table
// rather than derived from the address. The hot-region mechanics are
// identical to AMNT (same tracker, same fast subtree, same recovery)
// — the difference under measurement is exactly the two §7.3 costs:
//
//  1. every access must fetch its membership entry before the
//     authentication path can proceed (an extra metadata-cache access,
//     a device read when it misses), and
//  2. the table itself occupies memory and competes for metadata
//     cache capacity.
type Indirect struct {
	*AMNT
	// PagesPerEntry is how many 4 kB pages one 64 B table block
	// describes (64 one-byte entries by default).
	PagesPerEntry uint64
	lookups       uint64
}

// NewIndirect returns an indirection-table policy wrapping AMNT.
func NewIndirect(opts ...Option) *Indirect {
	a := New(opts...)
	a.name = "indirect"
	return &Indirect{AMNT: a, PagesPerEntry: 64}
}

// tableBlock maps a data block to its membership-table block.
func (p *Indirect) tableBlock(dataBlock uint64) uint64 {
	return counters.CounterIndex(dataBlock) / p.PagesPerEntry
}

// lookup charges the membership fetch that must precede verification.
func (p *Indirect) lookup(now uint64, dataBlock uint64) uint64 {
	p.lookups++
	return p.ctrl.FetchShadow(now, p.tableBlock(dataBlock))
}

// Lookups reports how many membership fetches were performed.
func (p *Indirect) Lookups() uint64 { return p.lookups }

// OnDataRead implements mee.Policy: reads cannot start verification
// until the indirection entry arrives.
func (p *Indirect) OnDataRead(now uint64, dataBlock uint64) uint64 {
	return p.lookup(now, dataBlock)
}

// ConcurrentReadSafe shadows AMNT's opt-in: Indirect's reads charge a
// shadow-table fetch through the metadata cache (lookup above), which
// the untimed concurrent view cannot replay. Reads stay serialized.
func (*Indirect) ConcurrentReadSafe() bool { return false }

// OnDataWrite implements mee.Policy: the lookup plus AMNT's tracking.
func (p *Indirect) OnDataWrite(now uint64, dataBlock uint64) uint64 {
	cycles := p.lookup(now, dataBlock)
	return cycles + p.AMNT.OnDataWrite(now+cycles, dataBlock)
}

// Overhead implements mee.Policy: AMNT's registers plus the in-memory
// membership table (one byte per page) — §7.3's "in-memory storage
// overheads".
func (p *Indirect) Overhead() mee.Overhead {
	o := p.AMNT.Overhead()
	if p.ctrl != nil {
		o.InMemoryBytes += p.ctrl.Geometry().Leaves // 1 B per page
	}
	return o
}

// String describes the configuration.
func (p *Indirect) String() string {
	return fmt.Sprintf("indirect(%s, %d pages/entry)", p.AMNT.String(), p.PagesPerEntry)
}
