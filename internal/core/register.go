package core

import "amnt/internal/mee"

// The AMNT family self-registers with the mee policy registry, so any
// package that imports internal/core (internal/sim does) can build
// these protocols by name. "amnt++" is the amnt policy run on the
// modified kernel: the factory is identical and the machine builder
// flips its allocator flag when that name is selected. "amnt-multi"
// is the same policy with PolicyOptions.Registers fast subtrees.
func init() {
	mee.Register("amnt", func(o mee.PolicyOptions) mee.Policy {
		return New(WithLevel(o.SubtreeLevel))
	})
	mee.Register("amnt++", func(o mee.PolicyOptions) mee.Policy {
		return New(WithLevel(o.SubtreeLevel))
	})
	mee.Register("amnt-multi", func(o mee.PolicyOptions) mee.Policy {
		a := New(WithLevel(o.SubtreeLevel), WithRegisters(o.Registers))
		a.name = "amnt-multi"
		return a
	})
	mee.Register("indirect", func(o mee.PolicyOptions) mee.Policy {
		return NewIndirect(WithLevel(o.SubtreeLevel))
	})
}
