package store

import (
	"context"
	"math/rand"
	"time"

	"amnt/internal/faults"
	"amnt/internal/scm"
)

// ChaosSpec asks for one fault-injected power failure on a live
// shard.
type ChaosSpec struct {
	// Shard is the target shard.
	Shard int `json:"shard"`
	// Kind names the fault (faults.ParseKind: "none", "torn",
	// "drop", "reorder", "bitrot", ...).
	Kind string `json:"kind"`
	// Seed drives the fault-site choice deterministically.
	Seed int64 `json:"seed"`
}

// ChaosResult reports what the injected failure did to the shard.
// The contract the store enforces: a fault is repaired, recovered
// around, or loudly detected — never silently accepted. A Violation
// takes the shard out of service.
type ChaosResult struct {
	Shard int    `json:"shard"`
	Kind  string `json:"kind"`
	// Status is the checker verdict: "recovered", "detected", or
	// "violation".
	Status string `json:"status"`
	// Repaired is set when a detected fault was repaired in place
	// (media revert + re-recovery) and the shard resumed serving.
	Repaired bool `json:"repaired"`
	// Serving is whether the shard still accepts requests.
	Serving    bool     `json:"serving"`
	Injections []string `json:"injections"`
	// DataBlocks lists the data-region blocks the fault touched.
	// Under the weak persist model a "recovered" outcome may have
	// legally reverted exactly these blocks to an earlier durable
	// version (the persist was still in flight at the power failure);
	// every other block is untouched.
	DataBlocks  []uint64 `json:"data_blocks,omitempty"`
	Resolutions []string `json:"resolutions,omitempty"`
	Violations  []string `json:"violations,omitempty"`
	RecoveryErr string   `json:"recovery_err,omitempty"`
	VerifyErr   string   `json:"verify_err,omitempty"`
	WallMS      float64  `json:"wall_ms"`

	startErr error // spec rejection, surfaced as the op error
}

// Chaos injects a fault-laden power failure into a live shard and
// verifies recovery in place, from inside the shard's own worker (so
// the single-writer contract holds while the rest of the store keeps
// serving). Detected faults are repaired by reverting the injected
// media damage and re-running recovery; violations mark the shard
// failed.
func (s *Store) Chaos(ctx context.Context, spec ChaosSpec) (*ChaosResult, error) {
	sh, err := s.lookup(spec.Shard)
	if err != nil {
		return nil, err
	}
	if _, err := faults.ParseKind(spec.Kind); err != nil {
		return nil, err
	}
	sp := spec
	resp, err := s.submit(ctx, sh, request{op: opChaos, chaos: &sp})
	if err != nil {
		return nil, err
	}
	return resp.chaos, nil
}

// runChaos executes the crash sequence on the worker goroutine: leave
// serving, capture the in-flight persist window, power fail, apply the
// fault to the captured window, then run the full recovery invariant
// check. Afterwards the shard either resumes serving (recovered, or
// repaired by a blocking restart) or is failed (violation, or repair
// did not converge).
func (sh *shard) runChaos(spec ChaosSpec) *ChaosResult {
	res := &ChaosResult{Shard: sh.id, Kind: spec.Kind}
	kind, err := faults.ParseKind(spec.Kind)
	if err != nil {
		res.startErr = err
		return res
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	start := time.Now()

	sh.leave(stateRecoveringBlocking)
	sh.inj.CaptureWindow(sh.now)
	sh.ctrl.Crash()
	ins := sh.inj.Apply(rng, kind, sh.now)
	for _, in := range ins {
		res.Injections = append(res.Injections, in.String())
		if in.Region == scm.Data {
			res.DataBlocks = append(res.DataBlocks, in.Index)
		}
	}
	out := faults.CheckRecovery(context.Background(), sh.ctrl, sh.now, faults.CheckOptions{
		Injections: ins,
	})
	res.Status = out.Status.String()
	res.Resolutions = out.Resolutions
	res.Violations = out.Violations
	res.RecoveryErr = out.RecoveryErr
	res.VerifyErr = out.VerifyErr
	sh.m[cChaosRuns].Add(1)

	switch out.Status {
	case faults.StatusRecovered:
		sh.resume()
	case faults.StatusDetected:
		// The protocol caught the damage; the injection journal knows
		// the pre-fault durable content, so repair the media and
		// reboot — the secure-SCM equivalent of restoring the block
		// from a replica once the MEE flags it.
		for _, in := range ins {
			if in.Original != nil {
				sh.dev.ReplayBlock(in.Region, in.Index, in.Original)
			} else {
				sh.dev.Erase(in.Region, in.Index)
			}
		}
		res.Repaired = sh.restart(nil, true) == nil
	default: // StatusViolation: silent corruption — out of service.
		sh.fail()
	}

	res.Serving = sh.load() != stateQuarantined
	res.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	return res
}
