package faults

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"amnt/internal/bmt"
	"amnt/internal/mee"
	"amnt/internal/scm"
)

// Status classifies one crash/recovery cell.
type Status int

const (
	// StatusRecovered: recovery succeeded and the recovered state
	// passed every independent check (oracle root, whole-memory
	// verification, corruption audit).
	StatusRecovered Status = iota
	// StatusDetected: the corruption (or unrecoverable loss) surfaced
	// loudly — recovery returned an integrity error, or post-recovery
	// verification did. This is the guaranteed outcome for tampering.
	StatusDetected
	// StatusViolation: the protocol broke its contract — recovery
	// panicked, hung past the deadline, failed a plain crash it claims
	// to survive, or silently accepted corrupted state.
	StatusViolation
)

var statusNames = [...]string{"recovered", "detected", "violation"}

func (s Status) String() string {
	if s < 0 || int(s) >= len(statusNames) {
		return fmt.Sprintf("status(%d)", int(s))
	}
	return statusNames[s]
}

// CheckOptions parameterizes one invariant check.
type CheckOptions struct {
	// Injections are the faults applied before recovery (empty for a
	// pure crash).
	Injections []Injection
	// Deadline bounds recovery's host wall time; past it the cell is a
	// violation ("recovery did not terminate"). 0 = DefaultDeadline.
	Deadline time.Duration
	// PlainCrashMayFail marks protocols that are not crash consistent
	// by design (the volatile baseline): a loud recovery failure after
	// a pure crash is their documented behaviour, not a violation.
	PlainCrashMayFail bool
}

// DefaultDeadline is the per-cell recovery deadline: far above any
// real recovery on harness-sized machines, low enough that a wedged
// protocol fails its cell instead of the sweep.
const DefaultDeadline = 10 * time.Second

// Outcome is the checker's verdict for one cell.
type Outcome struct {
	Status Status
	// Report is the policy's recovery report (zero when recovery
	// panicked or timed out).
	Report mee.RecoveryReport
	// RecoveryErr/VerifyErr are the loud failures, when any.
	RecoveryErr string
	VerifyErr   string
	// Violations lists every broken invariant (empty unless Status is
	// StatusViolation).
	Violations []string
	// Resolutions says what happened to each injection, parallel to
	// CheckOptions.Injections: "detected", "repaired", "reverted",
	// "rebuilt", or "forged" (the violation case).
	Resolutions []string
	// RecoverWall is recovery's host time (not simulated cycles); it
	// is informational and excluded from deterministic encodings.
	RecoverWall time.Duration
}

// CheckRecovery runs the active policy's recovery on a crashed,
// possibly fault-injected controller and checks every invariant:
//
//  1. Recovery terminates within the deadline and does not panic.
//  2. On success, every persisted data block verifies (VerifyAll).
//     This runs first because it authenticates the counters against
//     the tree: a protocol whose recovery does not consume every
//     counter (AMNT trusts persisted nodes outside its fast subtree)
//     legitimately detects a counter tamper here, not during recovery.
//  3. With the counters verified, the root register must equal the
//     shadow oracle — an independent bottom-up rebuild from the
//     persisted counters that shares no code path with any policy's
//     own recovery. A mismatch past a green VerifyAll is silently
//     accepted inconsistency.
//  4. Injected corruption is repaired or detected, never silently
//     accepted: a Data-region block that still carries tampered bytes
//     under a fully green recovery means a forged MAC.
//
// A pure crash must recover (unless PlainCrashMayFail); any injected
// fault may instead end in loud detection.
func CheckRecovery(ctx context.Context, ctrl *mee.Controller, now uint64, opts CheckOptions) Outcome {
	deadline := opts.Deadline
	if deadline <= 0 {
		deadline = DefaultDeadline
	}
	out := Outcome{}

	rep, rerr, completed := runRecovery(ctx, ctrl, now, deadline)
	if !completed {
		out.Status = StatusViolation
		out.Violations = append(out.Violations,
			fmt.Sprintf("recovery did not terminate within %v", deadline))
		out.Resolutions = resolutions(opts.Injections, "detected")
		return out
	}
	out.Report = rep.report
	out.RecoverWall = rep.wall
	if rep.panicked != "" {
		out.Status = StatusViolation
		out.Violations = append(out.Violations, "recovery panicked: "+rep.panicked)
		out.Resolutions = resolutions(opts.Injections, "detected")
		return out
	}

	injected := len(opts.Injections) > 0
	if rerr != nil {
		out.RecoveryErr = rerr.Error()
		if !injected && !opts.PlainCrashMayFail {
			out.Status = StatusViolation
			out.Violations = append(out.Violations,
				"recovery failed after a plain crash: "+rerr.Error())
			return out
		}
		out.Status = StatusDetected
		out.Resolutions = resolutions(opts.Injections, "detected")
		return out
	}

	// Recovery claims success: authenticate the persisted state first.
	// VerifyAll walks every data block through its counter up to the
	// root, so it is where a tamper that recovery had no reason to read
	// (a counter outside AMNT's fast subtree, say) surfaces loudly.
	if verr := ctrl.VerifyAll(now); verr != nil {
		out.VerifyErr = verr.Error()
		if !injected {
			out.Status = StatusViolation
			out.Violations = append(out.Violations,
				"persisted data failed verification after a plain-crash recovery: "+verr.Error())
			return out
		}
		out.Status = StatusDetected
		out.Resolutions = resolutions(opts.Injections, "detected")
		return out
	}

	// The counters are now vouched for, so the shadow oracle — an
	// independent bottom-up rebuild from them, immune to whatever
	// recovery wrote into the Tree region — must reproduce the root
	// register exactly. Divergence past a green VerifyAll is state the
	// controller accepted but cannot have derived from its own
	// counters: silent corruption.
	oracle := bmt.Rebuild(ctrl.Device(), ctrl.Engine(), ctrl.Geometry(), 1, 0, false)
	if oracle.Content != ctrl.Root() {
		out.Status = StatusViolation
		out.Violations = append(out.Violations,
			"recovered root register diverges from the shadow oracle tree")
		out.Resolutions = resolutions(opts.Injections, "forged")
		return out
	}

	// Fully green: audit that no injected corruption survived. Counter
	// and Tree blocks are vouched for by the oracle + verification
	// walk (their correct content is a function of state the checks
	// cover); Data blocks are not rewritten by any recovery, so
	// tampered-but-verifying data is a forged MAC.
	out.Status = StatusRecovered
	for _, in := range opts.Injections {
		res := "rebuilt"
		cur := ctrl.Device().Peek(in.Region, in.Index)
		switch {
		case cur == nil && in.Original == nil:
			res = "reverted"
		case cur == nil:
			// Reverted to never-written: the lost write was a first
			// touch, which legitimately reads back as zeros.
			res = "reverted"
		case bytes.Equal(cur, in.Original):
			res = "repaired"
		case in.Region == scm.Data:
			out.Status = StatusViolation
			out.Violations = append(out.Violations, fmt.Sprintf(
				"tampered data block %d passed verification (forged MAC)", in.Index))
			res = "forged"
		}
		out.Resolutions = append(out.Resolutions, res)
	}
	return out
}

func resolutions(ins []Injection, r string) []string {
	if len(ins) == 0 {
		return nil
	}
	out := make([]string, len(ins))
	for i := range out {
		out[i] = r
	}
	return out
}

type recoveryResult struct {
	report   mee.RecoveryReport
	wall     time.Duration
	panicked string
}

// runRecovery executes ctrl.Recover on its own goroutine so a wedged
// policy can be abandoned at the deadline (the goroutine leaks, but
// the cell — and only the cell — is failed; each cell owns its
// machine, so the leak touches nothing shared). completed=false means
// the deadline (or ctx) expired first.
func runRecovery(ctx context.Context, ctrl *mee.Controller, now uint64, deadline time.Duration) (recoveryResult, error, bool) {
	type done struct {
		res recoveryResult
		err error
	}
	ch := make(chan done, 1)
	start := time.Now()
	go func() {
		var d done
		defer func() {
			if r := recover(); r != nil {
				d.res.panicked = fmt.Sprintf("%v\n%s", r, debug.Stack())
			}
			d.res.wall = time.Since(start)
			ch <- d
		}()
		d.res.report, d.err = ctrl.Recover(now)
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case d := <-ch:
		return d.res, d.err, true
	case <-timer.C:
		return recoveryResult{}, nil, false
	case <-ctx.Done():
		return recoveryResult{}, nil, false
	}
}
