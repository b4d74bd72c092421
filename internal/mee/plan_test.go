package mee_test

import (
	"bytes"
	"fmt"
	"testing"

	"amnt/internal/mee"
	"amnt/internal/scm"
)

// onlineProtocols are the registered protocols whose recovery plan may
// serve while it rebuilds.
var onlineProtocols = map[string]bool{"leaf": true, "amnt": true, "amnt++": true, "amnt-multi": true, "indirect": true}

// TestRegistryIdleSessionMatchesBlocking runs every registered
// protocol's recovery plan twice on identically seeded machines: once
// blocking, once as a session that serves nothing — BeginRecovery,
// Step and Finish where the plan is Online, the same executor stepped
// by hand where it is not. Report, error, root register and device tree
// bytes must agree, and exactly the protocols in onlineProtocols may
// open a session.
func TestRegistryIdleSessionMatchesBlocking(t *testing.T) {
	for _, proto := range mee.Registered() {
		t.Run(proto, func(t *testing.T) {
			blocking := newEpochTestController(t, proto)
			idle := newEpochTestController(t, proto)
			ops, vals := epochTestOps(400, blocking.Device().DataBlocks())
			for _, c := range []*mee.Controller{blocking, idle} {
				for i, b := range ops {
					if _, err := c.WriteBlock(0, b, vals[i]); err != nil {
						t.Fatalf("seed write %d: %v", i, err)
					}
				}
				c.Crash()
			}
			want, wantErr := blocking.Recover(0)

			s, ok := idle.BeginRecovery(0)
			if ok != onlineProtocols[proto] {
				t.Fatalf("BeginRecovery ok = %v, want %v", ok, onlineProtocols[proto])
			}
			var got mee.RecoveryReport
			var gotErr error
			if ok {
				for !s.Step(3) {
				}
				got, gotErr = s.Finish(0)
			} else {
				got, gotErr = mee.IdleSession(idle, 0, 3)
			}
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("idle session %+v (%v) != blocking %+v (%v)", got, gotErr, want, wantErr)
			}
			if blocking.Root() != idle.Root() {
				t.Fatal("root registers diverged")
			}
			bd, id := blocking.Device(), idle.Device()
			if len(bd.Indices(scm.Tree)) != len(id.Indices(scm.Tree)) {
				t.Fatal("tree node counts diverged")
			}
			for _, flat := range bd.Indices(scm.Tree) {
				if !bytes.Equal(bd.Peek(scm.Tree, flat), id.Peek(scm.Tree, flat)) {
					t.Fatalf("tree node %d diverged", flat)
				}
			}
		})
	}
}
