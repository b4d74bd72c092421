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
// protocol's recovery plan on identically seeded machines: blocking
// (Recover); as a session that serves nothing, stepped 3 leaves at a
// time whatever the plan; and through BeginRecovery — stepped and
// finished the same way where the plan is Online, finished inline where
// it is not. Verdict, root register and device tree bytes must agree
// (and the report, wherever it is returned), and exactly the protocols
// in onlineProtocols may open a session.
func TestRegistryIdleSessionMatchesBlocking(t *testing.T) {
	for _, proto := range mee.Registered() {
		t.Run(proto, func(t *testing.T) {
			blocking := newEpochTestController(t, proto)
			idle := newEpochTestController(t, proto)
			begun := newEpochTestController(t, proto)
			ops, vals := epochTestOps(400, blocking.Device().DataBlocks())
			for _, c := range []*mee.Controller{blocking, idle, begun} {
				for i, b := range ops {
					if _, err := c.WriteBlock(0, b, vals[i]); err != nil {
						t.Fatalf("seed write %d: %v", i, err)
					}
				}
				c.Crash()
			}
			want, wantErr := blocking.Recover(0)
			check := func(how string, c *mee.Controller, got mee.RecoveryReport, gotErr error) {
				t.Helper()
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %+v (%v) != blocking %+v (%v)", how, got, gotErr, want, wantErr)
				}
				sameTree(t, how, blocking, c)
			}

			got, gotErr := mee.IdleSession(idle, 0, 3)
			check("idle session", idle, got, gotErr)

			s, err := begun.BeginRecovery(0)
			if (s != nil) != onlineProtocols[proto] {
				t.Fatalf("BeginRecovery opened a session = %v, want %v (%v)", s != nil, onlineProtocols[proto], err)
			}
			if s == nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("inline recovery: %v, blocking: %v", err, wantErr)
				}
				sameTree(t, "inline recovery", blocking, begun)
				return
			}
			for !s.Step(3) {
			}
			got, gotErr = s.Finish(0)
			check("online session", begun, got, gotErr)
		})
	}
}

// sameTree fails unless b's root register and device tree bytes equal
// a's.
func sameTree(t *testing.T, how string, a, b *mee.Controller) {
	t.Helper()
	if a.Root() != b.Root() {
		t.Fatalf("%s: root registers diverged", how)
	}
	ad, bd := a.Device(), b.Device()
	if len(ad.Indices(scm.Tree)) != len(bd.Indices(scm.Tree)) {
		t.Fatalf("%s: tree node counts diverged", how)
	}
	for _, flat := range ad.Indices(scm.Tree) {
		if !bytes.Equal(ad.Peek(scm.Tree, flat), bd.Peek(scm.Tree, flat)) {
			t.Fatalf("%s: tree node %d diverged", how, flat)
		}
	}
}
