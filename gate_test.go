// The CI workflow is a list of scripts/check.sh calls: every command a
// job runs lives in the script, so a job and a local run of its mode
// cannot drift apart.
package amnt_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// workflowSteps are the only actions a CI job may use besides its one
// check.sh call.
var workflowSteps = []string{"actions/checkout@v4", "actions/setup-go@v5", "actions/upload-artifact@v4"}

// TestCIRunsOnlyCheckScript: .github/workflows/ci.yml stays at most 120
// lines, each job has exactly one `run:` step and it is
// `./scripts/check.sh <mode>`, no other action is used, and every mode
// check.sh defines is run by some job.
func TestCIRunsOnlyCheckScript(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("scripts/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(ci), "\n"), "\n")
	if len(lines) > 120 {
		t.Errorf("ci.yml has %d lines, want at most 120", len(lines))
	}

	jobRe := regexp.MustCompile(`^  ([A-Za-z0-9_-]+):\s*$`)
	runRe := regexp.MustCompile(`^\s+(?:- )?run:\s*(.*)$`)
	checkRe := regexp.MustCompile(`^\./scripts/check\.sh ([a-z0-9]+)$`)
	usesRe := regexp.MustCompile(`^\s+(?:- )?uses:\s*(\S+)`)
	runs := map[string]int{} // job -> run steps
	used := map[string]bool{}
	job, inJobs := "", false
	for i, line := range lines {
		switch {
		case line == "jobs:":
			inJobs = true
			continue
		case !inJobs:
			continue
		}
		if m := jobRe.FindStringSubmatch(line); m != nil {
			job = m[1]
			runs[job] = 0
			continue
		}
		if m := runRe.FindStringSubmatch(line); m != nil {
			runs[job]++
			mode := checkRe.FindStringSubmatch(strings.TrimSpace(m[1]))
			if mode == nil {
				t.Errorf("ci.yml:%d: job %s runs %q; a step may only run ./scripts/check.sh <mode>", i+1, job, strings.TrimSpace(m[1]))
				continue
			}
			used[mode[1]] = true
			continue
		}
		if m := usesRe.FindStringSubmatch(line); m != nil && !slices.Contains(workflowSteps, m[1]) {
			t.Errorf("ci.yml:%d: job %s uses %s; allowed: %v", i+1, job, m[1], workflowSteps)
		}
	}
	if len(runs) == 0 {
		t.Fatal("ci.yml defines no jobs")
	}
	for job, n := range runs {
		if n != 1 {
			t.Errorf("job %s has %d run steps, want 1", job, n)
		}
	}

	modes := regexp.MustCompile(`(?m)^mode_([a-z0-9]+)\(\)`).FindAllStringSubmatch(string(script), -1)
	defined := map[string]bool{}
	for _, m := range modes {
		defined[m[1]] = true
		if !used[m[1]] {
			t.Errorf("check.sh mode %s is run by no CI job", m[1])
		}
	}
	for mode := range used {
		if !defined[mode] {
			t.Errorf("ci.yml runs check.sh mode %s, which check.sh does not define", mode)
		}
	}
}
