// Differential tests for the local pair test's windowed sweep: the
// annotation it computes at v must be structurally identical to the
// unrestricted closure sweep's, on every candidate edge of the paper's
// process and of the layered conditional workloads, so the window can
// change neither a verdict nor a tally.
package core_test

import (
	"context"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/workload"
)

type namedSet struct {
	name string
	sc   *core.ConstraintSet
}

// windowWorkloads are purchasing, the Bench C conditional shape at
// n=64 and n=256, and a 16×16 one-decision process shaped like the
// weave-heavy benchmark workload.
func windowWorkloads(t *testing.T) []namedSet {
	t.Helper()
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := workload.Layered(16, 16, 0.3, 11).WithShortcuts(16).WithDecisions(1).Constraints()
	if err != nil {
		t.Fatal(err)
	}
	out := []namedSet{
		{"purchasing", asc},
		{"layered/n=64", conditionalWorkload(t, 64)},
		{"layered/16x16/dec=1", heavy},
	}
	if !testing.Short() {
		out = append(out, namedSet{"layered/n=256", conditionalWorkload(t, 256)})
	}
	return out
}

func TestPairWindowSweepMatchesFullSweep(t *testing.T) {
	for _, w := range windowWorkloads(t) {
		compared, nonFalse, mismatches, err := core.PairSweepMismatches(w.sc)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, m := range mismatches {
			t.Errorf("%s: %s", w.name, m)
		}
		if nonFalse == 0 {
			t.Errorf("%s: none of %d edges has an alternate path — the comparison is vacuous", w.name, compared)
		}
	}
}

// TestPairTestFallbackMatchesNaive: the middle case — covered in guard
// context but not absolutely — falls back to the full frontier scan,
// which takes more than one pair comparison per candidate. Purchasing
// takes that path; its minimal set, and the n=64 workload's, must match
// the paper-naive NoCache engine's. (The naive engine takes seconds on
// the larger workloads.)
func TestPairTestFallbackMatchesNaive(t *testing.T) {
	fallback := false
	for _, w := range windowWorkloads(t)[:2] {
		res, err := core.MinimizeOpt(context.Background(), w.sc, core.MinimizeOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		naive, err := core.MinimizeOpt(context.Background(), w.sc, core.MinimizeOptions{Parallelism: 1, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		requireIdentical(t, w.name, naive, res)
		if res.PairComparisons > res.EquivalenceChecks {
			fallback = true
		}
	}
	if !fallback {
		t.Error("no workload took the middle-case fallback scan")
	}
}
