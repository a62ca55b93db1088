// Property tests for the closure-caching minimization engine: with the
// caches on or off the minimal set, the removal order and the
// equivalence-check count must be bit-identical to the naive path, and
// the result must stay transitive-equivalent to the input.
package core_test

import (
	"context"
	"fmt"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/workload"
)

// conditionalWorkload is the Bench C exact-conditional shape: a
// layered DAG with branch structure (decisions guard next-rank
// activities) and transitively redundant shortcut edges.
func conditionalWorkload(t testing.TB, n int) *core.ConstraintSet {
	t.Helper()
	w := workload.Layered(n/4, 4, 0.3, int64(n)).WithShortcuts(n / 4).WithDecisions(2)
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// removedString renders a removal list for comparison.
func removedString(res *core.MinimizeResult) string {
	s := ""
	for _, c := range res.Removed {
		s += c.String() + "\n"
	}
	return s
}

func requireIdentical(t *testing.T, what string, seq, got *core.MinimizeResult) {
	t.Helper()
	if seq.Minimal.String() != got.Minimal.String() {
		t.Errorf("%s: minimal set differs from reference run:\nref:\n%s\ngot:\n%s",
			what, seq.Minimal, got.Minimal)
	}
	if removedString(seq) != removedString(got) {
		t.Errorf("%s: removal order differs from reference run:\nref:\n%s\ngot:\n%s",
			what, removedString(seq), removedString(got))
	}
	if seq.EquivalenceChecks != got.EquivalenceChecks {
		t.Errorf("%s: EquivalenceChecks = %d, reference = %d",
			what, got.EquivalenceChecks, seq.EquivalenceChecks)
	}
}

func TestMinimizeParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		n := n
		t.Run(fmt.Sprintf("activities=%d", n), func(t *testing.T) {
			if n > 64 && testing.Short() {
				t.Skip("large workload skipped in -short mode")
			}
			sc := conditionalWorkload(t, n)

			// The cached run is the reference; the naive (seed-algorithm)
			// cross-check runs only on the smaller sizes — it re-derives
			// every closure per candidate and dominates wall-clock at
			// n=256.
			ref, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// The local pair test settles most candidates from a single
			// sweep without consulting the closure cache, so cache hits
			// are no longer guaranteed; the condition-equality memo is
			// exercised by every covering test and must be warm from
			// n=64 up.
			if n >= 64 && ref.CondMemoHits == 0 {
				t.Error("reference run: condition-equality memo never hit")
			}
			if n <= 64 {
				naive, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "naive", ref, naive)
				if naive.ClosureCacheHits != 0 || naive.CondMemoHits != 0 {
					t.Errorf("naive: cache counters nonzero with NoCache: %+v", naive)
				}
			}

			// The result must stay transitive-equivalent to the input
			// (Definition 5).
			eq, err := core.Equivalent(sc, ref.Minimal)
			if err != nil {
				t.Fatalf("Equivalent: %v", err)
			}
			if !eq {
				t.Error("minimal set not equivalent to input")
			}
		})
	}
}

// TestMinimizeParallelPurchasing pins the acceptance fixture: the
// paper's purchasing process minimizes to the same 17 constraints and
// the same removal order with the caches on as with the naive engine.
func TestMinimizeParallelPurchasing(t *testing.T) {
	_, asc, seqRes, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Minimal.Len() != 17 {
		t.Fatalf("purchasing minimal = %d constraints, want 17", seqRes.Minimal.Len())
	}
	naive, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "cached", naive, res)
	if res.Minimal.Len() != 17 {
		t.Errorf("cached: minimal = %d constraints, want 17", res.Minimal.Len())
	}
}

// TestAdapterParallelMatchesSequential checks that the adapter's
// incremental updates are engine-configuration-independent too.
func TestAdapterParallelMatchesSequential(t *testing.T) {
	w := workload.Layered(8, 4, 0.3, 5).WithShortcuts(8).WithDecisions(1)
	dep := core.Dependency{
		From: core.ActivityNode(w.Layer(1)[0]),
		To:   core.ActivityNode(w.Layer(6)[2]),
		Dim:  core.Cooperation, Label: "late rule",
	}
	minimals := map[string]string{}
	for _, cfg := range []struct {
		name string
		opts core.MinimizeOptions
	}{
		{"nocache", core.MinimizeOptions{NoCache: true}},
		{"cached", core.MinimizeOptions{}},
	} {
		a, err := core.NewAdapterOpt(w.Proc, w.Deps, cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Add(dep); err != nil {
			t.Fatal(err)
		}
		minimals[cfg.name] = a.Minimal().String()
	}
	if minimals["nocache"] != minimals["cached"] {
		t.Errorf("adapter minimal views diverge:\nnocache:\n%s\ncached:\n%s",
			minimals["nocache"], minimals["cached"])
	}
}
