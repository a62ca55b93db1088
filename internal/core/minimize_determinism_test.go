// Determinism property tests for the candidate engine: the minimal
// set, the removal order and the equivalence-check count must be
// bit-identical across every engine configuration — closure cache
// on/off, verdict cache cold/warm — the pair-comparison count must
// repeat exactly across runs of one configuration, and Workers must
// report 1.
package core_test

import (
	"context"
	"fmt"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/obs"
)

// TestMinimizeDeterminismMatrix sweeps the engine matrix on the
// layered conditional workload: repeated runs × verdict cache
// off/shared at n=512, plus the closure-cache-off axis on the n=64
// sweep only, because the naive engine re-derives every closure per
// candidate and takes minutes at n=512 (it is the baseline this engine
// exists to beat — see BENCH_minimize.json). Every full cached run must
// also repeat the reference run's PairComparisons: the tally depends on
// the input alone.
func TestMinimizeDeterminismMatrix(t *testing.T) {
	for _, n := range []int{64, 512} {
		n := n
		t.Run(fmt.Sprintf("activities=%d", n), func(t *testing.T) {
			if n > 64 && testing.Short() {
				t.Skip("large workload skipped in -short mode")
			}
			sc := conditionalWorkload(t, n)
			ref, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Removed) == 0 {
				t.Fatal("workload has no redundancy — the matrix would compare empty removal sequences")
			}

			vc := core.NewVerdictCache(0)
			reg := obs.NewRegistry()
			vcRuns := 0
			for run := 1; run <= 3; run++ {
				for _, cache := range []*core.VerdictCache{nil, vc} {
					name := fmt.Sprintf("run=%d/vcache=%v", run, cache != nil)
					res, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{VerdictCache: cache, Metrics: reg})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.VerdictCacheHit {
						// A replay runs no equivalence checks, so compare
						// the outcome, not the work counters.
						if res.Minimal.String() != ref.Minimal.String() || removedString(res) != removedString(ref) {
							t.Errorf("%s: replayed result differs from reference run", name)
						}
						if res.EquivalenceChecks != 0 {
							t.Errorf("%s: replayed run reports %d equivalence checks, want 0", name, res.EquivalenceChecks)
						}
					} else {
						requireIdentical(t, name, ref, res)
						if res.PairComparisons != ref.PairComparisons {
							t.Errorf("%s: PairComparisons = %d, reference = %d", name, res.PairComparisons, ref.PairComparisons)
						}
					}
					if res.Respeculated != 0 {
						t.Errorf("%s: Respeculated = %d, want 0", name, res.Respeculated)
					}
					if cache != nil {
						vcRuns++
						if wantHit := vcRuns > 1; res.VerdictCacheHit != wantHit {
							t.Errorf("%s: VerdictCacheHit = %v, want %v", name, res.VerdictCacheHit, wantHit)
						}
					}
				}
			}
			requireVerdictCounters(t, reg, int64(vcRuns-1), 1)
			if n <= 64 {
				// Closure-cache-off axis (the naive Def. 6 engine).
				res, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{NoCache: true})
				if err != nil {
					t.Fatalf("nocache: %v", err)
				}
				requireIdentical(t, "nocache", ref, res)
			}
		})
	}
}

// TestMinimizeWorkersEffective: every check runs on the calling
// goroutine, so Workers is 1 — for a full run, for a verdict-cache
// replay and for the unconditional fast path alike. The fixture is a
// three-activity chain with one redundant shortcut.
func TestMinimizeWorkersEffective(t *testing.T) {
	proc := core.NewProcess("tiny")
	proc.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque, Writes: []string{"x"}})
	proc.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque, Reads: []string{"x"}, Writes: []string{"y"}})
	proc.MustAddActivity(&core.Activity{ID: "c", Kind: core.KindOpaque, Reads: []string{"y"}})
	deps := core.NewDependencySet()
	deps.Add(core.Dependency{From: core.ActivityNode("a"), To: core.ActivityNode("b"), Dim: core.Data, Label: "x"})
	deps.Add(core.Dependency{From: core.ActivityNode("b"), To: core.ActivityNode("c"), Dim: core.Data, Label: "y"})
	deps.Add(core.Dependency{From: core.ActivityNode("a"), To: core.ActivityNode("c"), Dim: core.Cooperation, Label: "shortcut"})
	sc, err := core.Merge(proc, deps)
	if err != nil {
		t.Fatal(err)
	}

	res, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 {
		t.Fatalf("removed %d constraints, want the shortcut only: %+v", len(res.Removed), res.Removed)
	}
	if res.Workers != 1 {
		t.Errorf("Workers = %d, want 1", res.Workers)
	}

	// A verdict-cache replay runs no checks at all and must say so.
	vc := core.NewVerdictCache(0)
	for i := 0; i < 2; i++ {
		if res, err = core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{VerdictCache: vc}); err != nil {
			t.Fatal(err)
		}
	}
	if !res.VerdictCacheHit {
		t.Fatal("second run with a shared verdict cache did not replay")
	}
	if res.Workers != 1 {
		t.Errorf("replayed run Workers = %d, want 1", res.Workers)
	}

	if res, err = core.MinimizeUnconditional(sc); err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("MinimizeUnconditional Workers = %d, want 1", res.Workers)
	}
}
