// Determinism property tests for the candidate engine: the minimal
// set, the removal order and the equivalence-check count must be
// bit-identical across every engine configuration — worker count,
// closure cache on/off, verdict cache cold/warm — and the Workers field
// must report the fan-out a run actually used, not the configured pool
// size.
package core_test

import (
	"context"
	"fmt"
	"testing"

	"dscweaver/internal/core"
)

// TestMinimizeDeterminismMatrix sweeps the full engine matrix on the
// layered conditional workload. The n=512 sweep covers workers ∈
// {1, 2, 8} × verdict cache off/shared; the
// closure-cache-off axis runs on the n=64 sweep only, because the
// naive engine re-derives every closure per candidate and takes
// minutes at n=512 (it is the baseline this engine exists to beat —
// see BENCH_minimize.json).
func TestMinimizeDeterminismMatrix(t *testing.T) {
	for _, n := range []int{64, 512} {
		n := n
		t.Run(fmt.Sprintf("activities=%d", n), func(t *testing.T) {
			if n > 64 && testing.Short() {
				t.Skip("large workload skipped in -short mode")
			}
			sc := conditionalWorkload(t, n)
			ref, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Removed) == 0 {
				t.Fatal("workload has no redundancy — the matrix would compare empty removal sequences")
			}

			vc := core.NewVerdictCache(0)
			vcRuns := 0
			for _, workers := range []int{1, 2, 8} {
				for _, cache := range []*core.VerdictCache{nil, vc} {
					opts := core.MinimizeOptions{Parallelism: workers, VerdictCache: cache}
					name := fmt.Sprintf("workers=%d/vcache=%v", workers, cache != nil)
					res, err := core.MinimizeOpt(context.Background(), sc, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.VerdictCacheHit {
						// A replay runs no equivalence checks, so compare
						// the outcome, not the work counters.
						if res.Minimal.String() != ref.Minimal.String() || removedString(res) != removedString(ref) {
							t.Errorf("%s: replayed result differs from sequential run", name)
						}
						if res.EquivalenceChecks != 0 {
							t.Errorf("%s: replayed run reports %d equivalence checks, want 0", name, res.EquivalenceChecks)
						}
					} else {
						requireIdentical(t, name, ref, res)
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
				if n <= 64 {
					// Closure-cache-off axis (the naive Def. 6 engine).
					opts := core.MinimizeOptions{Parallelism: workers, NoCache: true}
					name := fmt.Sprintf("workers=%d/nocache", workers)
					res, err := core.MinimizeOpt(context.Background(), sc, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireIdentical(t, name, ref, res)
				}
			}
			if hits, misses := vc.Hits(), vc.Misses(); hits != int64(vcRuns-1) || misses != 1 {
				t.Errorf("verdict cache hits/misses = %d/%d, want %d/1", hits, misses, vcRuns-1)
			}
		})
	}
}

// TestMinimizeWorkersEffective: Workers reports the maximum fan-out the
// run actually exercised, not the configured pool size. A three-activity
// chain with one redundant shortcut has at most two sweep sources per
// candidate, so a Parallelism=8 run must not claim 8 workers.
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

	res, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 {
		t.Fatalf("removed %d constraints, want the shortcut only: %+v", len(res.Removed), res.Removed)
	}
	if res.Workers < 1 || res.Workers > 2 {
		t.Errorf("Workers = %d, want the effective fan-out in [1, 2] — not the configured 8", res.Workers)
	}

	// A verdict-cache replay runs no checks at all and must say so.
	vc := core.NewVerdictCache(0)
	for i := 0; i < 2; i++ {
		if res, err = core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{Parallelism: 8, VerdictCache: vc}); err != nil {
			t.Fatal(err)
		}
	}
	if !res.VerdictCacheHit {
		t.Fatal("second run with a shared verdict cache did not replay")
	}
	if res.Workers != 1 {
		t.Errorf("replayed run Workers = %d, want 1", res.Workers)
	}
}
