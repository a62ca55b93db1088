// Tests for the cross-run verdict cache: a hit replays the recorded
// removal sequence bit-identically and skips every equivalence check,
// the content key separates problems that differ in guards or
// comparison mode, eviction is oldest-first, the obs counters count
// every hit and miss, and a hit logs the miss's decision record.
package core_test

import (
	"context"
	"encoding/json"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/workload"
)

func TestVerdictCacheHitBitIdentical(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	vc := core.NewVerdictCache(0)
	reg := obs.NewRegistry()
	cold, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if cold.VerdictCacheHit {
		t.Fatal("first run reported a verdict cache hit")
	}
	warm, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.VerdictCacheHit {
		t.Fatal("second run missed the verdict cache")
	}
	if warm.EquivalenceChecks != 0 {
		t.Errorf("replayed run performed %d equivalence checks, want 0", warm.EquivalenceChecks)
	}
	if warm.Minimal.String() != cold.Minimal.String() {
		t.Errorf("replayed minimal set differs:\ncold:\n%s\nwarm:\n%s", cold.Minimal, warm.Minimal)
	}
	if removedString(warm) != removedString(cold) {
		t.Errorf("replayed removal order differs:\ncold:\n%s\nwarm:\n%s", removedString(cold), removedString(warm))
	}
	requireVerdictCounters(t, reg, 1, 1)
}

// requireVerdictCounters checks the registry's verdict-cache hit and
// miss counters.
func requireVerdictCounters(t *testing.T, reg *obs.Registry, hits, misses int64) {
	t.Helper()
	if got := reg.Counter("minimize_verdict_cache_hits_total").Value(); got != hits {
		t.Errorf("minimize_verdict_cache_hits_total = %d, want %d", got, hits)
	}
	if got := reg.Counter("minimize_verdict_cache_misses_total").Value(); got != misses {
		t.Errorf("minimize_verdict_cache_misses_total = %d, want %d", got, misses)
	}
}

// TestVerdictCacheKeySensitivity: anything a verdict depends on is part
// of the key — the comparison mode and the guard context must not share
// entries with the default run.
func TestVerdictCacheKeySensitivity(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	vc := core.NewVerdictCache(0)
	reg := obs.NewRegistry()
	first, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if first.VerdictCacheHit {
		t.Error("first run reported a verdict cache hit")
	}
	strict, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg, StrictAnnotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if strict.VerdictCacheHit {
		t.Error("StrictAnnotations run replayed the guard-context entry")
	}
	guards := map[core.Node]cond.Expr{
		core.ActivityNode("recClient_po"): cond.Lit("if_au", "T"),
	}
	guarded, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg, Guards: guards})
	if err != nil {
		t.Fatal(err)
	}
	if guarded.VerdictCacheHit {
		t.Error("run with an overridden guard context replayed the default entry")
	}
	requireVerdictCounters(t, reg, 0, 3)
	if vc.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3 distinct keys", vc.Len())
	}
}

// TestVerdictCacheEviction: capacity bounds entries oldest-first, so a
// one-entry cache alternating between two problems never hits.
func TestVerdictCacheEviction(t *testing.T) {
	a := conditionalWorkload(t, 16)
	_, b, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	vc := core.NewVerdictCache(1)
	reg := obs.NewRegistry()
	for i := 0; i < 2; i++ {
		for _, sc := range []*core.ConstraintSet{a, b} {
			res, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if res.VerdictCacheHit {
				t.Error("hit on a one-entry cache under an alternating working set")
			}
		}
	}
	if vc.Len() != 1 {
		t.Errorf("cache holds %d entries, capacity is 1", vc.Len())
	}
	requireVerdictCounters(t, reg, 0, 4)
}

// TestVerdictCacheDecisionRecord: a verdict-cache hit logs the same
// decision record as the miss that filled the entry — the removed
// constraints byte-identical and in removal order — with checks and
// pairs at 0, as in MinimizeResult.
func TestVerdictCacheDecisionRecord(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := workload.Layered(16, 16, 0.3, 1).WithShortcuts(16).WithDecisions(1).Constraints()
	if err != nil {
		t.Fatal(err)
	}
	layered, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		name string
		sc   *core.ConstraintSet
	}{{"purchasing", asc}, {"layered-16x16", layered}} {
		t.Run(fx.name, func(t *testing.T) {
			vc := core.NewVerdictCache(0)
			var miss, hit decisionRecorder
			cold, err := core.MinimizeOpt(context.Background(), fx.sc, core.MinimizeOptions{VerdictCache: vc, Events: &miss})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := core.MinimizeOpt(context.Background(), fx.sc, core.MinimizeOptions{VerdictCache: vc, Events: &hit})
			if err != nil {
				t.Fatal(err)
			}
			if cold.VerdictCacheHit || !warm.VerdictCacheHit {
				t.Fatalf("verdict cache hit = %v then %v, want a miss then a hit", cold.VerdictCacheHit, warm.VerdictCacheHit)
			}
			if miss.decision == nil || hit.decision == nil {
				t.Fatal("a run logged no decision record")
			}
			if len(cold.Removed) == 0 {
				t.Fatal("fixture removes nothing — the comparison is vacuous")
			}
			missJSON, err := json.Marshal(miss.decision.Removed)
			if err != nil {
				t.Fatal(err)
			}
			hitJSON, err := json.Marshal(hit.decision.Removed)
			if err != nil {
				t.Fatal(err)
			}
			if string(missJSON) != string(hitJSON) {
				t.Errorf("removed lists differ:\nmiss %s\nhit  %s", missJSON, hitJSON)
			}
			if len(miss.decision.Removed) != len(cold.Removed) {
				t.Errorf("miss decision lists %d removals, result %d", len(miss.decision.Removed), len(cold.Removed))
			}
			if miss.decision.Candidates != hit.decision.Candidates || miss.decision.Candidates != cold.EquivalenceChecks {
				t.Errorf("candidates miss/hit = %d/%d, want %d", miss.decision.Candidates, hit.decision.Candidates, cold.EquivalenceChecks)
			}
			if miss.decision.Checks != cold.EquivalenceChecks || miss.decision.Pairs != cold.PairComparisons {
				t.Errorf("miss checks/pairs = %d/%d, result %d/%d", miss.decision.Checks, miss.decision.Pairs, cold.EquivalenceChecks, cold.PairComparisons)
			}
			if hit.decision.Checks != 0 || hit.decision.Pairs != 0 {
				t.Errorf("hit checks/pairs = %d/%d, want 0/0", hit.decision.Checks, hit.decision.Pairs)
			}
		})
	}
}
