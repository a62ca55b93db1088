// Tests for the cross-run verdict cache: a hit replays the recorded
// removal sequence bit-identically and skips every equivalence check,
// the content key separates problems that differ in guards or
// comparison mode, eviction is oldest-first, the obs counters count
// every hit and miss, and a hit logs the miss's decision record.
package core_test

import (
	"context"
	"encoding/json"
	"strings"
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

// guardedFixture is a0 → dec, dec →[dec=T] a2 and a0 → a2. When the
// dec → a2 edge is a control dependency, a2 runs only under dec=T and
// the unconditional a0 → a2 is redundant; as a data edge it guards
// nothing and a0 → a2 stays.
func guardedFixture(controlOrigin core.Dimension) *core.ConstraintSet {
	p := core.NewProcess("guarded")
	p.MustAddActivity(&core.Activity{ID: "a0", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "dec", Kind: core.KindDecision})
	p.MustAddActivity(&core.Activity{ID: "a2", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Before("a0", "dec", core.Data)
	s.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("dec", core.Finish), To: core.PointOf("a2", core.Start),
		Cond: cond.Lit("dec", "T"), Origins: []core.Dimension{controlOrigin}})
	s.Before("a0", "a2", core.Data)
	return s
}

// TestVerdictCacheKeyHashesControlOrigin: the key stands in for the
// derived guards by hashing what they derive from, so two sets that
// differ only in one constraint's Control origin — and hence in their
// guards and their minimal sets — must not share an entry. A key that
// dropped the guards without hashing the origin would serve the second
// set the first one's removals.
func TestVerdictCacheKeyHashesControlOrigin(t *testing.T) {
	control, data := guardedFixture(core.Control), guardedFixture(core.Data)
	vc := core.NewVerdictCache(0)
	reg := obs.NewRegistry()
	for _, sc := range []*core.ConstraintSet{control, data} {
		want, err := core.Minimize(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if got.VerdictCacheHit {
			t.Errorf("%s: served by an entry of a set with other guards", sc)
		}
		if got.Minimal.String() != want.Minimal.String() {
			t.Errorf("minimal set differs from an uncached run:\nwant:\n%s\ngot:\n%s", want.Minimal, got.Minimal)
		}
	}
	requireVerdictCounters(t, reg, 0, 2)
	a, err := core.Minimize(control)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Minimize(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Removed) != 1 || len(b.Removed) != 0 {
		t.Fatalf("fixture removes %d and %d constraints, want 1 and 0 — the origin no longer matters", len(a.Removed), len(b.Removed))
	}
}

// TestVerdictCacheCorruptEntryFallsBack: an entry whose indices do not
// fit the input — out of range, repeated, or naming a constraint that
// is not HappenBefore — is not replayed. The run falls back to a full
// minimization, counts a miss, and overwrites the entry, so the next
// run is a hit with the same answer.
func TestVerdictCacheCorruptEntryFallsBack(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewConstraintSet(asc.Proc)
	for i := 0; i < asc.Len(); i++ {
		sc.Add(asc.At(i))
	}
	sc.Add(core.Constraint{Rel: core.Exclusive, From: core.PointOf(purchasing.InvPurchasePo, core.Run),
		To: core.PointOf(purchasing.InvProductionPo, core.Run), Cond: cond.True()})
	exclusive := sc.Len() - 1
	want, err := core.Minimize(sc)
	if err != nil {
		t.Fatal(err)
	}
	hb := -1 // a HappenBefore constraint the minimization keeps
	for i := 0; i < sc.Len() && hb < 0; i++ {
		if c := sc.At(i); c.Rel == core.HappenBefore && !strings.Contains(removedString(want), c.String()+"\n") {
			hb = i
		}
	}
	if hb < 0 {
		t.Fatal("fixture keeps no HappenBefore constraint")
	}
	for _, tc := range []struct {
		name    string
		removed []int
	}{
		{"out of range", []int{sc.Len()}},
		{"negative", []int{-1}},
		{"repeated", []int{hb, hb}},
		{"not HappenBefore", []int{exclusive}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vc := core.NewVerdictCache(0)
			vc.Plant(sc, nil, false, tc.removed)
			reg := obs.NewRegistry()
			for run, hit := range []bool{false, true} {
				got, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{VerdictCache: vc, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				if got.VerdictCacheHit != hit {
					t.Errorf("run %d: verdict cache hit = %v, want %v", run, got.VerdictCacheHit, hit)
				}
				if got.Minimal.String() != want.Minimal.String() || removedString(got) != removedString(want) {
					t.Errorf("run %d: result differs from an uncached run:\nwant:\n%s\ngot:\n%s", run, want.Minimal, got.Minimal)
				}
			}
			requireVerdictCounters(t, reg, 1, 1)
		})
	}
}
