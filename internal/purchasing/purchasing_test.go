package purchasing

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"dscweaver/internal/core"
)

func TestProcessValidates(t *testing.T) {
	if err := Process().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Counts(t *testing.T) {
	deps := Dependencies()
	counts := deps.CountByDimension()
	want := map[core.Dimension]int{
		core.Data:        9,
		core.Control:     10,
		core.Cooperation: 6,
		core.ServiceDim:  15,
	}
	for dim, n := range want {
		if counts[dim] != n {
			t.Errorf("Table 1 %s count = %d, want %d", dim, counts[dim], n)
		}
	}
	if deps.Len() != 40 {
		t.Errorf("Table 1 total = %d, want 40", deps.Len())
	}
	if err := deps.Validate(Process()); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFigure7(t *testing.T) {
	proc := Process()
	merged, err := core.Merge(proc, Dependencies())
	if err != nil {
		t.Fatal(err)
	}
	// The only duplicate pair across dimensions is
	// recPurchase_oi → replyClient_oi (data + cooperation), so the
	// merged P of Figure 7 has 39 constraints.
	if merged.Len() != 39 {
		t.Errorf("merged constraints = %d, want 39\n%s", merged.Len(), merged)
	}
	// The folded constraint must carry both origins.
	found := false
	for _, c := range merged.Constraints() {
		if c.From.Node.Activity == RecPurchaseOi && c.To.Node.Activity == ReplyClientOi {
			found = true
			if !c.HasOrigin(core.Data) || !c.HasOrigin(core.Cooperation) {
				t.Errorf("folded constraint origins = %v, want data+cooperation", c.Origins)
			}
		}
	}
	if !found {
		t.Error("recPurchase_oi → replyClient_oi missing from merged set")
	}
	if !merged.HasServiceNodes() {
		t.Error("merged set should still mention external nodes")
	}
}

func TestTranslateFigure8(t *testing.T) {
	proc := Process()
	merged, err := core.Merge(proc, Dependencies())
	if err != nil {
		t.Fatal(err)
	}
	asc, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	if asc.HasServiceNodes() {
		t.Fatalf("ASC still mentions external nodes: %v", asc.ServiceNodes())
	}
	// The paper's bold edges of Figure 8: the six service-derived
	// internal constraints.
	wantService := map[string]bool{
		"invCredit_po→recCredit_au":     false,
		"invPurchase_po→recPurchase_oi": false,
		"invPurchase_si→recPurchase_oi": false,
		"invPurchase_po→invPurchase_si": false, // Purchase₁ →s Purchase₂ anchored to the invokers
		"invShip_po→recShip_si":         false,
		"invShip_po→recShip_ss":         false,
	}
	serviceDerived := 0
	for _, c := range asc.Constraints() {
		if !c.HasOrigin(core.ServiceDim) {
			continue
		}
		serviceDerived++
		key := fmt.Sprintf("%s→%s", c.From.Node, c.To.Node)
		if _, ok := wantService[key]; !ok {
			t.Errorf("unexpected service-derived constraint %s", c)
			continue
		}
		wantService[key] = true
		if !c.Cond.IsTrue() {
			t.Errorf("service-derived constraint %s should be unconditional, got %v", c, c.Cond)
		}
	}
	for key, seen := range wantService {
		if !seen {
			t.Errorf("missing service-derived constraint %s", key)
		}
	}
	if serviceDerived != 6 {
		t.Errorf("service-derived constraints = %d, want 6", serviceDerived)
	}
	// ASC total: 24 internal constraints from data/control/cooperation
	// (9+10+6 minus the folded duplicate) + 6 translated = 30.
	if asc.Len() != 30 {
		t.Errorf("ASC constraints = %d, want 30\n%s", asc.Len(), asc)
	}
}

func TestMinimizeFigure9(t *testing.T) {
	_, _, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, c := range res.Minimal.Constraints() {
		key := fmt.Sprintf("%s→%s", c.From.Node, c.To.Node)
		got[key] = true
	}
	var missing, extra []string
	want := map[string]bool{}
	for _, e := range MinimalEdges() {
		key := fmt.Sprintf("%s→%s", e.From, e.To)
		want[key] = true
		if !got[key] {
			missing = append(missing, key)
		}
	}
	for key := range got {
		if !want[key] {
			extra = append(extra, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("Figure 9 mismatch\nmissing: %v\nextra: %v\nminimal set:\n%s", missing, extra, res.Minimal)
	}
	if res.Minimal.Len() != 17 {
		t.Errorf("minimal constraints = %d, want 17", res.Minimal.Len())
	}
}

func TestTable2Reduction(t *testing.T) {
	_, _, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	before := Dependencies().Len()
	after := res.Minimal.Len()
	if removed := before - after; removed != 23 {
		t.Errorf("Table 2: removed = %d (before %d, after %d), want 23", removed, before, after)
	}
}

func TestMinimalIsEquivalentToASC(t *testing.T) {
	_, asc, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	eq, err := core.Equivalent(asc, res.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("minimal set is not transitive-equivalent to the ASC")
	}
}

func TestMinimalIsActuallyMinimal(t *testing.T) {
	_, asc, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	// Definition 6, second property: no constraint of P* can be
	// removed while preserving equivalence with the original.
	cons := res.Minimal.Constraints()
	for i, c := range cons {
		if c.Rel != core.HappenBefore {
			continue
		}
		reduced := core.NewConstraintSet(res.Minimal.Proc)
		for j, d := range cons {
			if j != i {
				reduced.Add(d)
			}
		}
		eq, err := core.Equivalent(asc, reduced)
		if err != nil {
			t.Fatal(err)
		}
		if eq {
			t.Errorf("constraint %s is still redundant in the minimal set", c)
		}
	}
}

func TestExplainAllThirteenRemovals(t *testing.T) {
	// Every one of the 13 constraints removed from the ASC has a
	// witness: covering paths, or vacuousness. The headline case —
	// if_au → replyClient_oi — needs both branch paths.
	_, asc, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	removals, err := core.ExplainRemovals(res, guards)
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 13 {
		t.Fatalf("explanations = %d, want 13", len(removals))
	}
	for _, r := range removals {
		if !r.Vacuous && len(r.Paths) == 0 {
			t.Errorf("unjustified removal: %s", r)
		}
		if r.Constraint.From.Node.Activity == IfAu && r.Constraint.To.Node.Activity == ReplyClientOi {
			if len(r.Paths) < 2 {
				t.Errorf("branch-folded removal cited %d paths, want ≥ 2:\n%s", len(r.Paths), r)
			}
		}
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	_, asc, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.MinimizeOpt(context.Background(), res.Minimal, core.MinimizeOptions{Guards: guards})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Removed) != 0 {
		t.Errorf("second minimization removed %v", res2.Removed)
	}
}

func TestAblationStrictAnnotationsStopsAt20(t *testing.T) {
	// DESIGN.md's key design choice: equivalence must be judged in the
	// guard context of the endpoints. With verbatim annotation
	// comparison (the ablation), the guard-subsumed edges —
	// recClient_po into the three T-guarded invokes, plus
	// invPurchase_po → recPurchase_oi's conditional detour — survive,
	// and the paper's own example stops at 20 constraints instead of
	// Figure 9's 17.
	_, asc, _, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{StrictAnnotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Minimal.Len() != 20 {
		t.Errorf("strict-annotation minimal = %d constraints, want 20", res.Minimal.Len())
	}
	// The strict result is still equivalent — just not minimal.
	eq, err := core.Equivalent(asc, res.Minimal)
	if err != nil || !eq {
		t.Errorf("strict result not equivalent: %v %v", eq, err)
	}
	survivors := map[string]bool{}
	for _, c := range res.Minimal.Constraints() {
		survivors[fmt.Sprintf("%s→%s", c.From.Node, c.To.Node)] = true
	}
	for _, key := range []string{
		"recClient_po→invPurchase_po",
		"recClient_po→invShip_po",
		"recClient_po→invProduction_po",
	} {
		if !survivors[key] {
			t.Errorf("expected guard-subsumed edge %s to survive under strict annotations", key)
		}
	}
}

func TestConditionAnnotatedClosureOfRecClientPo(t *testing.T) {
	_, asc, _, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	members, err := core.TransitiveClosure(asc, RecClientPo)
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[string]string{}
	for _, m := range members {
		byNode[m.Node.String()] = m.Cond.String()
	}
	// Everything is reachable from the first activity.
	if len(byNode) != 13 {
		t.Errorf("closure size = %d, want 13 (%v)", len(byNode), byNode)
	}
	// Direct data edges make the T-branch activities unconditional in
	// the raw ASC closure (Definition 3 annotations change only after
	// minimization).
	for node, want := range map[string]string{
		"invCredit_po":   "⊤",
		"if_au":          "⊤",
		"invPurchase_po": "⊤", // direct data edge ∨ conditional path
		"set_oi":         "if_au=F",
		"recPurchase_oi": "⊤", // via direct invPurchase_po edge
	} {
		if got := byNode[node]; got != want {
			t.Errorf("closure annotation of %s = %s, want %s", node, got, want)
		}
	}
}

func TestClosureAnnotationsAfterMinimize(t *testing.T) {
	_, _, res, err := Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	members, err := core.TransitiveClosure(res.Minimal, core.ActivityID("if_au"))
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[string]string{}
	for _, m := range members {
		byNode[m.Node.String()] = m.Cond.String()
	}
	for node, want := range map[string]string{
		"invPurchase_po": "if_au=T",
		"invPurchase_si": "if_au=T",
		"set_oi":         "if_au=F",
		"replyClient_oi": "⊤", // reachable on both branches: T ∨ F folds
	} {
		if got := byNode[node]; got != want {
			t.Errorf("minimal closure annotation of %s = %s, want %s", node, got, want)
		}
	}
}
