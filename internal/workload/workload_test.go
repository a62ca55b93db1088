package workload

import (
	"sort"
	"testing"

	"dscweaver/internal/core"
)

// sortedDeps renders each dependency and sorts the strings.
func sortedDeps(s *core.DependencySet) []string {
	var out []string
	for _, d := range s.All() {
		out = append(out, d.String())
	}
	sort.Strings(out)
	return out
}

func TestLayeredDeterministic(t *testing.T) {
	a := Layered(4, 3, 0.3, 7)
	b := Layered(4, 3, 0.3, 7)
	if a.Deps.Len() != b.Deps.Len() {
		t.Errorf("same seed, different dep counts: %d vs %d", a.Deps.Len(), b.Deps.Len())
	}
	ka, kb := sortedDeps(a.Deps), sortedDeps(b.Deps)
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("same seed, different deps at %d: %s vs %s", i, ka[i], kb[i])
		}
	}
	c := Layered(4, 3, 0.3, 8)
	if cKeys := sortedDeps(c.Deps); len(cKeys) == len(ka) {
		same := true
		for i := range ka {
			if ka[i] != cKeys[i] {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical workloads")
		}
	}
}

func TestLayeredValidAndConnected(t *testing.T) {
	w := Layered(6, 4, 0.4, 11)
	if err := w.Proc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Deps.Validate(w.Proc); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Proc.Activities()); got != 24 {
		t.Errorf("activities = %d, want 24", got)
	}
	// Every non-root activity has at least one incoming data edge.
	incoming := map[core.ActivityID]int{}
	for _, d := range w.Deps.All() {
		incoming[d.To.Activity]++
	}
	for l := 1; l < len(w.layers); l++ {
		for _, id := range w.layers[l] {
			if incoming[id] == 0 {
				t.Errorf("activity %s unreachable", id)
			}
		}
	}
	// The merged set must be acyclic and minimizable.
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MinimizeUnconditional(sc); err != nil {
		t.Fatal(err)
	}
}

func TestShortcutsAreMostlyRedundant(t *testing.T) {
	w := Layered(6, 4, 0.5, 3).WithShortcuts(20)
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MinimizeUnconditional(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) == 0 {
		t.Error("no redundancy found despite 20 shortcuts")
	}
}

func TestWithDecisionsProducesValidConditionalSet(t *testing.T) {
	w := Layered(5, 3, 0.5, 5).WithDecisions(2)
	if err := w.Deps.Validate(w.Proc); err != nil {
		t.Fatal(err)
	}
	decisions := w.Proc.Decisions()
	if len(decisions) != 2 {
		t.Fatalf("decisions = %d, want 2", len(decisions))
	}
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Minimize(sc)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := core.Equivalent(sc, res.Minimal)
	if err != nil || !eq {
		t.Errorf("minimal not equivalent: %v, %v", eq, err)
	}
	// The conditional fast path must refuse this set.
	if _, err := core.MinimizeUnconditional(sc); err == nil {
		t.Error("MinimizeUnconditional accepted a conditional set")
	}
}

func TestSequencingBaselineAddsRedundantOrder(t *testing.T) {
	w := Layered(4, 5, 0.4, 9)
	min, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	base, err := w.SequencingBaseline()
	if err != nil {
		t.Fatal(err)
	}
	extra := base.Len() - min.Len()
	if extra != 4*(5-1) {
		t.Errorf("baseline added %d edges, want %d", extra, 4*4)
	}
	// Baseline still acyclic.
	if _, err := core.MinimizeUnconditional(base); err != nil {
		t.Fatal(err)
	}
}

func TestFanShape(t *testing.T) {
	w := Fan(8, 1)
	if err := w.Deps.Validate(w.Proc); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Proc.Activities()); got != 10 {
		t.Errorf("activities = %d, want 10", got)
	}
	if w.Deps.Len() != 16 {
		t.Errorf("deps = %d, want 16", w.Deps.Len())
	}
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.MinimizeUnconditional(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Errorf("fan should have no redundancy, removed %v", res.Removed)
	}
}

func TestWithServicesTranslates(t *testing.T) {
	w := Layered(6, 4, 0.4, 13).WithServices(4)
	if err := w.Proc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Deps.Validate(w.Proc); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Proc.Services()); got != 4 {
		t.Errorf("services = %d, want 4", got)
	}
	merged, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if !merged.HasServiceNodes() {
		t.Fatal("merged set has no external nodes")
	}
	asc, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	if asc.HasServiceNodes() {
		t.Fatal("translation left external nodes")
	}
	// Each attached service contributes the projected invoker→receive
	// constraint.
	projected := 0
	for _, c := range asc.Constraints() {
		if c.HasOrigin(core.ServiceDim) {
			projected++
		}
	}
	if projected == 0 {
		t.Error("no service-derived constraints after translation")
	}
	// The translated set still minimizes.
	if _, err := core.Minimize(asc); err != nil {
		t.Fatal(err)
	}
}

func TestLayeredPanicsOnBadShape(t *testing.T) {
	for _, f := range []func(){
		func() { Layered(1, 3, 0.5, 0) },
		func() { Layered(3, 0, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
