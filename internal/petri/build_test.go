package petri

import (
	"context"
	"reflect"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
)

// buildGuards derives guards from a constraint set, failing the test
// on error.
func buildGuards(t *testing.T, sc *core.ConstraintSet) map[core.Node]cond.Expr {
	t.Helper()
	g, err := core.DeriveGuards(sc)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildRejectsExternalNodes(t *testing.T) {
	proc := purchasing.Process()
	merged, err := core.Merge(proc, purchasing.Dependencies())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Build(merged, nil); err == nil {
		t.Error("Build accepted a set with external nodes")
	}
}

func TestPurchasingASCSound(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(context.Background(), asc, buildGuards(t, asc))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Fatalf("purchasing ASC unsound: deadlocks=%v noCompletion=%v states=%d",
			rep.Deadlocks, rep.NoCompletion, rep.StateSpace.States)
	}
	t.Logf("ASC state space: %d states", rep.StateSpace.States)
}

func TestPurchasingMinimalSound(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	// Guards come from the pre-minimization set (control edges may
	// have been shed).
	rep, err := Validate(context.Background(), res.Minimal, buildGuards(t, asc))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Fatalf("purchasing minimal set unsound: deadlocks=%v", rep.Deadlocks)
	}
	t.Logf("minimal state space: %d states", rep.StateSpace.States)
}

// cyclicSet orders a before b and b before a.
func cyclicSet() *core.ConstraintSet {
	p := core.NewProcess("cycle")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Before("a", "b", core.Data)
	s.Before("b", "a", core.Data)
	return s
}

// exclusiveSet makes a and b mutually exclusive, beside an
// unconstrained c.
func exclusiveSet() *core.ConstraintSet {
	p := core.NewProcess("excl")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "c", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.Exclusive,
		From: core.PointOf("a", core.Run), To: core.PointOf("b", core.Run), Cond: cond.True()})
	return s
}

// dpeSet is dec →[T] x → y: on the F branch both x and y must be
// skipped and the run still completes.
func dpeSet() *core.ConstraintSet {
	p := core.NewProcess("dpe")
	p.MustAddActivity(&core.Activity{ID: "dec", Kind: core.KindDecision})
	p.MustAddActivity(&core.Activity{ID: "x", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "y", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("dec", core.Finish),
		To: core.PointOf("x", core.Start), Cond: cond.Lit("dec", "T"), Origins: []core.Dimension{core.Control}})
	s.Before("x", "y", core.Data)
	return s
}

// overlapSet is S(b) → F(a): b must start before a may finish
// (overlapping life spans, the collectSurvey/closeOrder pattern).
func overlapSet() *core.ConstraintSet {
	p := core.NewProcess("overlap")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("b", core.Start),
		To: core.PointOf("a", core.Finish), Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}})
	return s
}

// nestedDecisionSet nests two decisions: outer=F skips inner, and a
// guard on inner's branch must read the skipped color.
func nestedDecisionSet() *core.ConstraintSet {
	p := core.NewProcess("nested")
	p.MustAddActivity(&core.Activity{ID: "outer", Kind: core.KindDecision})
	p.MustAddActivity(&core.Activity{ID: "inner", Kind: core.KindDecision})
	p.MustAddActivity(&core.Activity{ID: "leaf", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("outer", core.Finish),
		To: core.PointOf("inner", core.Start), Cond: cond.Lit("outer", "T"), Origins: []core.Dimension{core.Control}})
	s.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("inner", core.Finish),
		To: core.PointOf("leaf", core.Start), Cond: cond.Lit("inner", "T"), Origins: []core.Dimension{core.Control}})
	return s
}

func TestCyclicConstraintsDeadlock(t *testing.T) {
	s := cyclicSet()
	// The optimizer rejects cyclic sets; the net-level check must also
	// catch them (the paper's "infinite synchronization sequence").
	rep, err := Validate(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound {
		t.Error("cyclic constraint set reported sound")
	}
}

func TestExclusiveConstraintEnforcedInNet(t *testing.T) {
	s := exclusiveSet()
	n, m, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := n.exploreRef(1<<20, nil)
	if ss.States == 0 {
		t.Fatal("no states explored")
	}
	// Walk the space again and assert a and b never run together.
	seen := map[string]bool{}
	stack := []Marking{n.InitialMarking()}
	seen[stack[0].Key()] = true
	for len(stack) > 0 {
		mk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mk.Tokens(m.Running["a"]) > 0 && mk.Tokens(m.Running["b"]) > 0 {
			t.Fatal("both exclusive activities running")
		}
		for _, tr := range n.Enabled(mk) {
			next, err := n.Fire(mk, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[next.Key()] {
				seen[next.Key()] = true
				stack = append(stack, next)
			}
		}
	}
	// Without the mutex both could run concurrently: sanity-check the
	// state count shrinks versus the unconstrained net.
	s2 := core.NewConstraintSet(s.Proc)
	n2, _, err := Build(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss2 := n2.exploreRef(1<<20, nil)
	if ss.States >= ss2.States {
		t.Errorf("exclusive net has %d states, unconstrained %d; expected fewer", ss.States, ss2.States)
	}
}

func TestDeadPathEliminationInNet(t *testing.T) {
	s := dpeSet()
	// y is control-dependent on dec transitively through x's guard:
	// derive guards, then the guard of y must follow x's.
	guards := buildGuards(t, s)
	// x is guarded by dec=T; y inherits no control edge directly, so
	// its guard is ⊤ — it waits for x's edge which is produced even
	// when x is skipped (dead-path elimination).
	rep, err := Validate(context.Background(), s, guards)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Fatalf("DPE net unsound: %v", rep.Deadlocks)
	}
}

func TestStateLevelConstraintInNet(t *testing.T) {
	s := overlapSet()
	n, m, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// In no reachable marking may a be done while b still waits.
	seen := map[string]bool{}
	stack := []Marking{n.InitialMarking()}
	seen[stack[0].Key()] = true
	for len(stack) > 0 {
		mk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mk.Tokens(m.Done["a"]) > 0 && mk.Tokens(m.Wait["b"]) > 0 {
			t.Fatal("a finished before b started")
		}
		for _, tr := range n.Enabled(mk) {
			next, _ := n.Fire(mk, tr)
			if !seen[next.Key()] {
				seen[next.Key()] = true
				stack = append(stack, next)
			}
		}
	}
	rep, err := Validate(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Errorf("overlap net unsound: %v", rep.Deadlocks)
	}
}

func TestGuardedDecisionSkipPropagation(t *testing.T) {
	s := nestedDecisionSet()
	rep, err := Validate(context.Background(), s, buildGuards(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Fatalf("nested decision net unsound: %v", rep.Deadlocks)
	}
}

func TestBuildRejectsHappenTogether(t *testing.T) {
	p := core.NewProcess("ht")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.HappenTogether,
		From: core.PointOf("a", core.Finish), To: core.PointOf("b", core.Start), Cond: cond.True()})
	if _, _, err := Build(s, nil); err == nil {
		t.Error("Build accepted HappenTogether")
	}
}

// TestValidateOptLeavesCallerFinalPlaces: ValidateOpt derives its own
// final places and must not write them into the caller's slice.
func TestValidateOptLeavesCallerFinalPlaces(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	caller := []PlaceID{97, 98, 99}
	rep, err := ValidateOpt(context.Background(), res.Minimal, buildGuards(t, asc), ExploreOptions{FinalPlaces: caller})
	if err != nil || !rep.Sound {
		t.Fatalf("ValidateOpt = (%+v, %v), want sound", rep, err)
	}
	if want := []PlaceID{97, 98, 99}; !reflect.DeepEqual(caller, want) {
		t.Errorf("caller's FinalPlaces = %v after ValidateOpt, want %v", caller, want)
	}
}
