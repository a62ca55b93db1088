package core

import (
	"strings"
	"testing"

	"dscweaver/internal/cond"
)

func TestExplainSimpleShortcut(t *testing.T) {
	p := linProcess(3)
	s := NewConstraintSet(p)
	s.Before("a0", "a1", Data)
	s.Before("a1", "a2", Data)
	s.Before("a0", "a2", Cooperation)
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	removals, err := ExplainRemovals(res, inputGuards(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 1 {
		t.Fatalf("removals = %d", len(removals))
	}
	r := removals[0]
	if r.Vacuous || len(r.Paths) != 1 || len(r.Paths[0]) != 2 {
		t.Fatalf("explanation = %s", r)
	}
	if r.Paths[0][0].To.Node.Activity != "a1" {
		t.Errorf("witness path = %v", r.Paths[0])
	}
	if !strings.Contains(r.String(), "covered by") {
		t.Errorf("rendering = %q", r.String())
	}
}

func TestExplainGuardSubsumption(t *testing.T) {
	_, s := guardedSet()
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	removals, err := ExplainRemovals(res, inputGuards(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 1 {
		t.Fatalf("removals = %d", len(removals))
	}
	r := removals[0]
	// The unconditional a0→a2 is covered by the conditional path
	// through the decision.
	if len(r.Paths) != 1 {
		t.Fatalf("paths = %d: %s", len(r.Paths), r)
	}
	foundConditional := false
	for _, c := range r.Paths[0] {
		if !c.Cond.IsTrue() {
			foundConditional = true
		}
	}
	if !foundConditional {
		t.Errorf("witness path has no conditional edge: %s", r)
	}
}

func TestExplainBranchFoldNeedsTwoPaths(t *testing.T) {
	// dec →[T] x → z, dec →[F] y → z, direct dec → z removed: the
	// explanation must cite both branch paths.
	p := NewProcess("fold")
	p.MustAddActivity(&Activity{ID: "dec", Kind: KindDecision})
	for _, id := range []ActivityID{"x", "y", "z"} {
		p.MustAddActivity(&Activity{ID: id, Kind: KindOpaque})
	}
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("x", Start),
		Cond: cond.Lit("dec", "T"), Origins: []Dimension{Control}})
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("y", Start),
		Cond: cond.Lit("dec", "F"), Origins: []Dimension{Control}})
	s.Before("x", "z", Data)
	s.Before("y", "z", Data)
	s.Before("dec", "z", Cooperation)
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	removals, err := ExplainRemovals(res, inputGuards(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 1 {
		t.Fatalf("removals = %d", len(removals))
	}
	if got := len(removals[0].Paths); got != 2 {
		t.Errorf("paths = %d, want 2 (one per branch):\n%s", got, removals[0])
	}
}

func TestExplainVacuousCrossBranch(t *testing.T) {
	p := NewProcess("vac")
	p.MustAddActivity(&Activity{ID: "dec", Kind: KindDecision})
	p.MustAddActivity(&Activity{ID: "x", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "y", Kind: KindOpaque})
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("x", Start),
		Cond: cond.Lit("dec", "T"), Origins: []Dimension{Control}})
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("y", Start),
		Cond: cond.Lit("dec", "F"), Origins: []Dimension{Control}})
	s.Before("x", "y", Cooperation)
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	removals, err := ExplainRemovals(res, inputGuards(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 1 || !removals[0].Vacuous {
		t.Fatalf("expected one vacuous removal: %v", removals)
	}
	if !strings.Contains(removals[0].String(), "vacuous") {
		t.Errorf("rendering = %q", removals[0].String())
	}
}

func TestExplainAllPurchasingRemovals(t *testing.T) {
	// Every removal of the purchasing-shaped set must be justified.
	procDeps := purchasingLikeSet(t)
	res, err := Minimize(procDeps)
	if err != nil {
		t.Fatal(err)
	}
	removals, err := ExplainRemovals(res, inputGuards(t, procDeps))
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != len(res.Removed) {
		t.Errorf("explained %d of %d removals", len(removals), len(res.Removed))
	}
	for _, r := range removals {
		if !r.Vacuous && len(r.Paths) == 0 {
			t.Errorf("removal without justification: %s", r)
		}
	}
}

// purchasingLikeSet builds a miniature of the purchasing shape (chain
// into decision, two branches, join) without importing the fixture
// package (core cannot import purchasing).
func purchasingLikeSet(t *testing.T) *ConstraintSet {
	t.Helper()
	p := NewProcess("mini")
	p.MustAddActivity(&Activity{ID: "rec", Kind: KindReceive, Writes: []string{"po"}})
	p.MustAddActivity(&Activity{ID: "dec", Kind: KindDecision})
	p.MustAddActivity(&Activity{ID: "work1", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "work2", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "fallback", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "reply", Kind: KindReply})
	s := NewConstraintSet(p)
	s.Before("rec", "dec", Data)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("work1", Start),
		Cond: cond.Lit("dec", "T"), Origins: []Dimension{Control}})
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("work2", Start),
		Cond: cond.Lit("dec", "T"), Origins: []Dimension{Control}})
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("fallback", Start),
		Cond: cond.Lit("dec", "F"), Origins: []Dimension{Control}})
	s.Before("rec", "work1", Data)   // guard-subsumed
	s.Before("work1", "work2", Data) // makes dec→work2 redundant
	s.Before("work2", "reply", Data)
	s.Before("fallback", "reply", Data)
	s.Before("dec", "reply", Cooperation) // T∨F fold
	return s
}

// inputGuards derives the guards a minimization of sc judged
// redundancy under.
func inputGuards(t *testing.T, sc *ConstraintSet) map[Node]cond.Expr {
	t.Helper()
	guards, err := DeriveGuards(sc)
	if err != nil {
		t.Fatal(err)
	}
	return guards
}
