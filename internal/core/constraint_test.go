package core

import (
	"strings"
	"testing"

	"dscweaver/internal/cond"
)

func TestConstraintString(t *testing.T) {
	c := Constraint{
		Rel:  HappenBefore,
		From: PointOf("if_au", Finish),
		To:   PointOf("set_oi", Start),
		Cond: cond.Lit("if_au", "F"),
	}
	if got := c.String(); got != "F(if_au) →[if_au=F] S(set_oi)" {
		t.Errorf("String = %q", got)
	}
	u := Constraint{Rel: HappenBefore, From: PointOf("a", Finish), To: PointOf("b", Start), Cond: cond.True()}
	if got := u.String(); got != "F(a) → S(b)" {
		t.Errorf("String = %q", got)
	}
	x := Constraint{Rel: Exclusive, From: PointOf("a", Run), To: PointOf("b", Run), Cond: cond.True()}
	if !strings.Contains(x.String(), "⊘") {
		t.Errorf("Exclusive String = %q", x.String())
	}
}

func TestConstraintSetFoldsPairs(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("a", Finish), To: PointOf("b", Start),
		Cond: cond.Lit("c", "T"), Origins: []Dimension{Control}})
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("a", Finish), To: PointOf("b", Start),
		Cond: cond.Lit("c", "F"), Origins: []Dimension{Data}, Labels: []string{"x"}})
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (folded)", s.Len())
	}
	c := s.Constraints()[0]
	if len(c.Origins) != 2 {
		t.Errorf("Origins = %v, want both", c.Origins)
	}
	eq, err := cond.Equal(c.Cond, cond.Or(cond.Lit("c", "T"), cond.Lit("c", "F")), nil)
	if err != nil || !eq {
		t.Errorf("folded cond = %v", c.Cond)
	}
	if len(c.Labels) != 1 || c.Labels[0] != "x" {
		t.Errorf("Labels = %v", c.Labels)
	}
}

func TestConstraintSetIgnoresVacuous(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("a", Finish), To: PointOf("b", Start), Cond: cond.False()})
	if s.Len() != 0 {
		t.Errorf("vacuous constraint stored, Len = %d", s.Len())
	}
}

func TestBeforeHelper(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Before("a", "b", Data)
	c := s.Constraints()[0]
	if c.From.State != Finish || c.To.State != Start || !c.Cond.IsTrue() {
		t.Errorf("Before produced %v", c)
	}
}

func TestNodePartition(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Before("a", "b", Data)
	if s.HasServiceNodes() {
		t.Error("HasServiceNodes = true on an activity-only set")
	}
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("b", Finish),
		To: Point{Node: ServiceNode("Svc", "1"), State: Start}, Cond: cond.True(), Origins: []Dimension{ServiceDim}})
	if got := len(s.ActivityNodes()); got != 2 {
		t.Errorf("ActivityNodes = %d, want 2", got)
	}
	if got := len(s.ServiceNodes()); got != 1 {
		t.Errorf("ServiceNodes = %d, want 1", got)
	}
	if !s.HasServiceNodes() {
		t.Error("HasServiceNodes = false")
	}
	if n := testing.AllocsPerRun(10, func() { s.HasServiceNodes() }); n != 0 {
		t.Errorf("HasServiceNodes allocates %v times", n)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Before("a", "b", Data)
	c := s.Clone()
	c.Before("b", "d", Data)
	if s.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone aliasing: orig %d, clone %d", s.Len(), c.Len())
	}
}

func TestDesugarHappenTogether(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenTogether, From: PointOf("a", Finish), To: PointOf("b", Start), Cond: cond.True()})
	before := len(p.Activities())
	if err := s.Desugar(); err != nil {
		t.Fatal(err)
	}
	if len(p.Activities()) != before+1 {
		t.Errorf("coordinator activity not registered")
	}
	for _, c := range s.Constraints() {
		if c.Rel == HappenTogether {
			t.Errorf("HappenTogether survived desugaring: %v", c)
		}
	}
	if s.Len() != 2 {
		t.Errorf("desugared Len = %d, want 2", s.Len())
	}
}

func TestDesugarRejectsServiceNodes(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenTogether, From: PointOf("a", Finish),
		To: Point{Node: ServiceNode("Svc", "1"), State: Start}, Cond: cond.True()})
	if err := s.Desugar(); err == nil {
		t.Error("Desugar accepted external HappenTogether")
	}
}

func TestConstraintSetValidate(t *testing.T) {
	p := testProcess(t)
	good := NewConstraintSet(p)
	good.Before("a", "b", Data)
	good.Add(Constraint{Rel: HappenTogether, From: PointOf("a", Start), To: PointOf("d", Start), Cond: cond.True()})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}

	ghost := NewConstraintSet(p)
	ghost.Before("a", "nope", Data)
	if err := ghost.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared activity") {
		t.Errorf("err = %v, want undeclared activity", err)
	}

	ghostSvc := NewConstraintSet(p)
	ghostSvc.Add(Constraint{Rel: HappenBefore, From: PointOf("a", Finish),
		To: Point{Node: ServiceNode("Nope", "1"), State: Start}, Cond: cond.True()})
	if err := ghostSvc.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared service") {
		t.Errorf("err = %v, want undeclared service", err)
	}

	cyc := NewConstraintSet(p)
	cyc.Before("a", "b", Data)
	cyc.Before("b", "a", Data)
	if err := cyc.Validate(); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("err = %v, want cycle detection", err)
	}
}

func TestStateAndPointStrings(t *testing.T) {
	if Start.String() != "S" || Run.String() != "R" || Finish.String() != "F" {
		t.Error("state strings wrong")
	}
	if got := PointOf("x", Run).String(); got != "R(x)" {
		t.Errorf("point string = %q", got)
	}
}

func TestConstraintSetStringSorted(t *testing.T) {
	p := testProcess(t)
	s := NewConstraintSet(p)
	s.Before("b", "d", Data)
	s.Before("a", "b", Data)
	out := s.String()
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || lines[0] > lines[1] {
		t.Errorf("String not sorted:\n%s", out)
	}
}
