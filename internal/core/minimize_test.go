package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dscweaver/internal/cond"
)

// linProcess builds a process of n opaque activities a0…a(n-1).
func linProcess(n int) *Process {
	p := NewProcess("lin")
	for i := 0; i < n; i++ {
		p.MustAddActivity(&Activity{ID: ActivityID(fmt.Sprintf("a%d", i)), Kind: KindOpaque})
	}
	return p
}

func TestMinimizeRemovesShortcut(t *testing.T) {
	p := linProcess(3)
	s := NewConstraintSet(p)
	s.Before("a0", "a1", Data)
	s.Before("a1", "a2", Data)
	s.Before("a0", "a2", Cooperation) // redundant shortcut
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 || res.Removed[0].From.Node.Activity != "a0" || res.Removed[0].To.Node.Activity != "a2" {
		t.Errorf("Removed = %v, want the a0→a2 shortcut", res.Removed)
	}
	if res.Minimal.Len() != 2 {
		t.Errorf("minimal Len = %d, want 2", res.Minimal.Len())
	}
}

func TestMinimizeKeepsEssentialChain(t *testing.T) {
	p := linProcess(4)
	s := NewConstraintSet(p)
	s.Before("a0", "a1", Data)
	s.Before("a1", "a2", Data)
	s.Before("a2", "a3", Data)
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Errorf("chain edges removed: %v", res.Removed)
	}
}

// guardedSet builds the canonical guard-subsumption scenario:
// a0 → dec, dec →[T] a2, plus a direct unconditional a0 → a2 that is
// only exercised when a2 runs (i.e. when dec=T), so it is redundant.
func guardedSet() (*Process, *ConstraintSet) {
	p := NewProcess("guarded")
	p.MustAddActivity(&Activity{ID: "a0", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "dec", Kind: KindDecision})
	p.MustAddActivity(&Activity{ID: "a2", Kind: KindOpaque})
	s := NewConstraintSet(p)
	s.Before("a0", "dec", Data)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("dec", Finish), To: PointOf("a2", Start),
		Cond: cond.Lit("dec", "T"), Origins: []Dimension{Control}})
	s.Before("a0", "a2", Data)
	return p, s
}

func TestMinimizeGuardSubsumption(t *testing.T) {
	_, s := guardedSet()
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 {
		t.Fatalf("Removed = %v, want exactly the unconditional a0→a2", res.Removed)
	}
	r := res.Removed[0]
	if r.From.Node.Activity != "a0" || r.To.Node.Activity != "a2" || !r.Cond.IsTrue() {
		t.Errorf("Removed = %v", r)
	}
}

func TestMinimizeControlEdgeNotSubsumedByData(t *testing.T) {
	// The reverse of guard subsumption: the conditional dec→[T]a2 edge
	// must survive even though a0→a2 exists, because without it a2
	// would not be ordered after the decision at all.
	_, s := guardedSet()
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Minimal.Constraints() {
		if c.From.Node.Activity == "dec" && c.To.Node.Activity == "a2" {
			return
		}
	}
	t.Error("conditional control edge was removed")
}

func TestMinimizeBranchDisjunctionFolds(t *testing.T) {
	// dec →[T] x → z, dec →[F] y → z, plus direct dec → z: the direct
	// edge is covered by T∨F ≡ ⊤ (the if_au → replyClient_oi case).
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
	s.Before("dec", "z", Cooperation) // redundant: reached on both branches
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 1 {
		t.Fatalf("Removed = %v, want just dec→z", res.Removed)
	}
	if res.Removed[0].To.Node.Activity != "z" || res.Removed[0].From.Node.Activity != "dec" {
		t.Errorf("Removed = %v", res.Removed[0])
	}
}

func TestMinimizePartialBranchCoverageKept(t *testing.T) {
	// Ternary switch covering only two of three branches: the direct
	// edge is NOT redundant.
	p := NewProcess("partial")
	p.MustAddActivity(&Activity{ID: "sw", Kind: KindDecision, Branches: []string{"A", "B", "C"}})
	for _, id := range []ActivityID{"x", "y", "z"} {
		p.MustAddActivity(&Activity{ID: id, Kind: KindOpaque})
	}
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("sw", Finish), To: PointOf("x", Start),
		Cond: cond.Lit("sw", "A"), Origins: []Dimension{Control}})
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("sw", Finish), To: PointOf("y", Start),
		Cond: cond.Lit("sw", "B"), Origins: []Dimension{Control}})
	s.Before("x", "z", Data)
	s.Before("y", "z", Data)
	s.Before("sw", "z", Cooperation) // NOT redundant: branch C reaches z only directly
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Errorf("Removed = %v, want none", res.Removed)
	}
}

func TestMinimizeCrossBranchConstraintDropped(t *testing.T) {
	// x runs on dec=T, y on dec=F: a happen-before between them can
	// never be exercised, so it is vacuous and removable.
	p := NewProcess("crossbranch")
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
	if len(res.Removed) != 1 || res.Removed[0].From.Node.Activity != "x" {
		t.Errorf("Removed = %v, want the cross-branch x→y", res.Removed)
	}
}

func TestMinimizeCycleError(t *testing.T) {
	p := linProcess(2)
	s := NewConstraintSet(p)
	s.Before("a0", "a1", Data)
	s.Before("a1", "a0", Data)
	if _, err := Minimize(s); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("Minimize on cycle = %v, want cyclic error", err)
	}
}

func TestMinimizeRejectsHappenTogether(t *testing.T) {
	p := linProcess(2)
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenTogether, From: PointOf("a0", Finish), To: PointOf("a1", Start), Cond: cond.True()})
	if _, err := Minimize(s); err == nil || !strings.Contains(err.Error(), "Desugar") {
		t.Errorf("err = %v, want desugar hint", err)
	}
}

func TestMinimizePreservesExclusive(t *testing.T) {
	p := linProcess(3)
	s := NewConstraintSet(p)
	s.Before("a0", "a1", Data)
	s.Add(Constraint{Rel: Exclusive, From: PointOf("a1", Run), To: PointOf("a2", Run), Cond: cond.True()})
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Minimal.Constraints() {
		if c.Rel == Exclusive {
			found = true
		}
	}
	if !found {
		t.Error("Exclusive constraint dropped by Minimize")
	}
}

func TestMinimizeStateLevelConstraints(t *testing.T) {
	// S(a1) → F(a0): overlapping life spans (the collectSurvey /
	// closeOrder example of §3.2). The start-before-finish edge is not
	// implied by anything and must survive; a redundant F(a0) → S(a2)
	// shortcut over a0→a1→a2 must not be confused by it.
	p := linProcess(3)
	s := NewConstraintSet(p)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("a1", Start), To: PointOf("a0", Finish),
		Cond: cond.True(), Origins: []Dimension{Cooperation}})
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 0 {
		t.Errorf("state-level constraint removed: %v", res.Removed)
	}
	c := res.Minimal.Constraints()[0]
	if c.From.State != Start || c.To.State != Finish {
		t.Errorf("constraint mangled: %v", c)
	}
}

func TestMinimizeUnconditionalMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		p := linProcess(n)
		s := NewConstraintSet(p)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.4 {
					s.Before(ActivityID(fmt.Sprintf("a%d", u)), ActivityID(fmt.Sprintf("a%d", v)), Data)
				}
			}
		}
		exact, err := Minimize(s)
		if err != nil {
			return false
		}
		fast, err := MinimizeUnconditional(s)
		if err != nil {
			return false
		}
		return exact.Minimal.String() == fast.Minimal.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeUnconditionalRejectsConditional(t *testing.T) {
	_, s := guardedSet()
	if _, err := MinimizeUnconditional(s); err == nil {
		t.Error("MinimizeUnconditional accepted a conditional set")
	}
}

// Property: on random conditional sets, Minimize yields an equivalent
// set from which no further constraint is removable.
func TestQuickMinimizeEquivalentAndMinimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		p := NewProcess("rand")
		ids := make([]ActivityID, n)
		for i := range ids {
			ids[i] = ActivityID(fmt.Sprintf("a%d", i))
			kind := KindOpaque
			if i > 0 && i < n-1 && r.Intn(4) == 0 {
				kind = KindDecision
			}
			p.MustAddActivity(&Activity{ID: ids[i], Kind: kind})
		}
		s := NewConstraintSet(p)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() > 0.45 {
					continue
				}
				c := cond.True()
				a, _ := p.Activity(ids[u])
				origin := Data
				if a.Kind == KindDecision && r.Intn(2) == 0 {
					branch := a.BranchDomain()[r.Intn(2)]
					c = cond.Lit(string(ids[u]), branch)
					origin = Control
				}
				s.Add(Constraint{Rel: HappenBefore, From: PointOf(ids[u], Finish),
					To: PointOf(ids[v], Start), Cond: c, Origins: []Dimension{origin}})
			}
		}
		res, err := Minimize(s)
		if err != nil {
			return false
		}
		eq, err := Equivalent(s, res.Minimal)
		if err != nil || !eq {
			return false
		}
		// No further removal possible — judged under the original
		// guards, since the minimal set may have shed control edges
		// (guards do not survive DeriveGuards on a minimized set).
		guards, err := DeriveGuards(s)
		if err != nil {
			return false
		}
		res2, err := MinimizeOpt(context.Background(), res.Minimal, MinimizeOptions{Guards: guards})
		if err != nil {
			return false
		}
		return len(res2.Removed) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCoversAsymmetry(t *testing.T) {
	p := linProcess(3)
	withShortcut := NewConstraintSet(p)
	withShortcut.Before("a0", "a1", Data)
	withShortcut.Before("a1", "a2", Data)
	withShortcut.Before("a0", "a2", Data)
	chainOnly := NewConstraintSet(p)
	chainOnly.Before("a0", "a1", Data)
	chainOnly.Before("a1", "a2", Data)
	partial := NewConstraintSet(p)
	partial.Before("a0", "a1", Data)

	if ok, err := covers(withShortcut, chainOnly); err != nil || !ok {
		t.Errorf("withShortcut covers chainOnly = %v, %v", ok, err)
	}
	if ok, err := covers(chainOnly, withShortcut); err != nil || !ok {
		t.Errorf("chainOnly covers withShortcut = %v, %v (transitivity)", ok, err)
	}
	if ok, err := covers(partial, chainOnly); err != nil || ok {
		t.Errorf("partial covers chainOnly = %v, %v, want false", ok, err)
	}
	if eq, err := Equivalent(withShortcut, chainOnly); err != nil || !eq {
		t.Errorf("Equivalent = %v, %v", eq, err)
	}
	if eq, err := Equivalent(partial, chainOnly); err != nil || eq {
		t.Errorf("Equivalent(partial, chain) = %v, %v, want false", eq, err)
	}
}

func TestTransitiveClosureDefinition3Example(t *testing.T) {
	// Paper example: a1→a2→[T]a3→a4 gives a1+ = {a2, a3(T), a4(T)}.
	p := NewProcess("def3")
	p.MustAddActivity(&Activity{ID: "a1", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "a2", Kind: KindDecision})
	p.MustAddActivity(&Activity{ID: "a3", Kind: KindOpaque})
	p.MustAddActivity(&Activity{ID: "a4", Kind: KindOpaque})
	s := NewConstraintSet(p)
	s.Before("a1", "a2", Data)
	s.Add(Constraint{Rel: HappenBefore, From: PointOf("a2", Finish), To: PointOf("a3", Start),
		Cond: cond.Lit("a2", "T"), Origins: []Dimension{Control}})
	s.Before("a3", "a4", Data)
	members, err := TransitiveClosure(s, "a1")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, m := range members {
		got[m.Node.String()] = m.Cond.String()
	}
	want := map[string]string{"a2": "⊤", "a3": "a2=T", "a4": "a2=T"}
	if len(got) != len(want) {
		t.Fatalf("closure = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("a1+[%s] = %s, want %s", k, got[k], v)
		}
	}
}

func TestTransitiveClosureUnknownActivity(t *testing.T) {
	p := linProcess(2)
	s := NewConstraintSet(p)
	if _, err := TransitiveClosure(s, "nope"); err == nil {
		t.Error("closure of unknown activity succeeded")
	}
}

func TestMinimizeCountsReported(t *testing.T) {
	_, s := guardedSet()
	res, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.EquivalenceChecks != 3 {
		t.Errorf("EquivalenceChecks = %d, want 3", res.EquivalenceChecks)
	}
	if res.PairComparisons == 0 {
		t.Error("PairComparisons = 0")
	}
}
