package cond

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustEqual(t *testing.T, a, b Expr, doms Domains) {
	t.Helper()
	eq, err := Equal(a, b, doms)
	if err != nil {
		t.Fatalf("Equal(%v, %v): %v", a, b, err)
	}
	if !eq {
		t.Fatalf("expected %v == %v", a, b)
	}
}

func mustNotEqual(t *testing.T, a, b Expr, doms Domains) {
	t.Helper()
	eq, err := Equal(a, b, doms)
	if err != nil {
		t.Fatalf("Equal(%v, %v): %v", a, b, err)
	}
	if eq {
		t.Fatalf("expected %v != %v", a, b)
	}
}

func TestTrueFalseBasics(t *testing.T) {
	if !True().IsTrue() {
		t.Error("True().IsTrue() = false")
	}
	if !False().IsFalse() {
		t.Error("False().IsFalse() = false")
	}
	if True().IsFalse() || False().IsTrue() {
		t.Error("True/False confused")
	}
	if got := True().String(); got != "⊤" {
		t.Errorf("True().String() = %q", got)
	}
	if got := False().String(); got != "⊥" {
		t.Errorf("False().String() = %q", got)
	}
}

func TestLitEval(t *testing.T) {
	e := Lit("if_au", "T")
	if !e.Eval(map[string]string{"if_au": "T"}) {
		t.Error("literal not satisfied by matching assignment")
	}
	if e.Eval(map[string]string{"if_au": "F"}) {
		t.Error("literal satisfied by mismatching assignment")
	}
	if e.Eval(nil) {
		t.Error("literal satisfied by empty assignment")
	}
}

func TestAndContradiction(t *testing.T) {
	e := And(Lit("x", "T"), Lit("x", "F"))
	if !e.IsFalse() {
		t.Errorf("x=T ∧ x=F = %v, want ⊥", e)
	}
}

func TestAndIdempotent(t *testing.T) {
	e := And(Lit("x", "T"), Lit("x", "T"))
	if got := e.String(); got != "x=T" {
		t.Errorf("x=T ∧ x=T = %q", got)
	}
}

func TestOrAbsorption(t *testing.T) {
	// x=T ∨ (x=T ∧ y=F) should absorb to x=T.
	e := Or(Lit("x", "T"), And(Lit("x", "T"), Lit("y", "F")))
	if got := e.String(); got != "x=T" {
		t.Errorf("absorption failed: %q", got)
	}
}

func TestOrWithTrue(t *testing.T) {
	if !Or(Lit("x", "T"), True()).IsTrue() {
		t.Error("x=T ∨ ⊤ should be ⊤")
	}
}

func TestAndWithFalse(t *testing.T) {
	if !And(Lit("x", "T"), False()).IsFalse() {
		t.Error("x=T ∧ ⊥ should be ⊥")
	}
}

func TestFullDomainDisjunctionIsTautology(t *testing.T) {
	// The if_au → replyClient_oi removal hinges on T ∨ F ≡ ⊤.
	e := Or(Lit("if_au", "T"), Lit("if_au", "F"))
	if e.IsTrue() {
		t.Error("syntactic IsTrue should not detect domain tautology")
	}
	mustEqual(t, e, True(), nil) // nil Domains → DefaultDomain {T, F}
}

func TestTernaryDomainNotTautology(t *testing.T) {
	doms := Domains{"sw": {"A", "B", "C"}}
	e := Or(Lit("sw", "A"), Lit("sw", "B"))
	mustNotEqual(t, e, True(), doms)
	full := Or(e, Lit("sw", "C"))
	mustEqual(t, full, True(), doms)
}

func TestSimplifyFoldsFullDomain(t *testing.T) {
	e := Or(Lit("x", "T"), Lit("x", "F"))
	if got := Simplify(e, nil); !got.IsTrue() {
		t.Errorf("Simplify(x=T ∨ x=F) = %v, want ⊤", got)
	}
}

func TestSimplifyFoldsNestedDomain(t *testing.T) {
	// (a=T ∧ x=T) ∨ (a=T ∧ x=F) → a=T
	e := Or(And(Lit("a", "T"), Lit("x", "T")), And(Lit("a", "T"), Lit("x", "F")))
	got := Simplify(e, nil)
	if got.String() != "a=T" {
		t.Errorf("Simplify = %v, want a=T", got)
	}
}

func TestSimplifyTernary(t *testing.T) {
	doms := Domains{"sw": {"A", "B", "C"}}
	e := Or(Lit("sw", "A"), Lit("sw", "B"), Lit("sw", "C"))
	if got := Simplify(e, doms); !got.IsTrue() {
		t.Errorf("Simplify over ternary domain = %v, want ⊤", got)
	}
	partial := Or(Lit("sw", "A"), Lit("sw", "B"))
	if got := Simplify(partial, doms); got.IsTrue() {
		t.Error("Simplify folded a partial domain")
	}
}

func TestDecisions(t *testing.T) {
	e := Or(And(Lit("b", "T"), Lit("a", "T")), Lit("c", "F"))
	got := e.Decisions()
	want := []string{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Decisions = %v, want %v", got, want)
	}
}

func TestImplies(t *testing.T) {
	a := And(Lit("x", "T"), Lit("y", "T"))
	b := Lit("x", "T")
	for _, tc := range []struct {
		p, q Expr
		want bool
	}{
		{a, b, true},
		{b, a, false},
		{False(), a, true},
		{a, True(), true},
		{True(), Lit("x", "T"), false},
	} {
		got, err := Implies(tc.p, tc.q, nil)
		if err != nil {
			t.Fatalf("Implies(%v, %v): %v", tc.p, tc.q, err)
		}
		if got != tc.want {
			t.Errorf("Implies(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestEnumerationBound(t *testing.T) {
	// 21 boolean decisions exceed the 2^20 bound.
	e := True()
	for i := 0; i < 21; i++ {
		e = And(e, Lit(string(rune('a'+i)), "T"))
	}
	if _, err := Equal(e, False(), nil); err == nil {
		t.Error("expected enumeration-bound error for 21 decisions")
	}
}

func TestStringDeterministic(t *testing.T) {
	a := Or(And(Lit("y", "F"), Lit("x", "T")), Lit("z", "T"))
	b := Or(Lit("z", "T"), And(Lit("x", "T"), Lit("y", "F")))
	if a.String() != b.String() {
		t.Errorf("canonical strings differ: %q vs %q", a, b)
	}
}

// --- randomized / property tests ---

var quickDecisions = []string{"d0", "d1", "d2", "d3"}

// randomExpr builds a random expression with up to depth nested ops.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			d := quickDecisions[r.Intn(len(quickDecisions))]
			v := "T"
			if r.Intn(2) == 0 {
				v = "F"
			}
			return Lit(d, v)
		}
	}
	a := randomExpr(r, depth-1)
	b := randomExpr(r, depth-1)
	if r.Intn(2) == 0 {
		return And(a, b)
	}
	return Or(a, b)
}

func allAssignments() []map[string]string {
	var out []map[string]string
	n := len(quickDecisions)
	for bits := 0; bits < 1<<n; bits++ {
		m := map[string]string{}
		for i, d := range quickDecisions {
			if bits&(1<<i) != 0 {
				m[d] = "T"
			} else {
				m[d] = "F"
			}
		}
		out = append(out, m)
	}
	return out
}

func TestQuickAndOrSemantics(t *testing.T) {
	assigns := allAssignments()
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 3)
		b := randomExpr(r, 3)
		and, or := And(a, b), Or(a, b)
		for _, m := range assigns {
			if and.Eval(m) != (a.Eval(m) && b.Eval(m)) {
				return false
			}
			if or.Eval(m) != (a.Eval(m) || b.Eval(m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSimplifyPreservesSemantics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	assigns := allAssignments()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 4)
		s := Simplify(e, nil)
		for _, m := range assigns {
			if e.Eval(m) != s.Eval(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualReflexiveAndCanonical(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 3)
		b := randomExpr(r, 3)
		// Canonical DNF: commuted constructions are syntactically equal.
		if And(a, b).String() != And(b, a).String() {
			return false
		}
		if Or(a, b).String() != Or(b, a).String() {
			return false
		}
		eq, err := Equal(a, a, nil)
		return err == nil && eq
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorganStyleDistribution(t *testing.T) {
	// And distributes over Or: a ∧ (b ∨ c) ≡ (a∧b) ∨ (a∧c).
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 2)
		b := randomExpr(r, 2)
		c := randomExpr(r, 2)
		lhs := And(a, Or(b, c))
		rhs := Or(And(a, b), And(a, c))
		eq, err := Equal(lhs, rhs, nil)
		return err == nil && eq
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSameMatchesStringEquality(t *testing.T) {
	// Same must agree with String() equality on canonical expressions:
	// it replaces the optimizer's render-and-compare fast path.
	r := rand.New(rand.NewSource(7))
	exprs := []Expr{True(), False(), Lit("a", "T"), Lit("a", "F")}
	for i := 0; i < 60; i++ {
		exprs = append(exprs, randomExpr(r, 3))
	}
	for _, a := range exprs {
		for _, b := range exprs {
			if got, want := a.Same(b), a.String() == b.String(); got != want {
				t.Errorf("Same(%v, %v) = %v, String equality = %v", a, b, got, want)
			}
		}
	}
}

func TestSameDistinguishesTrueFalse(t *testing.T) {
	if True().Same(False()) || False().Same(True()) {
		t.Error("Same confuses ⊤ and ⊥")
	}
	if !True().Same(True()) || !False().Same(False()) {
		t.Error("Same not reflexive on ⊤/⊥")
	}
}

func TestAppendKeyCanonical(t *testing.T) {
	// Keys must collide exactly when expressions are Same — in
	// particular True ("(") and False ("") must differ.
	r := rand.New(rand.NewSource(11))
	exprs := []Expr{True(), False(), Lit("a", "T"), Or(Lit("a", "T"), Lit("b", "F"))}
	for i := 0; i < 60; i++ {
		exprs = append(exprs, randomExpr(r, 3))
	}
	for _, a := range exprs {
		for _, b := range exprs {
			ka := string(a.AppendKey(nil))
			kb := string(b.AppendKey(nil))
			if (ka == kb) != a.Same(b) {
				t.Errorf("key(%v)=%q key(%v)=%q, Same=%v", a, ka, b, kb, a.Same(b))
			}
		}
	}
}

func TestAppendKeyAppends(t *testing.T) {
	dst := []byte("prefix:")
	out := Lit("d", "T").AppendKey(dst)
	if string(out) != "prefix:(d=T" {
		t.Errorf("AppendKey = %q", out)
	}
}

func BenchmarkAndOrSmall(b *testing.B) {
	x := Or(And(Lit("a", "T"), Lit("b", "F")), Lit("c", "T"))
	y := Or(Lit("a", "F"), And(Lit("b", "T"), Lit("c", "F")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = And(Or(x, y), x)
	}
}

func BenchmarkEqualFourDecisions(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	x := randomExpr(r, 4)
	y := randomExpr(r, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Equal(x, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}
