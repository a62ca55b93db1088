package dscl

import (
	"context"
	"os"
	"sort"
	"strings"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/weave"
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

// weaveDoc runs a document through the weave pipeline's optimization
// stages (merge, desugar, service translation, minimization), as
// dscweaver does, and returns the translated set and the minimization
// result.
func weaveDoc(doc *Document) (*core.ConstraintSet, *core.MinimizeResult, error) {
	res, err := weave.Run(context.Background(), weave.Input{Parsed: doc.Parsed()}, weave.Options{})
	if err != nil {
		return nil, nil, err
	}
	return res.Translated, res.Minimize, nil
}

// constraintSet merges the document's dependency catalog (§4.2) and
// folds in the raw DSCL constraints, as the weave pipeline's merge
// stage does, without desugaring.
func constraintSet(d *Document) (*core.ConstraintSet, error) {
	sc, err := core.Merge(d.Proc, d.Deps)
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.Extra.Len(); i++ {
		sc.Add(d.Extra.At(i))
	}
	return sc, nil
}

const tinyDoc = `
process Tiny {
    service W { ports 1, 2; async; sequential }

    activity a receive writes(x)
    activity b invoke W.1 reads(x)
    activity c receive W.d writes(y)
    activity dec decision reads(y) branches(T, F)
    activity d opaque

    dependencies {
        data a -> b var(x)
        control dec ->[T] d
        service b -> W.1
        service W.1 -> W.d
        service W.d -> c
        cooperation a -> d why("business rule")
    }

    constraints {
        S(d) -> F(c)
        b <-> c
        b >< d
    }
}
`

func TestLoadTiny(t *testing.T) {
	doc, err := Load(tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Proc.Name != "Tiny" {
		t.Errorf("name = %q", doc.Proc.Name)
	}
	if got := len(doc.Proc.Activities()); got != 5 {
		t.Errorf("activities = %d, want 5", got)
	}
	svc, ok := doc.Proc.Service("W")
	if !ok || !svc.Async || !svc.SequentialPorts || len(svc.Ports) != 2 {
		t.Errorf("service W = %+v", svc)
	}
	if doc.Deps.Len() != 6 {
		t.Errorf("deps = %d, want 6", doc.Deps.Len())
	}
	if doc.Extra.Len() != 3 {
		t.Errorf("extra constraints = %d, want 3", doc.Extra.Len())
	}
}

func TestLoadTinySemantics(t *testing.T) {
	doc, err := Load(tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	// data a -> b captured with variable label.
	data := doc.Deps.ByDimension(core.Data)
	if len(data) != 1 || data[0].Label != "x" {
		t.Errorf("data deps = %v", data)
	}
	ctl := doc.Deps.ByDimension(core.Control)
	if len(ctl) != 1 || ctl[0].Branch != "T" {
		t.Errorf("control deps = %v", ctl)
	}
	coop := doc.Deps.ByDimension(core.Cooperation)
	if len(coop) != 1 || coop[0].Label != "business rule" {
		t.Errorf("cooperation deps = %v", coop)
	}
	// Raw constraints: state-level, happen-together, exclusive.
	cons := doc.Extra.Constraints()
	if cons[0].From.State != core.Start || cons[0].To.State != core.Finish {
		t.Errorf("state-level constraint = %v", cons[0])
	}
	if cons[1].Rel != core.HappenTogether {
		t.Errorf("rel = %v, want HappenTogether", cons[1].Rel)
	}
	if cons[2].Rel != core.Exclusive {
		t.Errorf("rel = %v, want Exclusive", cons[2].Rel)
	}
	if cons[2].From.State != core.Run || cons[2].To.State != core.Run {
		t.Errorf("exclusive default states = %v", cons[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no process", `service X {}`, `expected "process"`},
		{"unknown decl", `process P { banana }`, "unknown declaration"},
		{"unknown kind", `process P { activity a dances }`, "unknown activity kind"},
		{"unknown dim", "process P {\nactivity a opaque\ndependencies { temporal a -> a }\n}", "unknown dependency dimension"},
		{"unterminated string", "process P {\ndependencies { }\nconstraints { }\n} \"oops", "unterminated string"},
		{"unterminated comment", "process P { /* hmm", "unterminated block comment"},
		{"bad arrow", "process P {\nactivity a opaque\nconstraints { a - a }\n}", "did you mean '->'"},
		{"dup activity", "process P {\nactivity a opaque\nactivity a opaque\n}", "duplicate activity"},
		{"undeclared activity in dep", "process P {\nactivity a opaque\ndependencies { data a -> ghost }\n}", `undeclared activity "ghost"`},
		{"undeclared service node", "process P {\nactivity a opaque\ndependencies { service a -> Nope.1 }\n}", `undeclared service "Nope"`},
		{"branch on data dep", "process P {\nactivity a opaque\nactivity b opaque\ndependencies { data a ->[T] b }\n}", "branch annotation"},
		{"conditional from non-decision", "process P {\nactivity a opaque\nactivity b opaque\nconstraints { a ->[T] b }\n}", "non-decision"},
		{"branch outside domain", "process P {\nactivity d decision branches(A, B)\nactivity b opaque\nconstraints { d ->[Z] b }\n}", "not in domain"},
		{"run state on external", "process P {\nservice W { ports 1 }\nactivity a opaque\nconstraints { R(W.1) -> a }\n}", "no run state"},
		{"trailing garbage", "process P { }\nprocess Q { }", "unexpected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Load("process P {\n  banana\n}")
	var perr *Error
	if !asError(err, &perr) {
		t.Fatalf("error type = %T", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
}

func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestSemicolonAndNewlineSeparators(t *testing.T) {
	oneLine := `process P { activity a opaque; activity b opaque; dependencies { data a -> b } }`
	doc, err := Load(oneLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Proc.Activities()) != 2 || doc.Deps.Len() != 1 {
		t.Error("semicolon-separated document mis-parsed")
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := `
// leading comment
process P { /* inline */
    activity a opaque // trailing
    /* block
       spanning lines */
    activity b opaque
}
`
	doc, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Proc.Activities()) != 2 {
		t.Error("comments broke parsing")
	}
}

func TestPurchasingDocumentMatchesFixture(t *testing.T) {
	src, err := os.ReadFile("testdata/purchasing.dscl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Deps.Len() != 40 {
		t.Errorf("deps = %d, want 40", doc.Deps.Len())
	}
	counts := doc.Deps.CountByDimension()
	if counts[core.Data] != 9 || counts[core.Control] != 10 ||
		counts[core.Cooperation] != 6 || counts[core.ServiceDim] != 15 {
		t.Errorf("dimension counts = %v", counts)
	}
}

func TestPurchasingWeaveReproducesFigure9(t *testing.T) {
	src, err := os.ReadFile("testdata/purchasing.dscl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	asc, res, err := weaveDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if asc.Len() != 30 {
		t.Errorf("ASC = %d constraints, want 30", asc.Len())
	}
	if res.Minimal.Len() != 17 {
		t.Errorf("minimal = %d constraints, want 17\n%s", res.Minimal.Len(), res.Minimal)
	}
	if len(res.Removed) != 13 {
		t.Errorf("removed from ASC = %d, want 13", len(res.Removed))
	}
}

func TestRoundTripTiny(t *testing.T) {
	doc, err := Load(tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	printed := PrintDocument(doc)
	doc2, err := Load(printed)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\nsource:\n%s", err, printed)
	}
	if PrintDocument(doc2) != printed {
		t.Errorf("print not idempotent:\n--- first ---\n%s\n--- second ---\n%s", printed, PrintDocument(doc2))
	}
	if doc2.Deps.Len() != doc.Deps.Len() || doc2.Extra.Len() != doc.Extra.Len() {
		t.Error("round trip lost declarations")
	}
}

func TestRoundTripPurchasing(t *testing.T) {
	src, err := os.ReadFile("testdata/purchasing.dscl")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Load(string(src))
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := Load(PrintDocument(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := sortedDeps(doc.Deps)
	got := sortedDeps(doc2.Deps)
	if len(want) != len(got) {
		t.Fatalf("round trip: %d deps vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("dep %d: %q vs %q", i, got[i], want[i])
		}
	}
}

func TestPrintConstraintsSorted(t *testing.T) {
	doc, err := Load(tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := constraintSet(doc)
	if err != nil {
		t.Fatal(err)
	}
	out := PrintConstraints(sc)
	lines := strings.Split(out, "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("PrintConstraints not sorted at line %d:\n%s", i, out)
		}
	}
	if !strings.Contains(out, "dec ->[T] d") {
		t.Errorf("conditional shorthand missing:\n%s", out)
	}
	if !strings.Contains(out, "S(d) -> F(c)") {
		t.Errorf("state-level constraint missing:\n%s", out)
	}
}

func TestPointRefWithServiceNode(t *testing.T) {
	src := `
process P {
    service W { ports 1; async }
    activity a invoke W.1
    activity b receive W.d
    constraints {
        F(W.1) -> S(b)
        a -> W.1
    }
}
`
	doc, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	cons := doc.Extra.Constraints()
	if len(cons) != 2 {
		t.Fatalf("constraints = %d", len(cons))
	}
	if !cons[0].From.Node.IsService() || cons[0].From.Node.Port != "1" {
		t.Errorf("explicit service point = %v", cons[0].From)
	}
	if !cons[1].To.Node.IsService() {
		t.Errorf("bare service ref = %v", cons[1].To)
	}
}

func TestDependencyMetadataErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"var arity", "process P {\nactivity a opaque\nactivity b opaque\ndependencies { data a -> b var(x, y) }\n}", "exactly one variable"},
		{"unknown clause", "process P {\nactivity a opaque\nactivity b opaque\ndependencies { data a -> b because(reasons) }\n}", "unknown dependency clause"},
		{"why not string", "process P {\nactivity a opaque\nactivity b opaque\ndependencies { cooperation a -> b why(bare) }\n}", "expected string"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCompoundConditions(t *testing.T) {
	src := `
process Compound {
    activity d1 decision
    activity d2 decision branches(A, B, C)
    activity x opaque
    activity y opaque

    constraints {
        d1 -> x
        d2 -> x
        x ->[d1=T, d2=A] y
    }
}
`
	doc, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	var compound *core.Constraint
	for _, c := range doc.Extra.Constraints() {
		if c.From.Node.Activity == "x" {
			cc := c
			compound = &cc
		}
	}
	if compound == nil {
		t.Fatal("compound constraint missing")
	}
	eq, err := cond.Equal(compound.Cond,
		cond.And(cond.Lit("d1", "T"), cond.Lit("d2", "A")), doc.Proc.Domains())
	if err != nil || !eq {
		t.Errorf("compound cond = %v", compound.Cond)
	}
	// It is conditional ordering, not a guard-defining control edge.
	if compound.HasOrigin(core.Control) {
		t.Error("compound condition marked as control origin")
	}
	// Round trip.
	doc2, err := Load(PrintDocument(doc))
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, PrintDocument(doc))
	}
	if doc2.Extra.Len() != doc.Extra.Len() {
		t.Error("round trip lost constraints")
	}
}

func TestCompoundConditionErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"non-decision", "process P {\nactivity a opaque\nactivity b opaque\nconstraints { a ->[a=T] b }\n}", "non-decision"},
		{"bad value", "process P {\nactivity d decision\nactivity b opaque\nconstraints { d ->[d=MAYBE] b }\n}", "not in domain"},
		{"contradiction", "process P {\nactivity d decision\nactivity b opaque\nactivity c opaque\nconstraints { b ->[d=T, d=F] c }\n}", "contradictory"},
		{"missing value", "process P {\nactivity d decision\nactivity b opaque\nconstraints { d ->[d=] b }\n}", "expected identifier"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCompoundConditionInPipeline(t *testing.T) {
	// The compound constraint is vacated when the condition fails and
	// enforced when it holds; the optimizer and validator accept it.
	src := `
process P {
    activity start opaque
    activity d1 decision
    activity x opaque
    activity y opaque
    dependencies {
        data start -> d1
        data start -> x
        data start -> y
        control d1 ->[T] x
    }
    constraints {
        x ->[d1=T] y
    }
}
`
	doc, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	asc, res, err := weaveDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if asc.Len() == 0 || res.Minimal.Len() == 0 {
		t.Fatal("pipeline lost constraints")
	}
}

func TestWeaveRejectsCyclicDocument(t *testing.T) {
	src := `
process Cyclic {
    activity a opaque
    activity b opaque
    dependencies {
        data a -> b
        cooperation b -> a
    }
}
`
	doc, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := weaveDoc(doc); err == nil {
		t.Error("Weave accepted a cyclic catalog")
	}
}

func TestWeaveDesugarsHappenTogether(t *testing.T) {
	src := `
process HT {
    activity a opaque
    activity b opaque
    constraints { a <-> b }
}
`
	doc, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	asc, res, err := weaveDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range asc.Constraints() {
		if c.Rel == core.HappenTogether {
			t.Error("HappenTogether survived Weave")
		}
	}
	if res.Minimal.Len() == 0 {
		t.Error("desugared constraints vanished")
	}
}

func TestFormatConstraintShorthand(t *testing.T) {
	doc, err := Load(tinyDoc)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := constraintSet(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sc.Constraints() {
		s := FormatConstraint(c)
		if c.Rel == core.HappenBefore && c.From.State == core.Finish && c.To.State == core.Start {
			if strings.Contains(s, "F(") || strings.Contains(s, "S(") {
				t.Errorf("activity-level constraint not shortened: %q", s)
			}
		}
	}
}
