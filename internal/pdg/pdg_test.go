package pdg

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
)

func depKeys(deps []core.Dependency) []string {
	out := make([]string, len(deps))
	for i, d := range deps {
		out[i] = d.String()
	}
	sort.Strings(out)
	return out
}

func TestExtractToyFigure4(t *testing.T) {
	ex, err := Extract(ToySeqlang)
	if err != nil {
		t.Fatal(err)
	}
	ctl := depKeys(ex.Deps.ByDimension(core.Control))
	wantCtl := []string{
		"a1 →c a7", // NONE join edge
		"a1 →c[F] a5",
		"a1 →c[F] a6",
		"a1 →c[T] a2",
		"a1 →c[T] a3",
		"a1 →c[T] a4",
	}
	if !reflect.DeepEqual(ctl, wantCtl) {
		t.Errorf("control deps = %v\nwant %v", ctl, wantCtl)
	}
	data := depKeys(ex.Deps.ByDimension(core.Data))
	wantData := []string{
		"a0 →d a1", // flag
		"a2 →d a3", // y
	}
	if !reflect.DeepEqual(data, wantData) {
		t.Errorf("data deps = %v\nwant %v", data, wantData)
	}
}

func TestExtractPurchasingMatchesTable1(t *testing.T) {
	ex, err := Extract(PurchasingSeqlang)
	if err != nil {
		t.Fatal(err)
	}
	want := purchasing.Dependencies()
	for _, dim := range []core.Dimension{core.Data, core.Control} {
		got := depKeys(ex.Deps.ByDimension(dim))
		exp := depKeys(want.ByDimension(dim))
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s dependencies differ\ngot:  %v\nwant: %v", dim, got, exp)
		}
	}
	// The extractor produces only data and control rows; service and
	// cooperation come from WSCL and analysts respectively.
	if n := len(ex.Deps.ByDimension(core.ServiceDim)); n != 0 {
		t.Errorf("extractor produced %d service deps", n)
	}
	if n := len(ex.Deps.ByDimension(core.Cooperation)); n != 0 {
		t.Errorf("extractor produced %d cooperation deps", n)
	}
}

func TestExtractedProcessMatchesFixture(t *testing.T) {
	ex, err := Extract(PurchasingSeqlang)
	if err != nil {
		t.Fatal(err)
	}
	fix := purchasing.Process()
	if got, want := len(ex.Proc.Activities()), len(fix.Activities()); got != want {
		t.Errorf("activities = %d, want %d", got, want)
	}
	for _, a := range fix.Activities() {
		b, ok := ex.Proc.Activity(a.ID)
		if !ok {
			t.Errorf("activity %s missing", a.ID)
			continue
		}
		if b.Kind != a.Kind || b.Service != a.Service || b.Port != a.Port {
			t.Errorf("activity %s = kind %v %s.%s, want kind %v %s.%s",
				a.ID, b.Kind, b.Service, b.Port, a.Kind, a.Service, a.Port)
		}
	}
	for _, s := range fix.Services() {
		w, ok := ex.Proc.Service(s.Name)
		if !ok || !reflect.DeepEqual(*w, *s) {
			t.Errorf("service %s = %+v, want %+v", s.Name, w, s)
		}
	}
}

func TestCrossBranchFlowDependency(t *testing.T) {
	// The recShip_si → invPurchase_si cross-branch dependency is the
	// paper's flagship example of synchronization "at intermediate
	// steps" between parallel subprocesses.
	ex, err := Extract(PurchasingSeqlang)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range ex.Deps.ByDimension(core.Data) {
		if d.From.Activity == "recShip_si" && d.To.Activity == "invPurchase_si" && d.Label == "si" {
			found = true
		}
	}
	if !found {
		t.Error("cross-branch data dependency recShip_si →d invPurchase_si not extracted")
	}
}

func TestSequentialShadowing(t *testing.T) {
	// A later definition in a sequence shadows an earlier one.
	src := `
process Shadow {
    sequence {
        assign w1 writes(x)
        assign w2 writes(x)
        assign r reads(x)
    }
}
`
	ex, err := Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	data := depKeys(ex.Deps.ByDimension(core.Data))
	want := []string{"w1 →d w2", "w2 →d r"}
	// w1 →d w2? No: w2 only writes x, it does not read it; the only
	// def-use pair is w2 → r.
	want = []string{"w2 →d r"}
	if !reflect.DeepEqual(data, want) {
		t.Errorf("data deps = %v, want %v", data, want)
	}
}

func TestSwitchBranchDefsMerge(t *testing.T) {
	// Definitions from both branches reach a use after the switch
	// (the set_oi / recPurchase_oi → replyClient_oi pattern).
	src := `
process Merge {
    sequence {
        receive in writes(c)
        switch sw reads(c) {
            case T { assign defT writes(v) }
            case F { assign defF writes(v) }
        }
        reply out reads(v)
    }
}
`
	ex, err := Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	data := depKeys(ex.Deps.ByDimension(core.Data))
	want := []string{"defF →d out", "defT →d out", "in →d sw"}
	if !reflect.DeepEqual(data, want) {
		t.Errorf("data deps = %v, want %v", data, want)
	}
}

func TestWhileGuardedRegion(t *testing.T) {
	src := `
process Loop {
    sequence {
        receive in writes(n)
        while more reads(n) {
            assign step writes(n)
        }
        reply out reads(n)
    }
}
`
	ex, err := Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	ctl := depKeys(ex.Deps.ByDimension(core.Control))
	if !reflect.DeepEqual(ctl, []string{"more →c[T] step"}) {
		t.Errorf("control deps = %v", ctl)
	}
	data := depKeys(ex.Deps.ByDimension(core.Data))
	// in reaches the loop condition and (zero-trip) the reply; step's
	// def also reaches out.
	for _, want := range []string{"in →d more", "in →d out", "step →d out"} {
		found := false
		for _, d := range data {
			if d == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %q in %v", want, data)
		}
	}
}

func TestNestedSwitchNearestDecisionWins(t *testing.T) {
	src := `
process Nested {
    sequence {
        receive in writes(a)
        switch outer reads(a) {
            case T {
                switch inner reads(a) {
                    case T { assign deep }
                    case F { assign other }
                }
            }
            case F { assign shallow }
        }
    }
}
`
	ex, err := Extract(src)
	if err != nil {
		t.Fatal(err)
	}
	ctl := depKeys(ex.Deps.ByDimension(core.Control))
	want := []string{
		"inner →c[F] other",
		"inner →c[T] deep",
		"outer →c[F] shallow",
		"outer →c[T] inner",
	}
	if !reflect.DeepEqual(ctl, want) {
		t.Errorf("control deps = %v\nwant %v", ctl, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"no process", `sequence {}`, `expected "process"`},
		{"one case", `process P { switch s { case T { assign a } } }`, "at least two cases"},
		{"unknown stmt", `process P { dance x }`, "unknown statement"},
		{"bad char", `process P { @ }`, "unexpected character"},
		{"trailing", "process P { assign a }\nassign b", `unexpected "assign"`},
		{"dup name", `process P { sequence { assign a; } }`, "unexpected character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Extract(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestDuplicateActivityRejected(t *testing.T) {
	src := `process P { sequence { assign a writes(x) assign a reads(x) } }`
	if _, err := Extract(src); err == nil || !strings.Contains(err.Error(), "duplicate activity") {
		t.Errorf("err = %v", err)
	}
}

func TestSequencingConstraintsOverSpecify(t *testing.T) {
	prog, err := ParseProgram(PurchasingSeqlang)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExtractProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := SequencingConstraints(prog, ex.Proc)
	if err != nil {
		t.Fatal(err)
	}
	has := func(from, to core.ActivityID) bool {
		for _, c := range sc.Constraints() {
			if c.From.Node.Activity == from && c.To.Node.Activity == to {
				return true
			}
		}
		return false
	}
	// The paper's named over-specification: Production's two invokes
	// are sequenced although nothing depends on that order.
	if !has("invProduction_po", "invProduction_ss") {
		t.Error("over-specified invProduction_po → invProduction_ss not present in construct baseline")
	}
	// Required sequencing (service constraint) also present.
	if !has("invPurchase_po", "invPurchase_si") {
		t.Error("invPurchase_po → invPurchase_si missing")
	}
	// Flow branches are not sequenced against each other.
	if has("invPurchase_po", "invShip_po") || has("invShip_po", "invPurchase_po") {
		t.Error("flow branches sequenced against each other")
	}
	// The constructs make a valid (acyclic, executable) baseline when
	// combined with the extracted data deps.
	merged, err := core.Merge(ex.Proc, ex.Deps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sc.Constraints() {
		merged.Add(c)
	}
	if _, err := core.Minimize(merged); err != nil {
		t.Fatalf("construct baseline not minimizable: %v", err)
	}
}

// TestExtractDependencyOrderDeterministic: replyClient_oi reads oi
// with two reaching definitions (recPurchase_oi on the T branch,
// set_oi on the F branch). Their data dependencies are added in
// statement order, so every extraction of the Figure 2 program lists
// its dependencies in the same order.
func TestExtractDependencyOrderDeterministic(t *testing.T) {
	order := func() []string {
		ex, err := Extract(PurchasingSeqlang)
		if err != nil {
			t.Fatal(err)
		}
		all := ex.Deps.All()
		out := make([]string, len(all))
		for i, d := range all {
			out[i] = d.String()
		}
		return out
	}
	want := order()
	pos := map[string]int{}
	for i, k := range want {
		pos[k] = i
	}
	if pos["recPurchase_oi →d replyClient_oi"] > pos["set_oi →d replyClient_oi"] {
		t.Errorf("oi definitions out of statement order: %v", want)
	}
	for i := 0; i < 24; i++ {
		if got := order(); !reflect.DeepEqual(got, want) {
			t.Fatalf("extraction %d: dependency order differs\ngot:  %v\nwant: %v", i+2, got, want)
		}
	}
}
