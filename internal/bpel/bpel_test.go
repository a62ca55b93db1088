package bpel

import (
	"strings"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
)

func generatePurchasing(t *testing.T) *Process {
	t.Helper()
	_, _, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Generate(res.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestGeneratePurchasingStructure(t *testing.T) {
	doc := generatePurchasing(t)
	if err := Validate(doc); err != nil {
		t.Fatal(err)
	}
	stats := Summarize(doc)
	if stats.Activities != 14 {
		t.Errorf("activities = %d, want 14", stats.Activities)
	}
	if stats.Links != 17 {
		t.Errorf("links = %d, want 17 (Figure 9)", stats.Links)
	}
	// The four conditional constraints of the minimal set: three
	// if_au=T edges and one if_au=F edge.
	if stats.Conditional != 4 {
		t.Errorf("conditional links = %d, want 4", stats.Conditional)
	}
	if doc.SuppressJoinFailure != "yes" {
		t.Error("suppressJoinFailure not set: dead-path elimination disabled")
	}
	if doc.PartnerLinks == nil || len(doc.PartnerLinks.Items) != 4 {
		t.Error("expected 4 partner links")
	}
}

func TestGenerateTransitionConditions(t *testing.T) {
	doc := generatePurchasing(t)
	var ifAssign *Assign
	for _, a := range doc.Flow.Assigns {
		if a.Name == "if_au" {
			ifAssign = a
		}
	}
	if ifAssign == nil {
		t.Fatal("if_au assign missing")
	}
	condTrue, condFalse := 0, 0
	for _, s := range ifAssign.Sources {
		switch s.TransitionCondition {
		case "$if_au_outcome = 'T'":
			condTrue++
		case "$if_au_outcome = 'F'":
			condFalse++
		case "":
			t.Errorf("unconditional link %s from decision", s.LinkName)
		default:
			t.Errorf("unexpected transitionCondition %q", s.TransitionCondition)
		}
	}
	if condTrue != 3 || condFalse != 1 {
		t.Errorf("if_au sources: %d true, %d false; want 3/1", condTrue, condFalse)
	}
}

func TestGenerateEndpointAttributes(t *testing.T) {
	doc := generatePurchasing(t)
	var invPurchaseSi *Invoke
	for _, inv := range doc.Flow.Invokes {
		if inv.Name == "invPurchase_si" {
			invPurchaseSi = inv
		}
	}
	if invPurchaseSi == nil {
		t.Fatal("invPurchase_si missing")
	}
	if invPurchaseSi.PartnerLink != "Purchase" || invPurchaseSi.Operation != "port2" {
		t.Errorf("endpoint = %s/%s", invPurchaseSi.PartnerLink, invPurchaseSi.Operation)
	}
	if invPurchaseSi.InputVariable != "si" {
		t.Errorf("input variable = %q", invPurchaseSi.InputVariable)
	}
	// Link attachments: invPurchase_si has two targets
	// (invPurchase_po and recShip_si) and one source (recPurchase_oi).
	if len(invPurchaseSi.Targets) != 2 || len(invPurchaseSi.Sources) != 1 {
		t.Errorf("attachments = %d targets, %d sources", len(invPurchaseSi.Targets), len(invPurchaseSi.Sources))
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	doc := generatePurchasing(t)
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), xmlHeaderPrefix) {
		t.Error("missing XML header")
	}
	doc2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(doc2); err != nil {
		t.Fatalf("parsed document invalid: %v", err)
	}
	data2, err := Marshal(doc2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("marshal → parse → marshal not stable")
	}
	s1, s2 := Summarize(doc), Summarize(doc2)
	if s1 != s2 {
		t.Errorf("stats changed across round trip: %+v vs %+v", s1, s2)
	}
}

func TestGenerateRejectsServiceNodes(t *testing.T) {
	proc := purchasing.Process()
	merged, err := core.Merge(proc, purchasing.Dependencies())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(merged); err == nil {
		t.Error("Generate accepted untranslated set")
	}
}

func TestGenerateRejectsStateLevel(t *testing.T) {
	p := core.NewProcess("sl")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("a", core.Start),
		To: core.PointOf("b", core.Finish), Cond: cond.True()})
	if _, err := Generate(s); err == nil || !strings.Contains(err.Error(), "state-level") {
		t.Errorf("err = %v, want state-level rejection", err)
	}
}

func TestGenerateRejectsExclusive(t *testing.T) {
	p := core.NewProcess("ex")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.Exclusive, From: core.PointOf("a", core.Run),
		To: core.PointOf("b", core.Run), Cond: cond.True()})
	if _, err := Generate(s); err == nil || !strings.Contains(err.Error(), "Exclusive") {
		t.Errorf("err = %v, want Exclusive rejection", err)
	}
}

func TestGenerateRejectsUnknownActivity(t *testing.T) {
	p := core.NewProcess("ua")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Before("a", "ghost", core.Data)
	if _, err := Generate(s); err == nil || !strings.Contains(err.Error(), "outside process ua") {
		t.Errorf("err = %v, want unknown-activity rejection", err)
	}
}

func TestValidateCatchesBrokenDocuments(t *testing.T) {
	base := func() *Process {
		return &Process{
			Name: "t",
			Flow: &Flow{
				Links: &Links{Items: []Link{{Name: "l"}}},
				Empties: []*Empty{
					{Common: Common{Name: "a", Sources: []Source{{LinkName: "l"}}}},
					{Common: Common{Name: "b", Targets: []Target{{LinkName: "l"}}}},
				},
			},
		}
	}
	if err := Validate(base()); err != nil {
		t.Fatalf("base document invalid: %v", err)
	}

	t.Run("no flow", func(t *testing.T) {
		if err := Validate(&Process{Name: "x"}); err == nil {
			t.Error("accepted flowless process")
		}
	})
	t.Run("duplicate activity", func(t *testing.T) {
		d := base()
		d.Flow.Empties = append(d.Flow.Empties, &Empty{Common: Common{Name: "a"}})
		if err := Validate(d); err == nil || !strings.Contains(err.Error(), "duplicate activity") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("undeclared link", func(t *testing.T) {
		d := base()
		d.Flow.Empties[0].Sources = append(d.Flow.Empties[0].Sources, Source{LinkName: "ghost"})
		if err := Validate(d); err == nil || !strings.Contains(err.Error(), "undeclared link") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("link without target", func(t *testing.T) {
		d := base()
		d.Flow.Links.Items = append(d.Flow.Links.Items, Link{Name: "dangling"})
		d.Flow.Empties[0].Sources = append(d.Flow.Empties[0].Sources, Source{LinkName: "dangling"})
		if err := Validate(d); err == nil || !strings.Contains(err.Error(), "no target") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("two sources", func(t *testing.T) {
		d := base()
		d.Flow.Empties[1].Sources = append(d.Flow.Empties[1].Sources, Source{LinkName: "l"})
		if err := Validate(d); err == nil || !strings.Contains(err.Error(), "two sources") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("self loop", func(t *testing.T) {
		d := base()
		d.Flow.Empties[0].Targets = append(d.Flow.Empties[0].Targets, Target{LinkName: "l"})
		d.Flow.Empties[1].Targets = nil
		if err := Validate(d); err == nil || !strings.Contains(err.Error(), "loops") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		d := base()
		d.Flow.Links.Items = append(d.Flow.Links.Items, Link{Name: "back"})
		d.Flow.Empties[1].Sources = append(d.Flow.Empties[1].Sources, Source{LinkName: "back"})
		d.Flow.Empties[0].Targets = append(d.Flow.Empties[0].Targets, Target{LinkName: "back"})
		if err := Validate(d); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("err = %v", err)
		}
	})
}

// TestValidateReportsFirstFault requires one message from repeated
// calls on documents with several faults: the first in declaration
// order.
func TestValidateReportsFirstFault(t *testing.T) {
	empty := func(name string, sources, targets []string) *Empty {
		e := &Empty{Common: Common{Name: name}}
		for _, l := range sources {
			e.Sources = append(e.Sources, Source{LinkName: l})
		}
		for _, l := range targets {
			e.Targets = append(e.Targets, Target{LinkName: l})
		}
		return e
	}
	links := func(names ...string) *Links {
		ls := &Links{}
		for _, n := range names {
			ls.Items = append(ls.Items, Link{Name: n})
		}
		return ls
	}
	cases := []struct {
		name string
		doc  *Process
		want string
	}{
		{"two target-less links", &Process{Name: "t", Flow: &Flow{
			Links:   links("x1", "x2"),
			Empties: []*Empty{empty("a", []string{"x1", "x2"}, nil)},
		}}, `bpel: link "x1" has no target`},
		{"two cycles", &Process{Name: "t", Flow: &Flow{
			Links: links("ab", "bc", "ca", "cd", "da"),
			Empties: []*Empty{
				empty("a", []string{"ab"}, []string{"ca", "da"}),
				empty("b", []string{"bc"}, []string{"ab"}),
				empty("c", []string{"ca", "cd"}, []string{"bc"}),
				empty("d", []string{"da"}, []string{"cd"}),
			},
		}}, "bpel: links form a control cycle: [a b c a]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[string]int{}
			for range 200 {
				err := Validate(tc.doc)
				if err == nil {
					t.Fatal("Validate accepted the document")
				}
				seen[err.Error()]++
			}
			if len(seen) != 1 || seen[tc.want] != 200 {
				t.Errorf("messages over 200 calls = %v, want only %q", seen, tc.want)
			}
		})
	}
}

func TestVariablesIncludeDecisionOutcomes(t *testing.T) {
	doc := generatePurchasing(t)
	found := false
	for _, v := range doc.Variables.Items {
		if v.Name == "if_au_outcome" {
			found = true
		}
	}
	if !found {
		t.Error("decision outcome variable missing from declarations")
	}
}

const xmlHeaderPrefix = `<?xml version="1.0" encoding="UTF-8"?>`
