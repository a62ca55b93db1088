package bpel

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/workload"
)

// marshalOracle is the reflection marshaller Marshal replaced: the
// differential oracle for the direct writer.
func marshalOracle(p *Process) ([]byte, error) {
	body, err := xml.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bpel: %w", err)
	}
	return append([]byte(xml.Header), append(body, '\n')...), nil
}

// MarshalXML writes the sequence with its items in order, for the
// oracle.
func (s *Sequence) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	start.Name.Local = "sequence"
	start.Attr = nil
	if s.Name != "" {
		start.Attr = append(start.Attr, xml.Attr{Name: xml.Name{Local: "name"}, Value: s.Name})
	}
	if err := e.EncodeToken(start); err != nil {
		return err
	}
	for _, item := range s.Items {
		var local string
		switch item.(type) {
		case *Receive:
			local = "receive"
		case *Invoke:
			local = "invoke"
		case *Reply:
			local = "reply"
		case *Assign:
			local = "assign"
		case *Empty:
			local = "empty"
		default:
			return fmt.Errorf("bpel: sequence %q holds unsupported item %T", s.Name, item)
		}
		if err := e.EncodeElement(item, xml.StartElement{Name: xml.Name{Local: local}}); err != nil {
			return err
		}
	}
	return e.EncodeToken(start.End())
}

// checkOracle fails unless Marshal and the oracle agree byte for byte
// on doc.
func checkOracle(t *testing.T, name string, doc *Process) {
	t.Helper()
	want, err := marshalOracle(doc)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	got, err := Marshal(doc)
	if err != nil {
		t.Fatalf("%s: Marshal: %v", name, err)
	}
	if string(got) != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("%s: Marshal diverges from encoding/xml at byte %d\n--- got ---\n%s\n--- want ---\n%s",
			name, i, got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
	}
}

// checkHint fails if Marshal's buffer had to grow for a generated
// document.
func checkHint(t *testing.T, name string, doc *Process) {
	t.Helper()
	got, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if hint := len(xml.Header) + sizeHint(doc); hint < len(got) {
		t.Errorf("%s: size hint %d under the document's %d bytes", name, hint, len(got))
	}
}

// minimalSet merges, translates and minimizes a workload, returning
// the minimal set and the guards GenerateStructured folds under.
func minimalSet(t *testing.T, w *workload.Workload) (*core.ConstraintSet, map[core.Node]cond.Expr) {
	t.Helper()
	merged, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	asc, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Minimize(asc)
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Minimal, guards
}

// checkGenerated checks the flat and the structured document of a
// minimal set against the oracle.
func checkGenerated(t *testing.T, name string, sc *core.ConstraintSet, guards map[core.Node]cond.Expr) {
	t.Helper()
	flat, err := Generate(sc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkOracle(t, name+"/flat", flat)
	checkHint(t, name+"/flat", flat)
	structured, err := GenerateStructured(sc, guards)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkOracle(t, name+"/structured", structured)
	checkHint(t, name+"/structured", structured)
}

func TestMarshalMatchesOraclePurchasing(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	checkGenerated(t, "purchasing", res.Minimal, guards)
}

// TestMarshalMatchesOracleWorkloads covers the Petri differential
// suite's 64 random layered workloads (shortcuts, decisions, services)
// and the 16x16 weave-heavy shape with one to three decisions.
func TestMarshalMatchesOracleWorkloads(t *testing.T) {
	for seed := 0; seed < 64; seed++ {
		w := workload.Layered(3+seed%2, 2+seed%2, 0.25+0.1*float64(seed%3), int64(seed))
		if seed%3 == 1 {
			w = w.WithShortcuts(1 + seed%2)
		}
		if seed%4 == 2 || seed%4 == 3 {
			w = w.WithDecisions(1 + seed%2)
		}
		if seed%8 == 5 {
			w = w.WithServices(1)
		}
		sc, guards := minimalSet(t, w)
		checkGenerated(t, fmt.Sprintf("layered/seed=%d", seed), sc, guards)
	}
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	for seed := 1; seed <= seeds; seed++ {
		for d := 1; d <= 3; d++ {
			w := workload.Layered(16, 16, 0.3, int64(seed)).WithShortcuts(16).WithDecisions(d)
			sc, guards := minimalSet(t, w)
			checkGenerated(t, fmt.Sprintf("heavy/seed=%d/decisions=%d", seed, d), sc, guards)
		}
	}
}

// TestMarshalMatchesOracleHandcrafted covers what generated documents
// never hold: values that need escaping, empty and omitted elements,
// a top-level sequence, nil entries and every optional attribute.
func TestMarshalMatchesOracleHandcrafted(t *testing.T) {
	values := []string{
		"", "plain", `"quoted"`, "it's", "a&b", "<tag>", "tab\there", "line\nbreak", "cr\r",
		"ctl\x01", "del\x7f", "naïve", "\xff\xfe", "�", "emoji 😀", "mixed <&> 'x' \"y\"\n",
	}
	for _, v := range values {
		doc := &Process{
			Name: v, TargetNamespace: v, Xmlns: v, SuppressJoinFailure: v,
			PartnerLinks: &PartnerLinks{Items: []PartnerLink{{Name: v, PartnerRole: v, MyRole: v}}},
			Variables:    &Variables{Items: []Variable{{Name: v, Type: v}}},
			Flow: &Flow{
				Links:     &Links{Items: []Link{{Name: v}}},
				Sequences: []*Sequence{{Name: v, Items: []any{&Empty{Common: Common{Name: v}}}}},
				Receives: []*Receive{{Common: Common{Name: v, JoinCondition: v, SuppressJoinFailure: v,
					Targets: []Target{{LinkName: v}}, Sources: []Source{{LinkName: v, TransitionCondition: v}}},
					PartnerLink: v, Operation: v, Variable: v}},
				Invokes: []*Invoke{{Common: Common{Name: v}, PartnerLink: v, Operation: v, InputVariable: v}},
				Replies: []*Reply{{Common: Common{Name: v}, PartnerLink: v, Operation: v, Variable: v}},
				Assigns: []*Assign{{Common: Common{Name: v}, Copies: []Copy{
					{From: Expr{Variable: v, Expression: v}, To: Expr{Variable: v}}, {}}}},
				Empties: []*Empty{{Common: Common{Name: v}}},
			},
		}
		checkOracle(t, fmt.Sprintf("values/%q", v), doc)
	}

	docs := map[string]*Process{
		"bare":         {},
		"empty flow":   {Name: "p", Flow: &Flow{}},
		"empty links":  {Name: "p", Flow: &Flow{Links: &Links{}}},
		"empty groups": {Name: "p", PartnerLinks: &PartnerLinks{}, Variables: &Variables{}, Flow: &Flow{Links: &Links{}}},
		"empty sequence": {Name: "p", Flow: &Flow{Sequences: []*Sequence{{}}},
			Sequence: &Sequence{Name: "top"}},
		"top-level sequence": {Name: "p", Sequence: &Sequence{Name: "s", Items: []any{
			&Receive{Common: Common{Name: "r"}}, &Invoke{Common: Common{Name: "i"}},
			&Reply{Common: Common{Name: "y"}}, &Assign{Common: Common{Name: "a"}}, &Empty{Common: Common{Name: "e"}},
		}}},
		"nested attachments": {Name: "p", Flow: &Flow{Sequences: []*Sequence{{Name: "s", Items: []any{
			&Assign{Common: Common{Name: "a", Sources: []Source{{LinkName: "l", TransitionCondition: "$x = 'T'"}}},
				Copies: []Copy{{From: Expr{Expression: "evaluate(x)"}, To: Expr{Variable: "x"}}}},
		}}}}},
		"nil entries": {Name: "p", Flow: &Flow{
			Sequences: []*Sequence{nil, {Items: []any{(*Empty)(nil), &Empty{Common: Common{Name: "e"}}}}},
			Receives:  []*Receive{nil}, Invokes: []*Invoke{nil}, Replies: []*Reply{nil},
			Assigns: []*Assign{nil}, Empties: []*Empty{nil, {Common: Common{Name: "f"}}},
		}},
	}
	for name, doc := range docs {
		checkOracle(t, name, doc)
	}
}

func TestMarshalRejectsUnsupportedSequenceItem(t *testing.T) {
	doc := &Process{Name: "p", Flow: &Flow{Sequences: []*Sequence{{Name: "s", Items: []any{&Link{Name: "l"}}}}}}
	if _, err := Marshal(doc); err == nil || !strings.Contains(err.Error(), "unsupported item *bpel.Link") {
		t.Errorf("err = %v, want unsupported item", err)
	}
}
