package core

import (
	"strings"
	"testing"
)

func testProcess(t *testing.T) *Process {
	t.Helper()
	p := NewProcess("test")
	p.MustAddService(&Service{Name: "Svc", Ports: []string{"1", "2"}, Async: true, SequentialPorts: true})
	p.MustAddActivity(&Activity{ID: "a", Kind: KindReceive, Writes: []string{"x"}})
	p.MustAddActivity(&Activity{ID: "b", Kind: KindInvoke, Service: "Svc", Port: "1", Reads: []string{"x"}})
	p.MustAddActivity(&Activity{ID: "c", Kind: KindDecision, Reads: []string{"x"}})
	p.MustAddActivity(&Activity{ID: "d", Kind: KindOpaque})
	return p
}

func TestProcessDuplicateActivity(t *testing.T) {
	p := NewProcess("p")
	if err := p.AddActivity(&Activity{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddActivity(&Activity{ID: "a"}); err == nil {
		t.Error("duplicate activity accepted")
	}
	if err := p.AddActivity(&Activity{}); err == nil {
		t.Error("empty activity id accepted")
	}
}

func TestProcessDuplicateService(t *testing.T) {
	p := NewProcess("p")
	if err := p.AddService(&Service{Name: "S"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddService(&Service{Name: "S"}); err == nil {
		t.Error("duplicate service accepted")
	}
	if err := p.AddService(&Service{}); err == nil {
		t.Error("empty service name accepted")
	}
}

func TestProcessValidateUndeclaredService(t *testing.T) {
	p := NewProcess("p")
	p.MustAddActivity(&Activity{ID: "inv", Kind: KindInvoke, Service: "Nope", Port: "1"})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared service") {
		t.Errorf("Validate = %v, want undeclared service error", err)
	}
}

func TestProcessValidateUndeclaredPort(t *testing.T) {
	p := NewProcess("p")
	p.MustAddService(&Service{Name: "S", Ports: []string{"1"}})
	p.MustAddActivity(&Activity{ID: "inv", Kind: KindInvoke, Service: "S", Port: "9"})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared port") {
		t.Errorf("Validate = %v, want undeclared port error", err)
	}
}

func TestProcessValidateDummyOnSyncService(t *testing.T) {
	p := NewProcess("p")
	p.MustAddService(&Service{Name: "S", Ports: []string{"1"}})
	p.MustAddActivity(&Activity{ID: "rec", Kind: KindReceive, Service: "S", Port: DummyPort})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "dummy port") {
		t.Errorf("Validate = %v, want dummy-port error", err)
	}
}

func TestProcessValidateSequentialNeedsTwoPorts(t *testing.T) {
	p := NewProcess("p")
	p.MustAddService(&Service{Name: "S", Ports: []string{"1"}, SequentialPorts: true})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "sequential ports") {
		t.Errorf("Validate = %v, want sequential-ports error", err)
	}
}

func TestProcessValidateReservedPortName(t *testing.T) {
	p := NewProcess("p")
	p.MustAddService(&Service{Name: "S", Ports: []string{"d"}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Errorf("Validate = %v, want reserved-port error", err)
	}
}

func TestProcessValidateDecisionBranches(t *testing.T) {
	p := NewProcess("p")
	p.MustAddActivity(&Activity{ID: "sw", Kind: KindDecision, Branches: []string{"A", "A"}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate branch") {
		t.Errorf("Validate = %v, want duplicate-branch error", err)
	}
	p2 := NewProcess("p2")
	p2.MustAddActivity(&Activity{ID: "sw", Kind: KindDecision, Branches: []string{"only"}})
	if err := p2.Validate(); err == nil || !strings.Contains(err.Error(), "two branches") {
		t.Errorf("Validate = %v, want two-branches error", err)
	}
}

func TestDomains(t *testing.T) {
	p := testProcess(t)
	doms := p.Domains()
	vals, ok := doms["c"]
	if !ok {
		t.Fatal("decision c missing from Domains")
	}
	if len(vals) != 2 || vals[0] != "T" || vals[1] != "F" {
		t.Errorf("domain of c = %v, want [T F]", vals)
	}
}

func TestNodeString(t *testing.T) {
	if got := ActivityNode("a").String(); got != "a" {
		t.Errorf("activity node string = %q", got)
	}
	if got := ServiceNode("Purchase", "2").String(); got != "Purchase.2" {
		t.Errorf("service node string = %q", got)
	}
	if ActivityNode("a").IsService() {
		t.Error("activity node reports IsService")
	}
	if !ServiceNode("S", "1").IsService() {
		t.Error("service node does not report IsService")
	}
}

func TestActivityKindString(t *testing.T) {
	for k, want := range map[ActivityKind]string{
		KindOpaque: "opaque", KindReceive: "receive", KindInvoke: "invoke",
		KindReply: "reply", KindDecision: "decision",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k, want)
		}
	}
	if !strings.Contains(ActivityKind(99).String(), "99") {
		t.Error("unknown kind string should include the value")
	}
}

func TestBranchDomainDefault(t *testing.T) {
	a := &Activity{ID: "x", Kind: KindDecision}
	if got := a.BranchDomain(); len(got) != 2 || got[0] != "T" {
		t.Errorf("default branch domain = %v", got)
	}
	b := &Activity{ID: "y", Kind: KindDecision, Branches: []string{"lo", "hi", "mid"}}
	if got := b.BranchDomain(); len(got) != 3 {
		t.Errorf("explicit branch domain = %v", got)
	}
}

func TestActivityAccessors(t *testing.T) {
	p := testProcess(t)
	if _, ok := p.Activity("a"); !ok {
		t.Error("Activity(a) not found")
	}
	if _, ok := p.Activity("zz"); ok {
		t.Error("Activity(zz) found")
	}
	if _, ok := p.Service("Svc"); !ok {
		t.Error("Service(Svc) not found")
	}
	if got := len(p.Activities()); got != 4 {
		t.Errorf("Activities len = %d", got)
	}
	if got := len(p.Decisions()); got != 1 {
		t.Errorf("Decisions len = %d", got)
	}
}
