package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// adapterFixture builds a 4-chain catalog a0→a1→a2→a3.
func adapterFixture(t *testing.T) *Adapter {
	t.Helper()
	p := linProcess(4)
	deps := NewDependencySet()
	for i := 0; i+1 < 4; i++ {
		deps.Add(Dependency{
			From: ActivityNode(ActivityID(fmt.Sprintf("a%d", i))),
			To:   ActivityNode(ActivityID(fmt.Sprintf("a%d", i+1))),
			Dim:  Data, Label: "x",
		})
	}
	a, err := NewAdapter(p, deps)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdapterAddImplied(t *testing.T) {
	a := adapterFixture(t)
	before := a.Minimal().String()
	res, err := a.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a3"), Dim: Cooperation, Label: "redundant"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Implied {
		t.Errorf("shortcut over a chain not reported implied: %+v", res)
	}
	if a.Minimal().String() != before {
		t.Error("minimal set changed by an implied addition")
	}
	// The catalog still records the dependency.
	if a.deps.Len() != 4 {
		t.Errorf("catalog = %d deps, want 4", a.deps.Len())
	}
}

func TestAdapterAddNewConstraint(t *testing.T) {
	p := linProcess(4)
	deps := NewDependencySet()
	deps.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a1"), Dim: Data})
	deps.Add(Dependency{From: ActivityNode("a2"), To: ActivityNode("a3"), Dim: Data})
	a, err := NewAdapter(p, deps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Add(Dependency{From: ActivityNode("a1"), To: ActivityNode("a2"), Dim: Cooperation})
	if err != nil {
		t.Fatal(err)
	}
	if res.Implied || len(res.Added) != 1 {
		t.Errorf("result = %+v, want one added constraint", res)
	}
	if a.Minimal().Len() != 3 {
		t.Errorf("minimal = %d, want 3", a.Minimal().Len())
	}
}

func TestAdapterAddPrunesNowRedundant(t *testing.T) {
	// Catalog: a0→a2 direct. Adding a0→a1 and a1→a2 makes the direct
	// edge redundant; the second addition must prune it.
	p := linProcess(3)
	deps := NewDependencySet()
	deps.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a2"), Dim: Data})
	a, err := NewAdapter(p, deps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a1"), Dim: Data}); err != nil {
		t.Fatal(err)
	}
	res, err := a.Add(Dependency{From: ActivityNode("a1"), To: ActivityNode("a2"), Dim: Data})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) != 1 {
		t.Fatalf("pruned = %v, want the direct a0→a2", res.Pruned)
	}
	if res.Pruned[0].From.Node.Activity != "a0" || res.Pruned[0].To.Node.Activity != "a2" {
		t.Errorf("pruned = %v", res.Pruned[0])
	}
	if a.Minimal().Len() != 2 {
		t.Errorf("minimal = %d, want 2\n%s", a.Minimal().Len(), a.Minimal())
	}
}

func TestAdapterControlAddRecomputes(t *testing.T) {
	p := NewProcess("ctl")
	p.MustAddActivity(&Activity{ID: "dec", Kind: KindDecision})
	p.MustAddActivity(&Activity{ID: "x", Kind: KindOpaque})
	deps := NewDependencySet()
	deps.Add(Dependency{From: ActivityNode("dec"), To: ActivityNode("x"), Dim: Data})
	a, err := NewAdapter(p, deps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Add(Dependency{From: ActivityNode("dec"), To: ActivityNode("x"), Dim: Control, Branch: "T"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullRecompute {
		t.Error("control addition did not trigger recomputation")
	}
}

func TestAdapterRemoveRedundant(t *testing.T) {
	a := adapterFixture(t)
	if _, err := a.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a3"), Dim: Cooperation, Label: "redundant"}); err != nil {
		t.Fatal(err)
	}
	before := a.Minimal().String()
	res, err := a.Remove(Dependency{From: ActivityNode("a0"), To: ActivityNode("a3"), Dim: Cooperation, Label: "redundant"})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullRecompute {
		t.Error("removing a redundant dependency triggered recomputation")
	}
	if a.Minimal().String() != before {
		t.Error("minimal set changed by removing a redundant dependency")
	}
	if a.deps.Len() != 3 {
		t.Errorf("catalog = %d, want 3 after the removal", a.deps.Len())
	}
}

func TestAdapterRemoveLoadBearing(t *testing.T) {
	a := adapterFixture(t)
	res, err := a.Remove(Dependency{From: ActivityNode("a1"), To: ActivityNode("a2"), Dim: Data, Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullRecompute {
		t.Error("load-bearing removal did not recompute")
	}
	if a.Minimal().Len() != 2 {
		t.Errorf("minimal = %d, want 2 after cutting the chain", a.Minimal().Len())
	}
}

func TestAdapterRemoveResurrectsPruned(t *testing.T) {
	// Catalog: chain a0→a1→a2 plus direct a0→a2 (pruned). Removing
	// a0→a1 must bring the direct constraint back.
	p := linProcess(3)
	deps := NewDependencySet()
	deps.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a1"), Dim: Data})
	deps.Add(Dependency{From: ActivityNode("a1"), To: ActivityNode("a2"), Dim: Data})
	deps.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("a2"), Dim: Cooperation})
	a, err := NewAdapter(p, deps)
	if err != nil {
		t.Fatal(err)
	}
	if a.Minimal().Len() != 2 {
		t.Fatalf("initial minimal = %d, want 2", a.Minimal().Len())
	}
	if _, err := a.Remove(Dependency{From: ActivityNode("a1"), To: ActivityNode("a2"), Dim: Data}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range a.Minimal().Constraints() {
		if c.From.Node.Activity == "a0" && c.To.Node.Activity == "a2" {
			found = true
		}
	}
	if !found {
		t.Errorf("pruned cooperation constraint did not come back:\n%s", a.Minimal())
	}
}

func TestAdapterRemoveUnknown(t *testing.T) {
	a := adapterFixture(t)
	if _, err := a.Remove(Dependency{From: ActivityNode("a0"), To: ActivityNode("a3"), Dim: Data}); err == nil {
		t.Error("removing an unknown dependency succeeded")
	}
}

func TestAdapterAddInvalid(t *testing.T) {
	a := adapterFixture(t)
	if _, err := a.Add(Dependency{From: ActivityNode("a0"), To: ActivityNode("ghost"), Dim: Data}); err == nil {
		t.Error("invalid dependency accepted")
	}
}

// Property: a random sequence of adds keeps the adapter's minimal view
// equivalent to a from-scratch pipeline over the same catalog.
func TestQuickAdapterMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(4)
		p := linProcess(n)
		ids := make([]ActivityID, n)
		for i := range ids {
			ids[i] = ActivityID(fmt.Sprintf("a%d", i))
		}
		// Start with a spanning chain so the process is connected.
		deps := NewDependencySet()
		for i := 0; i+1 < n; i++ {
			deps.Add(Dependency{From: ActivityNode(ids[i]), To: ActivityNode(ids[i+1]), Dim: Data})
		}
		a, err := NewAdapter(p, deps)
		if err != nil {
			return false
		}
		for k := 0; k < 6; k++ {
			u := r.Intn(n - 1)
			v := u + 1 + r.Intn(n-u-1)
			dep := Dependency{From: ActivityNode(ids[u]), To: ActivityNode(ids[v]), Dim: Cooperation, Label: fmt.Sprint(k)}
			if _, err := a.Add(dep); err != nil {
				return false
			}
		}
		// From-scratch pipeline over the same catalog.
		batch, err := NewAdapter(p, a.deps)
		if err != nil {
			return false
		}
		eq, err := Equivalent(a.Minimal(), batch.Minimal())
		if err != nil || !eq {
			return false
		}
		// Incremental result is itself minimal.
		res, err := MinimizeOpt(context.Background(), a.Minimal(), MinimizeOptions{Guards: a.guards})
		if err != nil {
			return false
		}
		return len(res.Removed) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAdapterOnPurchasingCatalog(t *testing.T) {
	// Build the purchasing catalog incrementally through the adapter
	// (duplicating the fixture here to avoid an import cycle with
	// internal/purchasing); the final minimal view must reach
	// Figure 9's 17 constraints regardless of insertion order.
	// The catalog is small, so insert service deps last — the worst
	// case for the translator diff.
	p := NewProcess("Purchasing")
	p.MustAddService(&Service{Name: "Credit", Ports: []string{"1"}, Async: true})
	p.MustAddService(&Service{Name: "Purchase", Ports: []string{"1", "2"}, Async: true, SequentialPorts: true})
	p.MustAddActivity(&Activity{ID: "recClient_po", Kind: KindReceive, Writes: []string{"po"}})
	p.MustAddActivity(&Activity{ID: "invCredit_po", Kind: KindInvoke, Service: "Credit", Port: "1", Reads: []string{"po"}})
	p.MustAddActivity(&Activity{ID: "recCredit_au", Kind: KindReceive, Service: "Credit", Port: DummyPort, Writes: []string{"au"}})
	deps := NewDependencySet()
	deps.Add(Dependency{From: ActivityNode("recClient_po"), To: ActivityNode("invCredit_po"), Dim: Data, Label: "po"})
	a, err := NewAdapter(p, deps)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dependency{
		{From: ActivityNode("invCredit_po"), To: ServiceNode("Credit", "1"), Dim: ServiceDim},
		{From: ServiceNode("Credit", "1"), To: ServiceNode("Credit", DummyPort), Dim: ServiceDim},
		{From: ServiceNode("Credit", DummyPort), To: ActivityNode("recCredit_au"), Dim: ServiceDim},
	} {
		if _, err := a.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	// The three service rows translate to one internal constraint.
	want := []string{"invCredit_po", "recCredit_au"}
	found := false
	for _, c := range a.Minimal().Constraints() {
		if string(c.From.Node.Activity) == want[0] && string(c.To.Node.Activity) == want[1] {
			found = true
		}
	}
	if !found {
		t.Errorf("translated service constraint missing:\n%s", a.Minimal())
	}
	if a.Minimal().Len() != 2 {
		t.Errorf("minimal = %d, want 2", a.Minimal().Len())
	}
}
