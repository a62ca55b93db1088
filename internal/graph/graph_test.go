package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// chain builds 0→1→…→n-1.
func chain(n int) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// randomDAG builds a DAG where every edge goes from a lower to a
// higher id, with the given edge probability.
func randomDAG(r *rand.Rand, n int, p float64) *Digraph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestAddEdgeDedup(t *testing.T) {
	g := chain(3)
	if g.AddEdge(0, 1) {
		t.Error("duplicate edge reported as new")
	}
	if n := len(g.Edges()); n != 2 {
		t.Errorf("%d edges, want 2", n)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := chain(3)
	if !g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge(0,1) = false")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("double remove reported true")
	}
	if g.HasEdge(0, 1) {
		t.Error("edge still present after removal")
	}
	if len(g.Succ(0)) != 0 || len(g.Pred(1)) != 0 {
		t.Error("adjacency lists not updated")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self-loop")
		}
	}()
	g := chain(2)
	g.AddEdge(1, 1)
}

func TestTopoSortChain(t *testing.T) {
	g := chain(5)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want identity", order)
		}
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	g.AddEdge(3, 1)
	g.AddEdge(2, 1)
	a, _ := g.TopoSort()
	b, _ := g.TopoSort()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic topo order: %v vs %v", a, b)
		}
	}
	// 0 has no deps and lowest id: must come first.
	if a[0] != 0 {
		t.Errorf("order = %v, want node 0 first", a)
	}
}

func TestCycleDetection(t *testing.T) {
	g := chain(4)
	g.AddEdge(3, 1)
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Fatalf("TopoSort err = %v, want ErrCycle", err)
	}
	cyc := g.FindCycle()
	if len(cyc) < 3 {
		t.Fatalf("FindCycle = %v", cyc)
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Errorf("cycle not closed: %v", cyc)
	}
	// Each consecutive pair must be an edge.
	for i := 0; i+1 < len(cyc); i++ {
		if !g.HasEdge(cyc[i], cyc[i+1]) {
			t.Errorf("cycle step %d→%d is not an edge", cyc[i], cyc[i+1])
		}
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	if c := chain(10).FindCycle(); c != nil {
		t.Errorf("FindCycle on DAG = %v", c)
	}
}

func TestClosureChain(t *testing.T) {
	g := chain(4)
	reach, err := g.Closure()
	if err != nil {
		t.Fatal(err)
	}
	if !reach[0].Has(3) || !reach[0].Has(1) {
		t.Error("closure of head misses tail")
	}
	if reach[3].Count() != 0 {
		t.Error("sink has nonempty closure")
	}
	if reach[0].Count() != 3 {
		t.Errorf("closure(0) size = %d, want 3", reach[0].Count())
	}
}

func TestClosureDiamond(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	reach, err := g.Closure()
	if err != nil {
		t.Fatal(err)
	}
	if reach[0].Count() != 3 {
		t.Errorf("closure(0) = %d nodes, want 3", reach[0].Count())
	}
}

func TestTransitiveReductionDiamondPlusShortcut(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3) // redundant
	g.AddEdge(0, 2) // redundant
	red, removed, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(red.Edges()); n != 3 {
		t.Errorf("reduced edges = %d, want 3", n)
	}
	if len(removed) != 2 {
		t.Errorf("removed = %v, want 2 edges", removed)
	}
}

func TestReachable(t *testing.T) {
	g := chain(5)
	if !g.Reachable(0, 4) {
		t.Error("0 should reach 4")
	}
	if g.Reachable(4, 0) {
		t.Error("4 should not reach 0")
	}
	if g.Reachable(2, 2) {
		t.Error("node should not reach itself on a chain (nonempty path)")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	for v := 0; v < 5; v++ {
		if source := len(g.Pred(v)) == 0; source != (v == 0 || v == 1) {
			t.Errorf("node %d: no predecessors = %v, want sources 0 and 1", v, source)
		}
		if sink := len(g.Succ(v)) == 0; sink != (v == 3 || v == 4) {
			t.Errorf("node %d: no successors = %v, want sinks 3 and 4", v, sink)
		}
	}
}

func TestLongestPathLengths(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(2, 4)
	depth, err := g.LongestPathLengths()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 1, 3}
	for i := range want {
		if depth[i] != want[i] {
			t.Errorf("depth[%d] = %d, want %d", i, depth[i], want[i])
		}
	}
}

func TestAntichainWidth(t *testing.T) {
	// Two parallel chains of length 3 → width 2.
	g := New(6)
	for i := 0; i < 6; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	w, err := g.AntichainWidth()
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("width = %d, want 2", w)
	}
}

func TestSCCsOnDAGAllTrivial(t *testing.T) {
	g := chain(5)
	comps := g.SCCs()
	if len(comps) != 5 {
		t.Fatalf("components = %d, want 5", len(comps))
	}
	if nt := g.NontrivialSCCs(); len(nt) != 0 {
		t.Errorf("nontrivial components on a DAG: %v", nt)
	}
}

func TestSCCsFindCycles(t *testing.T) {
	// Two disjoint cycles plus a bridge node.
	g := New(7)
	for i := 0; i < 7; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0) // cycle {0,1,2}
	g.AddEdge(2, 3) // bridge
	g.AddEdge(4, 5)
	g.AddEdge(5, 4) // cycle {4,5}
	g.AddEdge(3, 6)
	nt := g.NontrivialSCCs()
	if len(nt) != 2 {
		t.Fatalf("nontrivial = %v, want 2 components", nt)
	}
	found3, found2 := false, false
	for _, c := range nt {
		switch len(c) {
		case 3:
			if c[0] == 0 && c[1] == 1 && c[2] == 2 {
				found3 = true
			}
		case 2:
			if c[0] == 4 && c[1] == 5 {
				found2 = true
			}
		}
	}
	if !found3 || !found2 {
		t.Errorf("components = %v", nt)
	}
}

func TestQuickSCCsAgreeWithFindCycle(t *testing.T) {
	// A graph has a nontrivial SCC iff FindCycle finds a cycle.
	cfg := &quick.Config{MaxCount: 80}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode()
		}
		for e := 0; e < n*2; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		hasCycle := g.FindCycle() != nil
		hasSCC := len(g.NontrivialSCCs()) > 0
		return hasCycle == hasSCC
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	if !b.Has(64) || b.Has(63) {
		t.Error("Has wrong")
	}
	c := b.Clone()
	c.Set(5)
	if b.Has(5) {
		t.Error("Clone aliases storage")
	}
	other := NewBitset(130)
	other.Set(70)
	b.UnionWith(other)
	if !b.Has(70) {
		t.Error("UnionWith missed bit")
	}
}

// Property: transitive reduction preserves the closure and is minimal
// (removing any kept edge changes reachability).
func TestQuickReductionCorrectAndMinimal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(14)
		g := randomDAG(r, n, 0.35)
		origReach, err := g.Closure()
		if err != nil {
			return false
		}
		red, removed, err := g.TransitiveReduction()
		if err != nil {
			return false
		}
		if len(red.Edges())+len(removed) != len(g.Edges()) {
			return false
		}
		newReach, err := red.Closure()
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			for i := range origReach[v] {
				if origReach[v][i] != newReach[v][i] {
					return false
				}
			}
		}
		// Minimality: dropping any kept edge must lose reachability.
		for _, e := range red.Edges() {
			red.RemoveEdge(e[0], e[1])
			if red.Reachable(e[0], e[1]) {
				return false
			}
			red.AddEdge(e[0], e[1])
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: topo order respects every edge.
func TestQuickTopoRespectsEdges(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(20), 0.3)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, g.n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkClosure256(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomDAG(r, 256, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Closure(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransitiveReduction256(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomDAG(r, 256, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.TransitiveReduction(); err != nil {
			b.Fatal(err)
		}
	}
}
