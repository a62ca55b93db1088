// Package graph provides the directed-graph machinery shared by the
// dependency optimizer: topological ordering, cycle detection, bitset
// reachability and transitive closure/reduction over DAGs.
//
// Nodes are dense integer ids handed out by AddNode; callers keep their
// own mapping to domain objects (activity names, Petri-net places, …).
// The unconditional transitive reduction implemented here is the fast
// path of the paper's minimal-dependency-set algorithm (Definition 6):
// for a DAG without conditional constraints the minimal set is exactly
// the unique transitive reduction.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Digraph is a mutable directed graph over dense integer nodes.
type Digraph struct {
	n    int
	succ [][]int
	pred [][]int
	// edgeSet deduplicates edges: key = u*stride + v once n is known is
	// not stable while growing, so use a map keyed by the pair.
	edges map[[2]int]bool
}

// New returns an empty graph with capacity hint n.
func New(n int) *Digraph {
	return &Digraph{
		succ:  make([][]int, 0, n),
		pred:  make([][]int, 0, n),
		edges: make(map[[2]int]bool, 4*n),
	}
}

// AddNode appends a fresh node and returns its id.
func (g *Digraph) AddNode() int {
	id := g.n
	g.n++
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge inserts the edge u→v if absent. It reports whether the edge
// was newly added. Self-loops are rejected with a panic: the dependency
// sets this package serves are irreflexive by construction, so a
// self-loop is always a caller bug.
func (g *Digraph) AddEdge(u, v int) bool {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	key := [2]int{u, v}
	if g.edges[key] {
		return false
	}
	g.edges[key] = true
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	return true
}

// RemoveEdge deletes u→v if present and reports whether it existed.
func (g *Digraph) RemoveEdge(u, v int) bool {
	key := [2]int{u, v}
	if !g.edges[key] {
		return false
	}
	delete(g.edges, key)
	g.succ[u] = removeOne(g.succ[u], v)
	g.pred[v] = removeOne(g.pred[v], u)
	return true
}

func removeOne(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// HasEdge reports whether u→v is present.
func (g *Digraph) HasEdge(u, v int) bool { return g.edges[[2]int{u, v}] }

// Succ returns the successor list of u (not a copy; do not mutate).
func (g *Digraph) Succ(u int) []int { return g.succ[u] }

// Pred returns the predecessor list of u (not a copy; do not mutate).
func (g *Digraph) Pred(u int) []int { return g.pred[u] }

// Edges returns all edges in deterministic (u, then v) order.
func (g *Digraph) Edges() [][2]int {
	out := make([][2]int, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ErrCycle is wrapped by TopoSort when the graph is cyclic.
var ErrCycle = errors.New("graph: cycle detected")

// TopoSort returns a topological order of the nodes, or an error
// wrapping ErrCycle (with one witness cycle rendered) if the graph is
// cyclic. Ties are broken by node id so the order is deterministic.
func (g *Digraph) TopoSort() ([]int, error) {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.pred[v])
	}
	// Min-heap by id for determinism; sizes are modest, a sorted slice
	// scan is fine.
	var ready []int
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(ready) > 0 {
		min := 0
		for i := range ready {
			if ready[i] < ready[min] {
				min = i
			}
		}
		u := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		order = append(order, u)
		for _, v := range g.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != g.n {
		return nil, fmt.Errorf("%w: %v", ErrCycle, g.FindCycle())
	}
	return order, nil
}

// FindCycle returns one directed cycle as a node sequence (first node
// repeated at the end), or nil if the graph is acyclic.
func (g *Digraph) FindCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.n)
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.succ[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u→v: unwind u..v.
				cycle = []int{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				cycle = append(cycle, v)
				// Reverse to path order v…u v.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < g.n; u++ {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// Bitset is a fixed-size set of node ids.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set marks bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// UnionWith ors other into b.
func (b Bitset) UnionWith(other Bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Clone copies the bitset.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// Closure computes the transitive closure of a DAG as one bitset of
// reachable nodes per source (excluding the source itself unless it is
// on a cycle, which TopoSort has already ruled out). It returns an
// error if the graph is cyclic.
func (g *Digraph) Closure() ([]Bitset, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	reach := make([]Bitset, g.n)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		r := NewBitset(g.n)
		for _, v := range g.succ[u] {
			r.Set(v)
			r.UnionWith(reach[v])
		}
		reach[u] = r
	}
	return reach, nil
}

// TransitiveReduction returns the unique transitive reduction of the
// DAG as a new graph plus the list of removed (redundant) edges in
// deterministic order. An edge u→v is redundant iff v is reachable
// from some other successor of u.
func (g *Digraph) TransitiveReduction() (*Digraph, [][2]int, error) {
	reach, err := g.Closure()
	if err != nil {
		return nil, nil, err
	}
	red := New(g.n)
	for i := 0; i < g.n; i++ {
		red.AddNode()
	}
	var removed [][2]int
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		redundant := false
		for _, w := range g.succ[u] {
			if w != v && reach[w].Has(v) {
				redundant = true
				break
			}
		}
		if redundant {
			removed = append(removed, e)
		} else {
			red.AddEdge(u, v)
		}
	}
	return red, removed, nil
}

// Reachable reports whether dst is reachable from src by a nonempty
// path, using a plain DFS (no closure precomputation). Useful for
// one-off queries on mutable graphs.
func (g *Digraph) Reachable(src, dst int) bool {
	seen := NewBitset(g.n)
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if v == dst {
				return true
			}
			if !seen.Has(v) {
				seen.Set(v)
				stack = append(stack, v)
			}
		}
	}
	return false
}

// LongestPathLengths returns, for a DAG, the length (in edges) of the
// longest path ending at each node. This is the critical-path metric
// used by the scheduling benches: the makespan lower bound of a
// constraint set under unit-cost activities is 1+max(LongestPath).
func (g *Digraph) LongestPathLengths() ([]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	depth := make([]int, g.n)
	for _, u := range order {
		for _, v := range g.succ[u] {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
	}
	return depth, nil
}

// AntichainWidth returns the size of the largest set of pairwise
// incomparable nodes under reachability, computed greedily by layer
// (exact for layered DAGs produced by the workload generators, a lower
// bound in general). It is the peak-parallelism metric reported by the
// concurrency benches.
func (g *Digraph) AntichainWidth() (int, error) {
	depth, err := g.LongestPathLengths()
	if err != nil {
		return 0, err
	}
	counts := map[int]int{}
	best := 0
	for _, d := range depth {
		counts[d]++
		if counts[d] > best {
			best = counts[d]
		}
	}
	return best, nil
}
