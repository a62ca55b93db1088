package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dscweaver/internal/cond"
	"dscweaver/internal/graph"
)

// pointGraph is the working representation of a constraint set for
// closure and minimization: one vertex per (node, state) point, the
// implicit life-cycle edges S→R→F of every internal activity (S→F for
// external nodes, which have no run phase visible to the process), and
// one edge per HappenBefore constraint carrying its condition.
//
// A pointGraph, with its scratch buffers and caches, is confined to the
// one goroutine that built it: nothing in it is locked.
type pointGraph struct {
	sc     *ConstraintSet
	doms   cond.Domains
	points []Point
	index  map[Point]int
	g      *graph.Digraph
	conds  map[[2]int]cond.Expr
	// conIndex maps a constraint edge back to its position in
	// sc.constraints; life-cycle edges are absent.
	conIndex map[[2]int]int
	guards   map[Node]cond.Expr
	topo     []int
	// pos is each point's index in topo.
	pos []int
	// strict disables guard-context equivalence in checkFrontier (the
	// MinimizeOptions.StrictAnnotations ablation).
	strict bool
	// pairAnn, pairMask and pairStack are pairWithout's reused scratch:
	// the window sweep's annotations, the anc(v) mask by topo position,
	// and the DFS stack. Only one candidate check runs at a time.
	pairAnn   []cond.Expr
	pairMask  graph.Bitset
	pairStack []int
	// cache and cacheTo memoize baseline single-source forward and
	// single-target backward closures across the minimizer's candidate
	// loop; memo caches semantic-equivalence verdicts.
	cache   *closureCache
	cacheTo *closureCache
	memo    *equalMemo
}

// buildPointGraph constructs the point graph. It returns an error if
// the HappenBefore relation is cyclic (a "conflict dependency" /
// infinite synchronization sequence, which §4.1 requires be detected
// at design time) or if guard derivation hits a control cycle.
func buildPointGraph(sc *ConstraintSet) (*pointGraph, error) {
	// Size the maps for the common case: three points and two
	// life-cycle edges per activity, one edge per constraint.
	nActs, nCons := len(sc.Proc.Activities()), sc.Len()
	pg := &pointGraph{
		sc:       sc,
		doms:     sc.Proc.Domains(),
		index:    make(map[Point]int, 3*nActs),
		conds:    make(map[[2]int]cond.Expr, 2*nActs+nCons),
		conIndex: make(map[[2]int]int, nCons),
		guards:   map[Node]cond.Expr{},
		cache:    newClosureCache(),
		cacheTo:  newClosureCache(),
		memo:     newEqualMemo(),
	}
	pg.g = graph.New(0)

	add := func(p Point) int {
		if i, ok := pg.index[p]; ok {
			return i
		}
		i := pg.g.AddNode()
		pg.index[p] = i
		pg.points = append(pg.points, p)
		return i
	}
	seen := map[Node]bool{}
	lifecycle := func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.IsService() {
			s := add(Point{Node: n, State: Start})
			f := add(Point{Node: n, State: Finish})
			if pg.g.AddEdge(s, f) {
				pg.conds[[2]int{s, f}] = cond.True()
			}
			return
		}
		s := add(Point{Node: n, State: Start})
		r := add(Point{Node: n, State: Run})
		f := add(Point{Node: n, State: Finish})
		if pg.g.AddEdge(s, r) {
			pg.conds[[2]int{s, r}] = cond.True()
		}
		if pg.g.AddEdge(r, f) {
			pg.conds[[2]int{r, f}] = cond.True()
		}
	}

	// Every process activity participates (Definition 1's A), plus
	// any external nodes the constraints mention. sc.Nodes() re-lists
	// the activities the first loop already added; the `seen` guard in
	// lifecycle makes point construction a single pass per node.
	for _, a := range sc.Proc.Activities() {
		lifecycle(ActivityNode(a.ID))
	}
	for _, n := range sc.Nodes() {
		lifecycle(n)
	}

	for i, c := range sc.constraints {
		if c.Rel != HappenBefore {
			continue
		}
		u, v := add(c.From), add(c.To)
		if u == v {
			return nil, fmt.Errorf("closure: constraint %s relates a point to itself", c)
		}
		if !pg.g.AddEdge(u, v) {
			return nil, fmt.Errorf("closure: duplicate constraint edge %s", c)
		}
		pg.conds[[2]int{u, v}] = c.Cond
		pg.conIndex[[2]int{u, v}] = i
	}

	order, err := pg.g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("closure: synchronization constraints are cyclic (conflict dependency): %w", err)
	}
	pg.topo = order
	pg.pos = make([]int, len(order))
	for i, p := range order {
		pg.pos[p] = i
	}
	pg.pairMask = graph.NewBitset(len(order))

	if err := pg.deriveGuards(); err != nil {
		return nil, err
	}
	return pg, nil
}

// deriveGuards computes, for every node, the condition under which it
// executes, from the control-origin constraints: an activity with
// incoming control edges runs when any of them is enabled
// (cond ∧ guard(decision)); an activity with none is unguarded.
// External nodes inherit True — their execution is the remote
// service's business.
//
// Guards are a property of the process's control structure, not of
// whichever constraints happen to survive optimization: DeriveGuards
// on a pre-minimization set is the authoritative source, and covers
// derives guards from the union of both sets it compares so that a
// minimized set (which may have shed redundant control edges) is
// judged in the same execution context as its original.
func (pg *pointGraph) deriveGuards() error {
	return pg.deriveGuardsFrom(pg.sc.constraints)
}

func (pg *pointGraph) deriveGuardsFrom(constraints []Constraint) error {
	type ctlEdge struct {
		from Node
		cond cond.Expr
	}
	incoming := map[Node][]ctlEdge{}
	for _, c := range constraints {
		if c.Rel != HappenBefore || !c.HasOrigin(Control) {
			continue
		}
		incoming[c.To.Node] = append(incoming[c.To.Node], ctlEdge{from: c.From.Node, cond: c.Cond})
	}

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[Node]int{}
	var visit func(n Node) (cond.Expr, error)
	visit = func(n Node) (cond.Expr, error) {
		if g, ok := pg.guards[n]; ok && state[n] == done {
			return g, nil
		}
		if state[n] == visiting {
			return cond.Expr{}, fmt.Errorf("closure: cyclic control dependencies at %s", n)
		}
		state[n] = visiting
		edges := incoming[n]
		var g cond.Expr
		if len(edges) == 0 || n.IsService() {
			g = cond.True()
		} else {
			g = cond.False()
			for _, e := range edges {
				pg_, err := visit(e.from)
				if err != nil {
					return cond.Expr{}, err
				}
				g = cond.Or(g, cond.And(e.cond, pg_))
			}
			g = cond.Simplify(g, pg.doms)
		}
		pg.guards[n] = g
		state[n] = done
		return g, nil
	}
	for _, n := range pg.allNodes() {
		if _, err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

func (pg *pointGraph) allNodes() []Node {
	seen := map[string]bool{}
	var out []Node
	for _, p := range pg.points {
		if k := p.Node.String(); !seen[k] {
			seen[k] = true
			out = append(out, p.Node)
		}
	}
	SortNodes(out)
	return out
}

// guardOf returns the execution guard of a node (True when unknown).
func (pg *pointGraph) guardOf(n Node) cond.Expr {
	if g, ok := pg.guards[n]; ok {
		return g
	}
	return cond.True()
}

// annotatedFrom computes the single-source condition-annotated closure
// (Definition 3): for every point q, the disjunction over all paths
// src⇒q of the conjunction of edge conditions along the path.
// ann[src] = True; unreachable points carry False. The skip parameter,
// when non-nil, excludes one edge — used by the minimizer to evaluate
// candidate removals without mutating the graph.
func (pg *pointGraph) annotatedFrom(src int, skip *[2]int) []cond.Expr {
	return pg.annotatedFromInto(nil, src, skip, nil, nil)
}

// sweepCheckInterval is how many frontier expansions a closure sweep
// processes between polls of its cancel flag. Each expansion can cost
// several Simplify calls on wide condition DNFs, so checking every
// node would be noise while checking only at sweep boundaries leaves
// a single pathological sweep uncancellable (the ROADMAP gap this
// closes). 64 keeps the poll overhead unmeasurable and the abort
// latency at a few dozen Simplify calls.
const sweepCheckInterval = 64

// annotatedFromInto is annotatedFrom computing into buf when it has
// the right capacity, so the minimizer's per-candidate skip sweeps can
// reuse one scratch slice per candidate instead of allocating one per
// (candidate, source). The returned slice aliases buf when reused.
//
// A non-nil cancel is polled every sweepCheckInterval frontier
// expansions; once it fires the sweep returns its partial annotations
// immediately. Callers that pass cancel MUST NOT use the result as a
// closure (or cache it) without re-checking the flag — the minimizer's
// equivalence checks discard the scan on abort.
//
// A non-nil within bitset restricts the sweep to a cone: only nodes in
// the mask are expanded and only mask nodes receive annotations. The
// caller must guarantee the mask is predecessor-closed over the nodes
// it reads (every predecessor of a mask node that src can reach is
// itself in the mask — e.g. the union of ancestors of a target set);
// then the annotations at mask nodes are structurally identical to an
// unrestricted sweep's, because every contributing edge relaxation runs
// between mask nodes in the same topo order with the same Simplify
// sequence. The minimizer uses this to skip the subgraph that cannot
// influence a candidate's verdict.
func (pg *pointGraph) annotatedFromInto(buf []cond.Expr, src int, skip *[2]int, cancel *atomic.Bool, within graph.Bitset) []cond.Expr {
	var ann []cond.Expr
	if cap(buf) >= len(pg.points) {
		ann = buf[:len(pg.points)]
	} else {
		ann = make([]cond.Expr, len(pg.points))
	}
	for i := range ann {
		ann[i] = cond.False()
	}
	ann[src] = cond.True()
	expanded := 0
	for _, u := range pg.topo {
		if within != nil && !within.Has(u) {
			continue
		}
		if ann[u].IsFalse() {
			continue
		}
		expanded++
		if cancel != nil && expanded%sweepCheckInterval == 0 && cancel.Load() {
			return ann // partial — caller re-checks cancel before use
		}
		for _, v := range pg.g.Succ(u) {
			if within != nil && !within.Has(v) {
				continue
			}
			e := [2]int{u, v}
			if skip != nil && e == *skip {
				continue
			}
			step := cond.And(ann[u], pg.conds[e])
			if step.IsFalse() {
				continue
			}
			ann[v] = cond.Simplify(cond.Or(ann[v], step), pg.doms)
		}
	}
	return ann
}

// annotatedToInto is the backward counterpart of annotatedFromInto:
// for every point q it computes the disjunction over all paths q⇒dst
// of the conjunction of edge conditions along the path, by sweeping
// the reverse graph in reverse topological order. ann[dst] = True;
// points that do not reach dst carry False. For any pair (s, t),
// annotatedTo(t)[s] and annotatedFrom(s)[t] denote the same path
// disjunction (the intermediate Simplify steps can canonicalize the
// two differently, but the expressions are semantically equal) — the
// minimizer exploits this to sweep along whichever side of a candidate
// edge has the smaller frontier. Cancellation and the within cone mask
// mirror annotatedFromInto: a fired cancel yields a partial result the
// caller must discard, and a non-nil mask must be successor-closed over
// the nodes read (e.g. the union of descendants of a source set).
func (pg *pointGraph) annotatedToInto(buf []cond.Expr, dst int, skip *[2]int, cancel *atomic.Bool, within graph.Bitset) []cond.Expr {
	var ann []cond.Expr
	if cap(buf) >= len(pg.points) {
		ann = buf[:len(pg.points)]
	} else {
		ann = make([]cond.Expr, len(pg.points))
	}
	for i := range ann {
		ann[i] = cond.False()
	}
	ann[dst] = cond.True()
	expanded := 0
	for i := len(pg.topo) - 1; i >= 0; i-- {
		v := pg.topo[i]
		if within != nil && !within.Has(v) {
			continue
		}
		if ann[v].IsFalse() {
			continue
		}
		expanded++
		if cancel != nil && expanded%sweepCheckInterval == 0 && cancel.Load() {
			return ann // partial — caller re-checks cancel before use
		}
		for _, u := range pg.g.Pred(v) {
			if within != nil && !within.Has(u) {
				continue
			}
			e := [2]int{u, v}
			if skip != nil && e == *skip {
				continue
			}
			step := cond.And(pg.conds[e], ann[v])
			if step.IsFalse() {
				continue
			}
			ann[u] = cond.Simplify(cond.Or(ann[u], step), pg.doms)
		}
	}
	return ann
}

// pointID returns the graph id of a point, or -1.
func (pg *pointGraph) pointID(p Point) int {
	if i, ok := pg.index[p]; ok {
		return i
	}
	return -1
}

// DeriveGuards returns the execution guard of every node of the
// constraint set: the condition over branch decisions under which the
// node executes, per the control-origin constraints. Downstream
// consumers (the scheduling engine's dead-path elimination, the BPEL
// generator's transition conditions) must derive guards from the
// pre-minimization set, since minimization may shed redundant control
// edges without changing the process's control structure.
func DeriveGuards(sc *ConstraintSet) (map[Node]cond.Expr, error) {
	pg, err := buildPointGraph(sc)
	if err != nil {
		return nil, err
	}
	out := make(map[Node]cond.Expr, len(pg.guards))
	for n, g := range pg.guards {
		out[n] = g
	}
	return out, nil
}

// AnnotatedMember is one element of a transitive closure a⁺: a node
// together with the condition annotation under which it is reached
// (Definition 3's a₃(T₂)-style entries).
type AnnotatedMember struct {
	Node Node
	Cond cond.Expr
}

// TransitiveClosure returns the condition-annotated transitive closure
// of an activity under the constraint set — Definition 3. Members are
// reported at activity granularity: b ∈ a⁺ when any point of b is
// reachable from S(a), with the annotation of its earliest reachable
// state. The result is sorted by node name.
func TransitiveClosure(sc *ConstraintSet, a ActivityID) ([]AnnotatedMember, error) {
	pg, err := buildPointGraph(sc)
	if err != nil {
		return nil, err
	}
	src := pg.pointID(PointOf(a, Start))
	if src < 0 {
		return nil, fmt.Errorf("closure: unknown activity %s", a)
	}
	ann := pg.annotatedFrom(src, nil)
	best := map[Node]cond.Expr{}
	for i, p := range pg.points {
		if p.Node == ActivityNode(a) {
			continue
		}
		if ann[i].IsFalse() {
			continue
		}
		if prev, ok := best[p.Node]; ok {
			best[p.Node] = cond.Simplify(cond.Or(prev, ann[i]), pg.doms)
		} else {
			best[p.Node] = ann[i]
		}
	}
	var out []AnnotatedMember
	for n, c := range best {
		out = append(out, AnnotatedMember{Node: n, Cond: c})
	}
	slices.SortFunc(out, func(a, b AnnotatedMember) int { return compareNodes(a.Node, b.Node) })
	return out, nil
}

// covers reports whether constraint set p covers q (Definition 4):
// for every pair of points (a, b), reachability under q implies
// reachability under p with at least as weak a condition, compared in
// the guard context of the endpoints. Guards are derived from the union
// of both sets' control-origin constraints (see deriveGuards on why the
// union). Both sets must be over the same process.
func covers(p, q *ConstraintSet) (bool, error) {
	if p.Proc != q.Proc {
		return false, fmt.Errorf("covers: constraint sets over different processes")
	}
	pgP, err := buildPointGraph(p)
	if err != nil {
		return false, err
	}
	pgQ, err := buildPointGraph(q)
	if err != nil {
		return false, err
	}
	union := append(append([]Constraint(nil), p.constraints...), q.constraints...)
	if err := pgP.deriveGuardsFrom(union); err != nil {
		return false, err
	}
	if err := pgQ.deriveGuardsFrom(union); err != nil {
		return false, err
	}
	doms := p.Proc.Domains()
	for _, a := range q.Proc.Activities() {
		srcQ := pgQ.pointID(PointOf(a.ID, Start))
		srcP := pgP.pointID(PointOf(a.ID, Start))
		if srcQ < 0 || srcP < 0 {
			continue
		}
		annQ := pgQ.annotatedFrom(srcQ, nil)
		annP := pgP.annotatedFrom(srcP, nil)
		for j, pt := range pgQ.points {
			if annQ[j].IsFalse() {
				continue
			}
			i := pgP.pointID(pt)
			var inP cond.Expr
			if i >= 0 {
				inP = annP[i]
			} else {
				inP = cond.False()
			}
			g := cond.And(pgQ.guardOf(ActivityNode(a.ID)), pgQ.guardOf(pt.Node))
			ok, err := cond.Implies(cond.And(annQ[j], g), cond.And(inP, g), doms)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

// Equivalent reports transitive equivalence of two constraint sets
// (Definition 5): each covers the other.
func Equivalent(p, q *ConstraintSet) (bool, error) {
	ok, err := covers(p, q)
	if err != nil || !ok {
		return ok, err
	}
	return covers(q, p)
}
