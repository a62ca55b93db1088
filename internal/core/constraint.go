package core

import (
	"fmt"
	"sort"
	"strings"

	"dscweaver/internal/cond"
)

// State is a stage of the DSCL activity life cycle (§4.1): every
// activity passes through start → run → finish.
type State int

const (
	// Start (S) — the activity has been scheduled and may begin.
	Start State = iota
	// Run (R) — the activity is executing.
	Run
	// Finish (F) — the activity has completed (or was skipped by
	// dead-path elimination).
	Finish
)

func (s State) String() string {
	switch s {
	case Start:
		return "S"
	case Run:
		return "R"
	case Finish:
		return "F"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Point is an (node, state) pair — the granularity at which DSCL
// synchronizes (e.g. S(collectSurvey), F(closeOrder)).
type Point struct {
	Node  Node
	State State
}

// PointOf is shorthand for a point on an internal activity.
func PointOf(id ActivityID, s State) Point {
	return Point{Node: ActivityNode(id), State: s}
}

// String renders "S(recClient_po)" style.
func (p Point) String() string {
	return p.State.String() + "(" + p.Node.String() + ")"
}

// Relation is one of DSCL's three synchronization relations (§4.1).
type Relation int

const (
	// HappenBefore (→c) orders two points, optionally under a branch
	// condition.
	HappenBefore Relation = iota
	// HappenTogether (↔c) requires two points be reached together. It
	// is syntactic sugar: Desugar rewrites it with a coordinating
	// activity and HappenBefore edges ([21], §4.2).
	HappenTogether
	// Exclusive (O) forbids two run states from overlapping. It is
	// enforced dynamically by the scheduling engine and does not
	// participate in static optimization (§4.2).
	Exclusive
)

func (r Relation) String() string {
	switch r {
	case HappenBefore:
		return "→"
	case HappenTogether:
		return "↔"
	case Exclusive:
		return "⊘"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Constraint is one DSCL synchronization constraint.
type Constraint struct {
	Rel      Relation
	From, To Point
	// Cond guards the constraint; cond.True() for unconditional
	// relations. Control dependencies contribute a single literal;
	// merged or translated constraints may carry disjunctions.
	Cond cond.Expr
	// Origins records which dependency dimensions contributed the
	// constraint (multiple when Merge deduplicates, e.g. the
	// recPurchase_oi→replyClient_oi data+cooperation pair).
	Origins []Dimension
	// Labels carries the provenance labels of the contributing
	// dependencies.
	Labels []string
}

// String renders e.g. "F(if_au) →[if_au=T] S(invPurchase_po)".
func (c Constraint) String() string {
	arrow := c.Rel.String()
	if c.Rel == HappenBefore && !c.Cond.IsTrue() {
		arrow = "→[" + c.Cond.String() + "]"
	}
	return c.From.String() + " " + arrow + " " + c.To.String()
}

// PairKey identifies the (relation, endpoints) of a constraint,
// ignoring conditions; Merge uses it to fold duplicate pairs.
type PairKey struct {
	Rel      Relation
	From, To Point
}

// PairKey returns the constraint's (relation, endpoints) key.
func (c Constraint) PairKey() PairKey {
	return PairKey{Rel: c.Rel, From: c.From, To: c.To}
}

// HasOrigin reports whether dim contributed to the constraint.
func (c Constraint) HasOrigin(dim Dimension) bool {
	for _, d := range c.Origins {
		if d == dim {
			return true
		}
	}
	return false
}

// ConstraintSet is the paper's synchronization constraint set
// SC = {A, S, P} (Definition 1): the internal activities A and
// external service nodes S are implied by the process plus the
// constraints' nodes; P is the constraint list itself.
type ConstraintSet struct {
	Proc *Process

	constraints []Constraint
	byPair      map[PairKey]int
}

// NewConstraintSet returns an empty set bound to the process.
func NewConstraintSet(p *Process) *ConstraintSet {
	return &ConstraintSet{Proc: p, byPair: map[PairKey]int{}}
}

// newConstraintSetSize returns an empty set with room for n
// constraints, for builders that know their output size up front.
func newConstraintSetSize(p *Process, n int) *ConstraintSet {
	return &ConstraintSet{Proc: p, constraints: make([]Constraint, 0, n), byPair: make(map[PairKey]int, n)}
}

// Add inserts a constraint. A HappenBefore constraint over an existing
// (from,to) pair is folded in by OR-ing the conditions and merging
// provenance — the set semantics of the paper's P. Other relations are
// deduplicated exactly.
func (s *ConstraintSet) Add(c Constraint) {
	if c.Cond.IsFalse() && c.Rel == HappenBefore {
		return // vacuous
	}
	key := c.PairKey()
	if i, ok := s.byPair[key]; ok {
		prev := &s.constraints[i]
		prev.Cond = cond.Or(prev.Cond, c.Cond)
		prev.Origins = mergeDims(prev.Origins, c.Origins)
		prev.Labels = mergeStrings(prev.Labels, c.Labels)
		return
	}
	s.byPair[key] = len(s.constraints)
	s.constraints = append(s.constraints, c)
}

// Before is shorthand for adding an unconditional activity-level
// HappenBefore F(from) → S(to).
func (s *ConstraintSet) Before(from, to ActivityID, origin Dimension) {
	s.Add(Constraint{
		Rel:     HappenBefore,
		From:    PointOf(from, Finish),
		To:      PointOf(to, Start),
		Cond:    cond.True(),
		Origins: []Dimension{origin},
	})
}

// Constraints returns the constraints in insertion order (copy). Hot
// paths read in place with Len and At instead.
func (s *ConstraintSet) Constraints() []Constraint {
	return append([]Constraint(nil), s.constraints...)
}

// At returns the i-th constraint in insertion order, 0 <= i < Len().
func (s *ConstraintSet) At(i int) Constraint { return s.constraints[i] }

// Len returns the number of constraints.
func (s *ConstraintSet) Len() int { return len(s.constraints) }

// Nodes returns every node referenced by the constraints, sorted.
func (s *ConstraintSet) Nodes() []Node {
	seen := map[Node]bool{}
	var out []Node
	for _, c := range s.constraints {
		for _, n := range [2]Node{c.From.Node, c.To.Node} {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	SortNodes(out)
	return out
}

// ActivityNodes returns the internal activities mentioned (the A of
// SC = {A, S, P}), sorted.
func (s *ConstraintSet) ActivityNodes() []Node {
	var out []Node
	for _, n := range s.Nodes() {
		if !n.IsService() {
			out = append(out, n)
		}
	}
	return out
}

// ServiceNodes returns the external service nodes mentioned (the S of
// SC = {A, S, P}), sorted.
func (s *ConstraintSet) ServiceNodes() []Node {
	var out []Node
	for _, n := range s.Nodes() {
		if n.IsService() {
			out = append(out, n)
		}
	}
	return out
}

// HasServiceNodes reports whether any constraint touches an external
// node (i.e. the set has not yet been service-translated).
func (s *ConstraintSet) HasServiceNodes() bool {
	for _, c := range s.constraints {
		if c.From.Node.IsService() || c.To.Node.IsService() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy sharing the process reference.
func (s *ConstraintSet) Clone() *ConstraintSet {
	c := newConstraintSetSize(s.Proc, len(s.constraints))
	for i, con := range s.constraints {
		con.Origins = append([]Dimension(nil), con.Origins...)
		con.Labels = append([]string(nil), con.Labels...)
		c.byPair[con.PairKey()] = i
		c.constraints = append(c.constraints, con)
	}
	return c
}

// remove deletes the constraint at index i, keeping order.
func (s *ConstraintSet) remove(i int) {
	delete(s.byPair, s.constraints[i].PairKey())
	s.constraints = append(s.constraints[:i], s.constraints[i+1:]...)
	for k := i; k < len(s.constraints); k++ {
		s.byPair[s.constraints[k].PairKey()] = k
	}
}

// String renders the constraints sorted for stable output.
func (s *ConstraintSet) String() string {
	keys := make([]string, len(s.constraints))
	for i, c := range s.constraints {
		keys[i] = c.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// Validate checks the constraint set's structural health: referenced
// activities must be declared, the HappenBefore relation must be
// acyclic over the point graph (no "infinite synchronization
// sequence", §4.1), and guard derivation must succeed. It does not
// require desugaring — HappenTogether constraints are checked for
// internal endpoints only.
func (s *ConstraintSet) Validate() error {
	for _, c := range s.constraints {
		for _, pt := range []Point{c.From, c.To} {
			if pt.Node.IsService() {
				if _, ok := s.Proc.Service(pt.Node.Service); !ok {
					return fmt.Errorf("constraint %s references undeclared service %s", c, pt.Node.Service)
				}
				continue
			}
			if _, ok := s.Proc.Activity(pt.Node.Activity); !ok {
				return fmt.Errorf("constraint %s references undeclared activity %s", c, pt.Node.Activity)
			}
		}
	}
	// buildPointGraph performs the cycle and guard checks over the
	// HappenBefore relation (HappenTogether and Exclusive constraints
	// contribute nodes but no ordering edges).
	if _, err := buildPointGraph(s); err != nil {
		return err
	}
	return nil
}

// Desugar rewrites every HappenTogether constraint using a fresh
// coordinating activity and two HappenBefore edges, as licensed by
// [21] ("↔c is syntax sugar"): A ↔c B becomes A →c coord and
// B →c coord plus coord →c A' successor edges are not needed because
// the rendezvous is modeled by both points preceding the coordinator
// and the coordinator preceding both points' successors via the
// scheduler; statically, A ↔ B is replaced by coord → A and
// coord → B with F(coord) as the common release point.
// The coordinator is registered on the process as an opaque activity.
func (s *ConstraintSet) Desugar() error {
	n := 0
	for i := 0; i < len(s.constraints); i++ {
		c := s.constraints[i]
		if c.Rel != HappenTogether {
			continue
		}
		if c.From.Node.IsService() || c.To.Node.IsService() {
			return fmt.Errorf("cannot desugar HappenTogether on external node: %s", c)
		}
		coord := ActivityID(fmt.Sprintf("coord_%s_%s_%d", c.From.Node.Activity, c.To.Node.Activity, n))
		n++
		if err := s.Proc.AddActivity(&Activity{ID: coord, Kind: KindOpaque}); err != nil {
			return err
		}
		s.remove(i)
		i--
		// Both synchronized points wait for the coordinator's finish;
		// the coordinator starts only when both activities' preceding
		// states are reachable, which the surrounding constraint set
		// already encodes. Release edges:
		s.Add(Constraint{Rel: HappenBefore, From: PointOf(coord, Finish), To: c.From, Cond: c.Cond, Origins: c.Origins, Labels: c.Labels})
		s.Add(Constraint{Rel: HappenBefore, From: PointOf(coord, Finish), To: c.To, Cond: c.Cond, Origins: c.Origins, Labels: c.Labels})
	}
	return nil
}

func mergeDims(a, b []Dimension) []Dimension {
	out := append([]Dimension(nil), a...)
	for _, d := range b {
		found := false
		for _, e := range out {
			if e == d {
				found = true
				break
			}
		}
		if !found {
			out = append(out, d)
		}
	}
	return out
}

func mergeStrings(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, s := range b {
		if s == "" {
			continue
		}
		found := false
		for _, e := range out {
			if e == s {
				found = true
				break
			}
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}
