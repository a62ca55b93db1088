package core

import (
	"fmt"
	"sort"
	"strings"

	"dscweaver/internal/cond"
)

// Removal explains why one constraint was redundant: the witness paths
// through the minimal set whose composed conditions cover the removed
// constraint in its guard context. A guard-subsumed edge has one
// conditional path; a branch-folded edge (the if_au → replyClient_oi
// case) needs one path per branch; a vacuous cross-branch edge has no
// path at all — it can never be exercised.
type Removal struct {
	Constraint Constraint
	// Paths lists the covering paths, each a sequence of surviving
	// constraints from the removed constraint's source to its target.
	Paths [][]Constraint
	// Vacuous is true when the constraint's endpoints cannot co-occur
	// (their guards are incompatible), so no path is needed.
	Vacuous bool
}

// String renders the explanation.
func (r Removal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "removed %s", r.Constraint)
	if r.Vacuous {
		b.WriteString("  (vacuous: endpoints never co-occur)")
		return b.String()
	}
	for _, path := range r.Paths {
		parts := make([]string, len(path))
		for i, c := range path {
			parts[i] = c.String()
		}
		fmt.Fprintf(&b, "\n  covered by: %s", strings.Join(parts, " ; "))
	}
	return b.String()
}

// ExplainRemovals justifies every removal of a minimization result:
// for each removed constraint it finds paths through the minimal set
// whose disjoined conditions imply the removed condition under the
// endpoints' guard context. guards is the context the minimization
// judged redundancy under — DeriveGuards of its input, or the guards
// it was given — because the minimal set may have shed the control
// edges they derive from. It returns one Removal per removed
// constraint, in removal order.
func ExplainRemovals(res *MinimizeResult, guards map[Node]cond.Expr) ([]Removal, error) {
	pg, err := buildPointGraph(res.Minimal)
	if err != nil {
		return nil, err
	}
	for n, g := range guards {
		pg.guards[n] = g
	}
	doms := res.Minimal.Proc.Domains()

	var out []Removal
	for _, removed := range res.Removed {
		rem := Removal{Constraint: removed}
		u := pg.pointID(removed.From)
		v := pg.pointID(removed.To)
		g := cond.And(pg.guardOf(removed.From.Node), pg.guardOf(removed.To.Node))
		target := cond.And(removed.Cond, g)
		if target.IsFalse() {
			rem.Vacuous = true
			out = append(out, rem)
			continue
		}
		if taut, err := cond.Equal(target, cond.False(), doms); err == nil && taut {
			rem.Vacuous = true
			out = append(out, rem)
			continue
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("explain: removed constraint %s has unknown endpoints", removed)
		}
		paths := pg.pathsBetween(u, v, 16)
		// Accumulate paths until their disjoined conditions cover the
		// removed constraint in guard context.
		acc := cond.False()
		for _, path := range paths {
			pathCond := cond.True()
			var rendered []Constraint
			for _, e := range path {
				pathCond = cond.And(pathCond, pg.conds[e])
				if ci, ok := pg.conIndex[e]; ok {
					rendered = append(rendered, res.Minimal.constraints[ci])
				}
			}
			// Skip paths that cannot fire alongside the target or add
			// no coverage beyond the paths already cited.
			if cond.And(pathCond, g).IsFalse() {
				continue
			}
			next := cond.Or(acc, pathCond)
			if gained, err := cond.Implies(cond.And(next, g), cond.And(acc, g), doms); err != nil {
				return nil, err
			} else if gained {
				continue // next ⊆ acc in guard context: nothing new
			}
			rem.Paths = append(rem.Paths, rendered)
			acc = next
			ok, err := cond.Implies(target, cond.And(acc, g), doms)
			if err != nil {
				return nil, err
			}
			if ok {
				break
			}
		}
		ok, err := cond.Implies(target, cond.And(acc, g), doms)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("explain: no covering paths found for %s (minimal set inconsistent?)", removed)
		}
		out = append(out, rem)
	}
	return out, nil
}

// pathsBetween enumerates up to limit simple paths u⇒v (DFS,
// deterministic order, shortest-ish first by exploring successors in
// ascending id order).
func (pg *pointGraph) pathsBetween(u, v int, limit int) [][][2]int {
	var out [][][2]int
	var path [][2]int
	visited := make([]bool, len(pg.points))
	var dfs func(x int)
	dfs = func(x int) {
		if len(out) >= limit {
			return
		}
		if x == v {
			cp := make([][2]int, len(path))
			copy(cp, path)
			out = append(out, cp)
			return
		}
		visited[x] = true
		succs := append([]int(nil), pg.g.Succ(x)...)
		sort.Ints(succs)
		for _, y := range succs {
			if visited[y] {
				continue
			}
			path = append(path, [2]int{x, y})
			dfs(y)
			path = path[:len(path)-1]
			if len(out) >= limit {
				break
			}
		}
		visited[x] = false
	}
	dfs(u)
	return out
}
