package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"dscweaver/internal/cond"
)

// Adapter maintains a dependency catalog together with its minimal
// synchronization constraint view under incremental change — the
// paper's §1 motivation: with sequencing constructs "there is no easy
// way to add or delete a constraint in a process without
// over-specifying necessary constraints or invalidating existing
// ones", whereas with explicit dependencies adaptation is a local
// operation on the constraint set.
//
// Add inserts one dependency: if the merged/translated constraint is
// already implied by the current minimal set it is reported as implied
// and nothing changes; otherwise the constraint is added and only the
// constraints it could have made redundant are re-examined. Remove
// deletes one dependency: if its constraint was redundant the minimal
// set is untouched; only a load-bearing deletion triggers a full
// re-minimization (previously removed constraints may need to come
// back).
type Adapter struct {
	proc    *Process
	deps    *DependencySet
	full    *ConstraintSet // merged + translated catalog
	minimal *ConstraintSet
	guards  map[Node]cond.Expr
}

// ChangeResult reports what one adaptation did.
type ChangeResult struct {
	// Implied is set by Add when the new dependency imposed no new
	// ordering (it was already covered — the "over-specifying
	// necessary constraints" case detected automatically).
	Implied bool
	// Added and Pruned list the minimal-set constraints inserted and
	// removed by this change.
	Added  []Constraint
	Pruned []Constraint
	// FullRecompute is true when the change could not be handled
	// locally (control-dimension changes alter guards; load-bearing
	// deletions can resurrect previously pruned constraints).
	FullRecompute bool
	// EquivalenceChecks counts redundancy tests performed.
	EquivalenceChecks int
}

// NewAdapter builds the initial minimal view of the catalog.
func NewAdapter(proc *Process, deps *DependencySet) (*Adapter, error) {
	a := &Adapter{proc: proc, deps: NewDependencySet()}
	a.deps.AddAll(deps)
	if err := a.recompute(); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Adapter) recompute() error {
	merged, err := Merge(a.proc, a.deps)
	if err != nil {
		return err
	}
	full, err := TranslateServices(merged)
	if err != nil {
		return err
	}
	res, err := MinimizeOpt(context.Background(), full, MinimizeOptions{})
	if err != nil {
		return err
	}
	a.full = full
	a.minimal = res.Minimal
	a.guards = res.Guards
	return nil
}

// Minimal returns the current minimal constraint set (shared; do not
// mutate).
func (a *Adapter) Minimal() *ConstraintSet { return a.minimal }

// Add inserts a dependency into the catalog and updates the minimal
// view incrementally where possible.
func (a *Adapter) Add(dep Dependency) (*ChangeResult, error) {
	probe := NewDependencySet()
	probe.AddAll(a.deps)
	if !probe.Add(dep) {
		return &ChangeResult{Implied: true}, nil // exact duplicate
	}
	if err := probe.Validate(a.proc); err != nil {
		return nil, err
	}

	// Control-dimension changes alter guards, which can flip
	// redundancy judgments anywhere: recompute.
	if dep.Dim == Control {
		a.deps = probe
		if err := a.recompute(); err != nil {
			return nil, err
		}
		return &ChangeResult{FullRecompute: true}, nil
	}

	// Rebuild the merged+translated full set and diff it pair-wise
	// against the previous one.
	merged, err := Merge(a.proc, probe)
	if err != nil {
		return nil, err
	}
	fullNew, err := TranslateServices(merged)
	if err != nil {
		return nil, err
	}
	added, stable := diffConstraints(a.full, fullNew)
	if !stable {
		// A pair disappeared or changed condition — translation
		// interacted non-monotonically; fall back.
		a.deps = probe
		if err := a.recompute(); err != nil {
			return nil, err
		}
		return &ChangeResult{FullRecompute: true}, nil
	}
	if len(added) == 0 {
		a.deps = probe
		a.full = fullNew
		return &ChangeResult{Implied: true}, nil
	}

	// Candidate view: current minimal plus the new constraints.
	candidate := a.minimal.Clone()
	for _, c := range added {
		candidate.Add(c)
	}
	pg, err := buildPointGraph(candidate)
	if err != nil {
		return nil, err
	}
	for n, g := range a.guards {
		pg.guards[n] = g
	}

	res := &ChangeResult{}
	newEdges := map[PairKey]bool{}
	for _, c := range added {
		newEdges[c.PairKey()] = true
	}
	impliedAll := true
	var noCancel atomic.Bool // Adapter checks run to completion
	// Test the new edges first (a new edge may be implied, possibly by
	// a sibling new edge), then the old edges whose redundancy the
	// insertion could have changed.
	for _, c := range candidate.constraints {
		if c.Rel != HappenBefore {
			continue
		}
		u, v := pg.pointID(c.From), pg.pointID(c.To)
		if u < 0 || v < 0 || !pg.g.HasEdge(u, v) {
			continue
		}
		isNew := newEdges[c.PairKey()]
		if !isNew && !a.affectedBy(pg, u, v, added) {
			continue
		}
		res.EquivalenceChecks++
		removable, _, err := pg.checkFrontier(context.Background(), u, v, &noCancel)
		if err != nil {
			return nil, err
		}
		if removable {
			pg.removeConstraintEdge(u, v)
			if !isNew {
				res.Pruned = append(res.Pruned, c)
			}
		} else if isNew {
			impliedAll = false
			res.Added = append(res.Added, c)
		}
	}
	res.Implied = impliedAll

	rebuilt := NewConstraintSet(a.proc)
	for _, c := range candidate.constraints {
		if c.Rel != HappenBefore {
			rebuilt.Add(c)
			continue
		}
		u, v := pg.pointID(c.From), pg.pointID(c.To)
		if pg.g.HasEdge(u, v) {
			rebuilt.Add(c)
		}
	}
	a.deps = probe
	a.full = fullNew
	a.minimal = rebuilt
	return res, nil
}

// affectedBy reports whether edge u→v could have become redundant due
// to the inserted constraints: some new edge lies on a potential
// alternative path, i.e. u reaches its source and its target reaches v.
func (a *Adapter) affectedBy(pg *pointGraph, u, v int, added []Constraint) bool {
	for _, c := range added {
		nu, nv := pg.pointID(c.From), pg.pointID(c.To)
		if nu < 0 || nv < 0 {
			continue
		}
		if (u == nu || pg.g.Reachable(u, nu)) && (nv == v || pg.g.Reachable(nv, v)) {
			return true
		}
	}
	return false
}

// Remove deletes a dependency from the catalog. If the dependency's
// constraint was redundant in the full set, the minimal view is
// already correct; otherwise the catalog is re-minimized (a pruned
// constraint may have to come back).
func (a *Adapter) Remove(dep Dependency) (*ChangeResult, error) {
	probe := NewDependencySet()
	found := false
	for _, d := range a.deps.All() {
		if d == dep {
			found = true
			continue
		}
		probe.Add(d)
	}
	if !found {
		return nil, fmt.Errorf("adapt: dependency %s not in catalog", dep)
	}

	// Merge and translate the reduced catalog; if the full constraint
	// sets are pair-wise identical, the dependency was folded into a
	// surviving pair (e.g. a duplicate across dimensions) and nothing
	// changes structurally.
	merged, err := Merge(a.proc, probe)
	if err != nil {
		return nil, err
	}
	fullNew, err := TranslateServices(merged)
	if err != nil {
		return nil, err
	}
	gone, stable := diffConstraints(fullNew, a.full)
	if !stable {
		// A surviving pair changed condition (the removed dependency
		// was folded into it) or a new pair appeared: recompute.
		a.deps = probe
		if err := a.recompute(); err != nil {
			return nil, err
		}
		return &ChangeResult{FullRecompute: true}, nil
	}
	if len(gone) == 0 {
		a.deps = probe
		a.full = fullNew
		return &ChangeResult{Implied: true}, nil
	}

	// If every disappeared pair was redundant in the old full set, the
	// closure is unchanged and the minimal view still applies.
	pg, err := buildPointGraph(a.full)
	if err != nil {
		return nil, err
	}
	res := &ChangeResult{}
	allRedundant := true
	var noCancel atomic.Bool // Adapter checks run to completion
	for _, c := range gone {
		if c.Rel != HappenBefore {
			continue
		}
		u, v := pg.pointID(c.From), pg.pointID(c.To)
		res.EquivalenceChecks++
		removable, _, err := pg.checkFrontier(context.Background(), u, v, &noCancel)
		if err != nil {
			return nil, err
		}
		if !removable {
			allRedundant = false
			break
		}
		pg.removeConstraintEdge(u, v)
	}
	a.deps = probe
	if allRedundant && dep.Dim != Control {
		a.full = fullNew
		return res, nil
	}
	if err := a.recompute(); err != nil {
		return nil, err
	}
	res.FullRecompute = true
	return res, nil
}

// diffConstraints returns the HappenBefore constraints of b absent
// from a (by pair), and reports whether a's pairs all survive into b
// with unchanged conditions (stable=true).
func diffConstraints(a, b *ConstraintSet) (added []Constraint, stable bool) {
	aPairs := map[PairKey]Constraint{}
	for _, c := range a.constraints {
		aPairs[c.PairKey()] = c
	}
	bPairs := map[PairKey]bool{}
	for _, c := range b.constraints {
		bPairs[c.PairKey()] = true
		if prev, ok := aPairs[c.PairKey()]; ok {
			if prev.Cond.String() != c.Cond.String() {
				return nil, false
			}
			continue
		}
		added = append(added, c)
	}
	for key := range aPairs {
		if !bPairs[key] {
			return nil, false
		}
	}
	return added, true
}
