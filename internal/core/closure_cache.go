package core

import "dscweaver/internal/cond"

// closureCache memoizes the baseline (skip-free) single-source
// annotated closures of a point graph across the candidate loop of a
// minimization run. The paper's Definition 6 algorithm re-derives
// annotatedFrom(s, nil) for every source of every candidate edge —
// O(candidates · sources) sweeps — so with the cache each baseline
// costs one sweep for the whole run, halving the sweep count (the
// per-candidate skip closures remain, by construction, uncacheable).
//
// In the default guard-context mode entries stay valid across
// removals: see removeConstraintEdge for why a kept removal cannot
// change any later verdict derived from a cached closure. The
// strict-annotations ablation deletes entries by reachability instead.
// Like the rest of the point graph, the cache belongs to one goroutine.
type closureCache struct {
	entries  map[int][]cond.Expr
	disabled bool

	hits, misses int
}

func newClosureCache() *closureCache {
	return &closureCache{entries: map[int][]cond.Expr{}}
}

// get returns the cached closure for point p, computing and installing
// it via compute on a miss, so misses equals the number of sweeps run.
// The returned slice is shared: callers must not mutate it.
func (c *closureCache) get(p int, compute func() []cond.Expr) []cond.Expr {
	if c.disabled {
		return compute()
	}
	if ann, ok := c.entries[p]; ok {
		c.hits++
		return ann
	}
	c.misses++
	ann := compute()
	c.entries[p] = ann
	return ann
}

// fullFrom returns the baseline condition-annotated forward closure
// from source s, served from the cache when valid.
func (pg *pointGraph) fullFrom(s int) []cond.Expr {
	return pg.cache.get(s, func() []cond.Expr { return pg.annotatedFrom(s, nil) })
}

// fullTo returns the baseline condition-annotated backward closure
// toward target t, served from the backward cache when valid. Like
// fullFrom it never takes a cancel flag: a partial sweep must never
// become a cached baseline.
func (pg *pointGraph) fullTo(t int) []cond.Expr {
	return pg.cacheTo.get(t, func() []cond.Expr { return pg.annotatedToInto(nil, t, nil, nil, nil) })
}

// invalidateClosuresThrough drops every cached baseline closure whose
// source reaches point u — exactly the closures a removal of an edge
// out of u can change. Closures from other sources never route through
// the removed edge and stay valid.
func (pg *pointGraph) invalidateClosuresThrough(u int) {
	c := pg.cache
	if c.disabled {
		return
	}
	delete(c.entries, u)
	for _, s := range pg.ancestorsOf(u) {
		delete(c.entries, s)
	}
}

// removeConstraintEdge deletes a constraint edge from the working
// graph and keeps the closure cache coherent. All removals during
// minimization and adaptation must go through here.
//
// In the default guard-context mode the cache is NOT invalidated, and
// that is sound: a removal is only ever kept when, for every source s
// reaching u and every target t reachable from v, the closure
// annotations with and without the edge are semantically equal under
// the guard context g(s,t) — and targets outside descendants(v) cannot
// change at all. Guards are fixed for the lifetime of the point graph
// and every later verdict is decided by equalCond, a semantic test, so
// a cached pre-removal closure yields bit-identical verdicts to a
// recomputed one (only the Same/IsFalse fast-path hit rates — and
// hence the PairComparisons tally — can differ). Invalidating here
// would wipe exactly the ancestor set the next candidates re-query and
// forfeits nearly the entire cache on removal-heavy sets.
//
// The strict-annotations ablation compares closures outside any guard
// context, so its kept removals certify equivalence under a different
// relation than the one later verdicts use at g(s,t); there the
// conservative reach-based invalidation stays on.
func (pg *pointGraph) removeConstraintEdge(u, v int) {
	if pg.strict {
		pg.invalidateClosuresThrough(u)
	}
	pg.g.RemoveEdge(u, v)
	delete(pg.conds, [2]int{u, v})
}

// equalMemo caches the verdicts of semantic equivalence checks keyed
// on the canonical DNF encodings of both operands. The bounded
// enumeration inside cond.Equal dominates the minimizer's inner loop,
// and the same (closure annotation, guard) expression pairs recur
// across candidates and sources; the memo answers repeats in a map
// lookup. Keys are order-normalized so Equal(a,b) and Equal(b,a) share
// an entry.
type equalMemo struct {
	verdicts map[string]bool
	disabled bool

	hits int
}

func newEqualMemo() *equalMemo {
	return &equalMemo{verdicts: map[string]bool{}}
}

// equalCond is cond.Equal over the graph's branch domains, with a
// structural fast path (cond.Expr.Same) and the memo table in front of
// the enumeration.
func (pg *pointGraph) equalCond(a, b cond.Expr) (bool, error) {
	if a.Same(b) {
		return true, nil
	}
	m := pg.memo
	if m.disabled {
		return cond.Equal(a, b, pg.doms)
	}
	ka := a.AppendKey(make([]byte, 0, 64))
	kb := b.AppendKey(make([]byte, 0, 64))
	if string(kb) < string(ka) {
		ka, kb = kb, ka
	}
	key := string(append(append(ka, 0), kb...))
	if verdict, ok := m.verdicts[key]; ok {
		m.hits++
		return verdict, nil
	}
	eq, err := cond.Equal(a, b, pg.doms)
	if err != nil {
		return false, err
	}
	m.verdicts[key] = eq
	return eq, nil
}
