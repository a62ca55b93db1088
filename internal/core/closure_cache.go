package core

import (
	"sync"
	"sync/atomic"

	"dscweaver/internal/cond"
)

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
// strict-annotations ablation invalidates by reachability instead.
//
// Entries are generation-stamped: gen counts invalidations, staleAt[s]
// records the generation at which source s was last invalidated, and an
// entry is valid iff it was computed at or after that point. Stamping
// (rather than plain deletion) also makes stores safe against the
// worker pool of checkFrontier: a worker that began its sweep before an
// invalidation cannot install a stale closure afterwards, because its
// compute-time generation predates the source's staleAt.
type closureCache struct {
	mu       sync.RWMutex
	gen      uint64
	staleAt  map[int]uint64
	entries  map[int]closureEntry
	flight   map[int]*closureFlight
	disabled bool

	hits   atomic.Int64
	misses atomic.Int64
}

type closureEntry struct {
	gen uint64
	ann []cond.Expr
}

// closureFlight coalesces concurrent misses on one cold source: the
// first goroutine to miss becomes the leader and runs the sweep, every
// other one parks on done and shares the leader's result. Without it N
// pool workers racing on an uncached source each ran the full annotated
// sweep, the losers' results were discarded, and ClosureCacheMisses
// over-reported the sweep count.
type closureFlight struct {
	done chan struct{}
	ann  []cond.Expr // set by the leader before done is closed
}

func newClosureCache() *closureCache {
	return &closureCache{
		staleAt: map[int]uint64{},
		entries: map[int]closureEntry{},
		flight:  map[int]*closureFlight{},
	}
}

// get returns the cached closure for point p, computing and installing
// it via compute on a miss. Concurrent misses on the same point are
// coalesced into one compute (singleflight): followers block until the
// leader's sweep lands and count as hits, so misses equals the number
// of sweeps actually run. The returned slice is shared: callers must
// not mutate it.
func (c *closureCache) get(p int, compute func() []cond.Expr) []cond.Expr {
	if c == nil || c.disabled {
		return compute()
	}
	c.mu.RLock()
	e, ok := c.entries[p]
	stale := c.staleAt[p]
	c.mu.RUnlock()
	if ok && e.gen >= stale {
		c.hits.Add(1)
		return e.ann
	}
	c.mu.Lock()
	// Re-check under the write lock: the entry or a flight may have
	// appeared since the read.
	if e, ok := c.entries[p]; ok && e.gen >= c.staleAt[p] {
		c.mu.Unlock()
		c.hits.Add(1)
		return e.ann
	}
	if f, ok := c.flight[p]; ok {
		c.mu.Unlock()
		<-f.done
		c.hits.Add(1) // coalesced: served by the leader's sweep
		return f.ann
	}
	f := &closureFlight{done: make(chan struct{})}
	c.flight[p] = f
	gen := c.gen
	c.mu.Unlock()

	c.misses.Add(1)
	ann := compute()
	f.ann = ann
	c.mu.Lock()
	// The generation stamp keeps a leader that started before an
	// invalidation from installing a stale closure afterwards; followers
	// of that flight still get the (then-current) result they coalesced
	// on, exactly as if they had computed it themselves at claim time.
	if gen >= c.staleAt[p] {
		c.entries[p] = closureEntry{gen: gen, ann: ann}
	}
	delete(c.flight, p)
	c.mu.Unlock()
	close(f.done)
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

// invalidateClosuresThrough marks stale every cached baseline closure
// whose source reaches point u — exactly the closures a removal of an
// edge out of u can change. Closures from other sources never route
// through the removed edge and stay valid.
func (pg *pointGraph) invalidateClosuresThrough(u int) {
	c := pg.cache
	if c == nil || c.disabled {
		return
	}
	c.mu.Lock()
	c.gen++
	c.staleAt[u] = c.gen
	for _, s := range pg.ancestorsOf(u) {
		c.staleAt[s] = c.gen
	}
	c.mu.Unlock()
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
// an entry. Safe for concurrent use by checkFrontier's worker pool.
type equalMemo struct {
	mu       sync.Mutex
	verdicts map[string]bool
	disabled bool

	hits atomic.Int64
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
	if m == nil || m.disabled {
		return cond.Equal(a, b, pg.doms)
	}
	ka := a.AppendKey(make([]byte, 0, 64))
	kb := b.AppendKey(make([]byte, 0, 64))
	if string(kb) < string(ka) {
		ka, kb = kb, ka
	}
	key := string(append(append(ka, 0), kb...))
	m.mu.Lock()
	verdict, ok := m.verdicts[key]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
		return verdict, nil
	}
	eq, err := cond.Equal(a, b, pg.doms)
	if err != nil {
		return false, err
	}
	m.mu.Lock()
	m.verdicts[key] = eq
	m.mu.Unlock()
	return eq, nil
}
