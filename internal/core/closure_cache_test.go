// White-box test for the closure cache's strict-mode invalidation.
package core

import (
	"testing"

	"dscweaver/internal/cond"
)

// TestClosureCacheInvalidateRecomputes: invalidating the closures
// through a point drops the entries of that point and of every point
// reaching it, so their next get re-sweeps, while a source that cannot
// reach it stays cached. hits and misses count lookups exactly.
func TestClosureCacheInvalidateRecomputes(t *testing.T) {
	pg := chainGraph(t, 3)
	mid := pg.pointID(PointOf("a1", Start))
	before := pg.pointID(PointOf("a0", Finish))
	after := pg.pointID(PointOf("a2", Start))
	computes := 0
	get := func(p int) {
		pg.cache.get(p, func() []cond.Expr {
			computes++
			return []cond.Expr{cond.True()}
		})
	}
	for _, p := range []int{mid, before, after} {
		get(p)
		get(p)
	}
	if computes != 3 || pg.cache.misses != 3 || pg.cache.hits != 3 {
		t.Fatalf("warm-up: computes/misses/hits = %d/%d/%d, want 3/3/3", computes, pg.cache.misses, pg.cache.hits)
	}

	pg.invalidateClosuresThrough(mid)
	for _, p := range []int{mid, before, after} {
		get(p)
	}
	if computes != 5 {
		t.Errorf("computes after invalidation = %d, want 5 (mid and its ancestor re-sweep, the descendant stays cached)", computes)
	}
	if pg.cache.misses != 5 || pg.cache.hits != 4 {
		t.Errorf("misses/hits = %d/%d, want 5/4", pg.cache.misses, pg.cache.hits)
	}
}
