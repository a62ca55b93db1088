package core

import (
	"context"
	"fmt"
	"sync/atomic"
)

// PairSweepMismatches checks the local pair test's windowed sweep
// against the unrestricted closure sweep. It walks sc's HappenBefore
// edges in canonical order over the evolving graph of a minimization
// run: at each edge u→v it compares pairWithout(u, v) with
// annotatedFrom(u, &skip)[v], then decides the candidate and applies
// its removal as MinimizeOpt does. It returns the number of edges
// compared, how many of them had an alternate u⇒v path (a non-False
// annotation), and one line per structural mismatch.
func PairSweepMismatches(sc *ConstraintSet) (compared, nonFalse int, mismatches []string, err error) {
	pg, err := buildPointGraph(sc.Clone())
	if err != nil {
		return 0, 0, nil, err
	}
	var noCancel atomic.Bool // the walk runs to completion
	for _, c := range sc.Constraints() {
		if c.Rel != HappenBefore {
			continue
		}
		u, v := pg.pointID(c.From), pg.pointID(c.To)
		if u < 0 || v < 0 || !pg.g.HasEdge(u, v) {
			continue
		}
		skip := [2]int{u, v}
		want := pg.annotatedFrom(u, &skip)[v]
		got := pg.pairWithout(u, v, nil)
		if !got.Same(want) {
			mismatches = append(mismatches, fmt.Sprintf("%s: window sweep %s, full sweep %s", c, got, want))
		}
		compared++
		if !want.IsFalse() {
			nonFalse++
		}
		removable, _, err := pg.checkFrontier(context.Background(), u, v, &noCancel)
		if err != nil {
			return compared, nonFalse, mismatches, err
		}
		if removable {
			pg.removeConstraintEdge(u, v)
		}
	}
	return compared, nonFalse, mismatches, nil
}

// Len returns the number of cached entries; the eviction and key
// tests count them.
func (vc *VerdictCache) Len() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return len(vc.entries)
}
