package core

import (
	"context"
	"sync/atomic"

	"dscweaver/internal/cond"
	"dscweaver/internal/graph"
)

// candFrontier is the affected-pair frontier of one candidate removal
// u→v: the only closure pairs its removal can perturb run from srcSet
// (points that reach u, plus u) to tgtSet (points reachable from v,
// plus v) — any path that routes through the edge starts in srcSet and
// ends in tgtSet. Only the middle-case fallback scan of checkFrontier
// needs it. The bitsets seed the fallback's sweep cones; the slices
// preserve a deterministic iteration order with u (resp. v) first, so
// the pair (u, v) — the pair most likely to refute a kept candidate —
// is compared before any other.
type candFrontier struct {
	u, v    int
	sources []int // u first, then its ancestors in reverse-DFS order
	srcSet  graph.Bitset
	targets []int // v first, then its descendants in DFS order
	tgtSet  graph.Bitset
}

// frontierOf computes a candidate's affected-pair frontier on the
// current graph by one reverse DFS from u and one forward DFS from v.
func (pg *pointGraph) frontierOf(u, v int) *candFrontier {
	fr := &candFrontier{
		u: u, v: v,
		srcSet: graph.NewBitset(len(pg.points)),
		tgtSet: graph.NewBitset(len(pg.points)),
	}
	fr.srcSet.Set(u)
	fr.sources = append(fr.sources, u)
	stack := []int{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pg.g.Pred(x) {
			if !fr.srcSet.Has(p) {
				fr.srcSet.Set(p)
				fr.sources = append(fr.sources, p)
				stack = append(stack, p)
			}
		}
	}
	fr.tgtSet.Set(v)
	fr.targets = append(fr.targets, v)
	stack = append(stack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range pg.g.Succ(x) {
			if !fr.tgtSet.Has(y) {
				fr.tgtSet.Set(y)
				fr.targets = append(fr.targets, y)
				stack = append(stack, y)
			}
		}
	}
	return fr
}

// pairWithout returns without(u, v): the annotation at v of the skip
// sweep from u with the candidate edge u→v excluded, the one value the
// local pair test reads. It sweeps only the topo window
// [pos(u), pos(v)] and only the points of anc(v) ∪ {v} inside it, into
// the point graph's reused scratch slice and bitset, so a candidate
// costs no allocation proportional to the graph.
//
// The result is structurally identical to annotatedFrom(u, &skip)[v]:
// nothing before pos(u) is reachable from u, nothing after pos(v)
// reaches v, and a point outside anc(v) contributes to no annotation
// inside it. Every relaxation that reaches v therefore runs here too,
// between the same points, in the same topo order, with the same
// Simplify sequence. The ancestor DFS is pruned below pos(u) without
// loss: every point on a path from an ancestor a to v lies between
// pos(a) and pos(v) in topo order.
//
// A non-nil cancel is polled like annotatedFromInto's; a fired sweep
// returns a partial value the caller must discard.
func (pg *pointGraph) pairWithout(u, v int, cancel *atomic.Bool) cond.Expr {
	lo, hi := pg.pos[u], pg.pos[v]
	// anc(v) ∪ {v} within the window, marked by topo position. Bits
	// outside the window are never read, so only its words are reset.
	mask := pg.pairMask
	clear(mask[lo/64 : hi/64+1])
	mask.Set(hi)
	stack := append(pg.pairStack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pg.g.Pred(x) {
			if q := pg.pos[p]; q >= lo && !mask.Has(q) {
				mask.Set(q)
				stack = append(stack, p)
			}
		}
	}
	pg.pairStack = stack

	n := hi - lo + 1
	if cap(pg.pairAnn) < n {
		pg.pairAnn = make([]cond.Expr, n)
	}
	ann := pg.pairAnn[:n] // indexed by topo position minus lo
	for i := range ann {
		ann[i] = cond.False()
	}
	ann[0] = cond.True()
	expanded := 0
	for i := range ann {
		if !mask.Has(lo+i) || ann[i].IsFalse() {
			continue
		}
		expanded++
		if cancel != nil && expanded%sweepCheckInterval == 0 && cancel.Load() {
			return cond.False() // partial — caller re-checks cancel before use
		}
		x := pg.topo[lo+i]
		for _, w := range pg.g.Succ(x) {
			q := pg.pos[w]
			if q > hi || !mask.Has(q) || (x == u && w == v) {
				continue
			}
			e := [2]int{x, w}
			step := cond.And(ann[i], pg.conds[e])
			if step.IsFalse() {
				continue
			}
			ann[q-lo] = cond.Simplify(cond.Or(ann[q-lo], step), pg.doms)
		}
	}
	return ann[n-1]
}

// forwardMask returns the cone a forward skip sweep may visit: the
// union over the candidate's targets of their ancestors, plus the
// targets themselves. The mask is predecessor-closed over the nodes the
// verdict reads (a predecessor of an ancestor of t is an ancestor of
// t), which annotatedFromInto requires for the restricted sweep to stay
// structurally identical at every target.
func (pg *pointGraph) forwardMask(fr *candFrontier) graph.Bitset {
	mask := fr.tgtSet.Clone()
	stack := append([]int(nil), fr.targets...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pg.g.Pred(x) {
			if !mask.Has(p) {
				mask.Set(p)
				stack = append(stack, p)
			}
		}
	}
	return mask
}

// backwardMask is forwardMask mirrored for backward sweeps: the union
// over the candidate's sources of their descendants, plus the sources.
func (pg *pointGraph) backwardMask(fr *candFrontier) graph.Bitset {
	mask := fr.srcSet.Clone()
	stack := append([]int(nil), fr.sources...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range pg.g.Succ(x) {
			if !mask.Has(y) {
				mask.Set(y)
				stack = append(stack, y)
			}
		}
	}
	return mask
}

// checkFrontier decides one candidate removal u→v — Definition 6's
// transitive-equivalence test over the candidate's affected-pair
// frontier — and returns (removable, pairComparisons, error). The
// removal verdict is a conjunction over all (source, target) frontier
// pairs (every pair's closure annotations must stay equivalent in
// guard context), so the verdict — and therefore the removal sequence
// the candidate loop performs — is identical for every engine
// configuration. The PairComparisons tally depends on the input and
// the configuration only: the closure cache changes where the
// structural fast paths hit, and the local pair test settles most
// candidates at a single comparison.
//
// The engine decides nearly every candidate from the single pair
// (u, v) — one windowed skip sweep from u (see pairWithout) — via the
// transitivity of the annotated closure (gated off under NoCache, which
// stays the paper-faithful naive baseline). In a DAG a path uses the
// edge at most once, so for every frontier pair
//
//	full(s,t) = without(s,t) ∨ (without(s,u) ∧ cond(u,v) ∧ without(v,t))
//
// and path concatenation gives without(s,t) ⊒ without(s,m) ∧
// without(m,t) for any midpoint m. Therefore:
//
//   - if cond(u,v) ⊑ without(u,v) absolutely, the through-edge term of
//     every pair is absorbed (chain u, then v, as midpoints), so every
//     pair is absolutely — hence also in guard context — equivalent:
//     REMOVE, exactly as the full scan would conclude.
//   - if the pair (u, v) itself is inequivalent in its own guard
//     context, the full scan refutes at that very pair (it is compared
//     first): KEEP.
//   - only the middle case — equivalent in guard context but not
//     absolutely — falls back to the full frontier scan, because
//     guard-context-only coverage at (u, v) does not propagate through
//     other pairs' contexts. In the strict ablation guard context is
//     True, the first two cases are exhaustive and no fallback exists.
//
// The frontier is built lazily, only once the pair test has failed to
// decide: two DFS walks and two bitsets per candidate would otherwise
// dominate the loop. The quick-keep special case (no alternate u⇒v
// path) falls out for free: without(u,v) is False, so a non-vacuous
// edge refutes at the cost of a near-empty sweep. Fallback skip sweeps
// are confined to the nodes that can lie on a path into the target
// cone (forwardMask/backwardMask); annotations at the compared pairs
// are structurally identical to an unrestricted sweep's, so verdicts
// and per-scan tallies are unchanged while the sweep skips the
// untouched subgraph.
//
// The closure pair for (s, t) can be derived by sweeping forward from
// s or backward from t over the reverse graph — the same disjunction
// over paths either way — so the check walks whichever frontier is
// smaller. The NoCache baseline and the strict-annotations ablation
// always sweep forward, like the paper's algorithm.
//
// Cancellation: ctx aborts the check between items, and the cancel
// flag aborts a single sweep mid-scan, so no sweep pays a per-node ctx
// lookup. The caller owns the flag: runSequential arms it once per
// minimization with context.AfterFunc, so it is set only after ctx is
// done. A context-aborted check returns ctx.Err() — never a verdict
// computed from an incomplete scan.
//
// The point graph, its scratch buffers and its caches belong to the
// one goroutine running the candidate loop (or the Adapter), which
// calls checkFrontier one candidate at a time.
func (pg *pointGraph) checkFrontier(ctx context.Context, u, v int, cancel *atomic.Bool) (bool, int, error) {
	skip := [2]int{u, v}

	// An already-aborted context never yields a verdict — not even the
	// local pair test's.
	if err := ctx.Err(); err != nil {
		return false, 0, err
	}
	if !pg.cache.disabled {
		// Local pair test, read at v. The cached baseline closure is
		// deliberately not used here: prior guard-mode removals preserve
		// closures only in guard context, while the absolute test needs
		// the current graph's exact full(u,v) — which is just
		// without(u,v) ∨ cond(u,v).
		without := pg.pairWithout(u, v, cancel)
		if err := ctx.Err(); err != nil {
			// The sweep may have aborted mid-scan; its result is not a
			// closure and must not yield a verdict.
			return false, 0, err
		}
		full := cond.Or(without, pg.conds[skip])
		eqAbs, err := pg.equalCond(full, without)
		if err != nil {
			return false, 1, err
		}
		if eqAbs {
			return true, 1, nil
		}
		if pg.strict {
			return false, 1, nil
		}
		g := cond.And(pg.guardOf(pg.points[u].Node), pg.guardOf(pg.points[v].Node))
		eqCtx, err := pg.equalCond(cond.And(full, g), cond.And(without, g))
		if err != nil {
			return false, 1, err
		}
		if !eqCtx {
			return false, 1, nil // the pair (u, v) itself refutes
		}
		// Middle case: covered in guard context only — decide by the full
		// frontier scan below.
	}

	fr := pg.frontierOf(u, v)
	backward := !pg.strict && !pg.cache.disabled && len(fr.targets) < len(fr.sources)
	items := fr.sources
	var within graph.Bitset
	if backward {
		items, within = fr.targets, pg.backwardMask(fr)
	} else if !pg.cache.disabled {
		within = pg.forwardMask(fr)
	}

	pairs := 0
	var scratch []cond.Expr
	for _, it := range items {
		if err := ctx.Err(); err != nil {
			return false, pairs, err
		}
		var ok bool
		var p int
		var err error
		if backward {
			ok, p, scratch, err = pg.targetEquivalent(it, skip, fr.sources, within, scratch, cancel)
		} else {
			ok, p, scratch, err = pg.sourceEquivalent(it, skip, fr.targets, within, scratch, cancel)
		}
		pairs += p
		if err != nil || !ok {
			if cerr := ctx.Err(); cerr != nil {
				return false, pairs, cerr
			}
			return false, pairs, err
		}
	}
	// An abort during the final item's sweep yields a vacuous "ok"
	// from a partial scan; the ctx error must win over that verdict.
	if err := ctx.Err(); err != nil {
		return false, pairs, err
	}
	return true, pairs, nil
}

// sourceEquivalent checks one source's contribution to a candidate
// removal: whether the closures from s with and without the skipped
// edge agree on every target, compared in guard context. The baseline
// closure comes from the closure cache; the skip closure is recomputed
// into scratch — restricted to the within cone when non-nil — and
// scratch is returned for reuse by the caller's next source. The cancel
// flag is polled between targets so a context abort stops the scan
// promptly (the early return reports equivalent=true, which the caller
// discards on abort). Targets are compared in frontier order, v first,
// so a kept candidate is usually refuted by its own pair before any
// other comparison runs.
func (pg *pointGraph) sourceEquivalent(s int, skip [2]int, targets []int, within graph.Bitset, scratch []cond.Expr, cancel *atomic.Bool) (bool, int, []cond.Expr, error) {
	full := pg.fullFrom(s)
	without := pg.annotatedFromInto(scratch, s, &skip, cancel, within)
	gs := pg.guardOf(pg.points[s].Node)
	pairs := 0
	for _, t := range targets {
		if cancel.Load() {
			return true, pairs, without, nil
		}
		if full[t].IsFalse() && without[t].IsFalse() {
			continue
		}
		pairs++
		// Fast path: canonical DNFs structurally identical.
		if full[t].Same(without[t]) {
			continue
		}
		g := cond.And(gs, pg.guardOf(pg.points[t].Node))
		if pg.strict {
			g = cond.True() // ablation: compare annotations out of guard context
		}
		eq, err := pg.equalCond(cond.And(full[t], g), cond.And(without[t], g))
		if err != nil {
			return false, pairs, without, err
		}
		if !eq {
			return false, pairs, without, nil
		}
	}
	return true, pairs, without, nil
}

// targetEquivalent is sourceEquivalent mirrored: one backward sweep
// from target t over the reverse graph yields the closure annotations
// of every source at once, compared against the cached baseline
// backward closure. Semantically ann_s[t] computed forward and
// ann_t[s] computed backward are the same disjunction over the paths
// s⇒t, so the verdict is identical to the forward direction's; only
// the intermediate Simplify steps (and hence the structural fast-path
// hit rate) differ. Sources are compared in frontier order, u first.
func (pg *pointGraph) targetEquivalent(t int, skip [2]int, sources []int, within graph.Bitset, scratch []cond.Expr, cancel *atomic.Bool) (bool, int, []cond.Expr, error) {
	full := pg.fullTo(t)
	without := pg.annotatedToInto(scratch, t, &skip, cancel, within)
	gt := pg.guardOf(pg.points[t].Node)
	pairs := 0
	for _, s := range sources {
		if cancel.Load() {
			return true, pairs, without, nil
		}
		if full[s].IsFalse() && without[s].IsFalse() {
			continue
		}
		pairs++
		if full[s].Same(without[s]) {
			continue
		}
		g := cond.And(pg.guardOf(pg.points[s].Node), gt)
		eq, err := pg.equalCond(cond.And(full[s], g), cond.And(without[s], g))
		if err != nil {
			return false, pairs, without, err
		}
		if !eq {
			return false, pairs, without, nil
		}
	}
	return true, pairs, without, nil
}
