package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/graph"
	"dscweaver/internal/obs"
)

// CancelError is the error MinimizeOpt returns when its context is
// canceled mid-run: a partial-progress report alongside the context's
// own error. errors.Is(err, context.Canceled) (or DeadlineExceeded)
// sees through it via Unwrap.
type CancelError struct {
	// Cause is the context's error.
	Cause error
	// Checked counts candidate equivalence checks completed before the
	// abort; Removed counts the removals among them that landed. The
	// removals applied so far are always a prefix of the removal
	// sequence an uncancelled run would perform (the candidate loop is
	// deterministic).
	Checked int
	Removed int
	// Elapsed is the run time up to the abort.
	Elapsed time.Duration
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("minimize: canceled after %d equivalence checks (%d removals, %v): %v",
		e.Checked, e.Removed, e.Elapsed.Round(time.Microsecond), e.Cause)
}

// Unwrap exposes the context error.
func (e *CancelError) Unwrap() error { return e.Cause }

// MinimizeResult reports the outcome of a minimization run.
type MinimizeResult struct {
	// Minimal is the minimal synchronization constraint set P*
	// (Definition 6). Exclusive constraints, which are enforced
	// dynamically (§4.2), pass through untouched.
	Minimal *ConstraintSet
	// Removed lists the redundant constraints in removal order.
	Removed []Constraint
	// EquivalenceChecks counts the candidate-removal tests performed
	// (one per HappenBefore constraint, per the paper's algorithm).
	EquivalenceChecks int
	// PairComparisons counts the annotated-closure pair comparisons
	// evaluated across all checks — the maintenance-cost metric of the
	// optimizer benches. The tally is a function of the input and the
	// engine configuration alone: repeated runs report the same count.
	// It differs between configurations because the closure cache
	// changes where the structural fast paths hit and the local pair
	// test settles most candidates at a single comparison. The verdicts
	// themselves — and hence Minimal, Removed and EquivalenceChecks —
	// are identical for every configuration.
	PairComparisons int
	// Workers is always 1: every check runs on the calling goroutine.
	// The field remains for readers that still report it.
	Workers int
	// Respeculated is always 0: candidates are decided one at a time,
	// so no verdict is ever re-evaluated. The field remains for readers
	// that still report it.
	Respeculated int
	// VerdictCacheHit reports that the whole run was served by a
	// recorded removal sequence from MinimizeOptions.VerdictCache — no
	// point graph was built and no equivalence checks ran
	// (EquivalenceChecks is 0).
	VerdictCacheHit bool
	// ClosureCacheHits and ClosureCacheMisses count baseline-closure
	// lookups served from / computed into the per-source closure
	// cache. Without the cache every (candidate, source) pair costs a
	// full annotated sweep; the hit count is the number of sweeps the
	// cache avoided.
	ClosureCacheHits   int
	ClosureCacheMisses int
	// CondMemoHits counts semantic-equivalence checks answered by the
	// canonical-DNF memo table instead of domain enumeration.
	CondMemoHits int
}

// Minimize computes a minimal synchronization constraint set
// (Definition 6) with the paper's algorithm: every HappenBefore
// constraint is tentatively removed and the removal is kept when the
// remaining set is transitive-equivalent to the original.
//
// Equivalence is tested under condition-annotated closure
// (Definition 3) in the guard context of each point pair: two
// annotations count as equal when they agree on every branch
// assignment under which both endpoints execute. This is the semantics
// that reproduces the paper's Figure 9 — an unconditional data edge
// into a guarded activity (recClient_po → invPurchase_po) is
// subsumed by the conditional path through the decision, and a
// disjunction over all branches (if_au → replyClient_oi via the T and
// F paths) is subsumed as unconditional.
//
// The test is localized: removing edge u→v can only change closures
// from points that reach u toward points reachable from v, so only
// those pairs are re-compared. Minimality of the result — no further
// constraint is removable — follows from the algorithm visiting every
// constraint once against the evolving set; the property tests verify
// it independently.
//
// The input set must be desugared (no HappenTogether) and acyclic.
// The input is not mutated. Guards are derived from the input set's
// control-origin constraints; when minimizing a set whose control
// structure lives elsewhere (e.g. re-minimizing an already-minimal
// set), pass the original guards in MinimizeOptions.Guards.
func Minimize(sc *ConstraintSet) (*MinimizeResult, error) {
	return MinimizeOpt(context.Background(), sc, MinimizeOptions{})
}

// ErrCanceled reports whether err is a cancellation (a *CancelError or
// a bare context error), so call sites can distinguish an aborted run
// from a malformed input.
func ErrCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// MinimizeOptions tunes the minimization algorithm; the zero value is
// the paper-faithful configuration (the engine option NoCache never
// changes the result, only how fast it is computed).
type MinimizeOptions struct {
	// Guards overrides the execution-guard context (nil derives from
	// the set's control-origin constraints).
	Guards map[Node]cond.Expr
	// VerdictCache, when non-nil, consults (and on a miss, fills) a
	// cross-run content-addressed cache of removal sequences keyed on
	// the constraint set, supplied guards, domains and comparison mode.
	// On a hit the recorded constraints are dropped from the input and
	// neither the point graph nor any Definition 6 equivalence check is
	// computed; see VerdictCacheHit. A long-lived server shares one
	// instance across requests.
	VerdictCache *VerdictCache
	// CandidateHook, when non-nil, runs before every candidate
	// evaluation. A returned error aborts the run with that error. The
	// chaos suite injects latency and faults here.
	CandidateHook CandidateHook
	// NoCache disables the per-source closure cache and the
	// equivalence memo, restoring the naive re-derivation of every
	// closure per (candidate, source). It exists as the baseline for
	// the optimizer benches; results are identical either way.
	NoCache bool
	// StrictAnnotations disables guard-context equivalence: closure
	// annotations are compared verbatim (an unconditional edge into a
	// guarded activity then differs from the conditional path through
	// its decision). This is the ablation of DESIGN.md's
	// "condition-annotated closure" design choice — under it the
	// paper's own example stops at 20 constraints instead of
	// Figure 9's 17.
	StrictAnnotations bool
	// Metrics, when non-nil, receives the run's counters (equivalence
	// checks, pair comparisons, closure-cache hits/misses, memo hits)
	// — the same tallies MinimizeResult reports, surfaced through the
	// shared registry so a process exposes engine, bus and minimizer
	// signals on one endpoint.
	Metrics *obs.Registry
	// Events, when non-nil, receives obs.LayerMinimize lifecycle
	// events: minimize_begin, then one minimize_end carrying the
	// decision record (obs.Decision), on a verdict-cache hit as on a
	// miss.
	Events obs.Sink
}

// CandidateHook observes (and may veto) every candidate evaluation
// attempt; see MinimizeOptions.CandidateHook.
type CandidateHook func(ctx context.Context, c Constraint) error

// MinimizeOpt is Minimize with full options and cooperative
// cancellation: ctx is checked before every candidate and inside every
// closure sweep, so a canceled run aborts within one per-source sweep
// and a verdict computed from a partial scan can never land as a
// committed removal. On cancellation the returned error is a
// *CancelError carrying the partial progress (the removals applied so
// far are a prefix of the uncancelled run's deterministic removal
// sequence). An uncancelled run is bit-identical to Minimize for every
// engine configuration. A nil ctx behaves as context.Background().
func MinimizeOpt(ctx context.Context, sc *ConstraintSet, opts MinimizeOptions) (*MinimizeResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, c := range sc.constraints {
		if c.Rel == HappenTogether {
			return nil, fmt.Errorf("minimize: HappenTogether constraint %s: call Desugar first", c)
		}
	}
	res := &MinimizeResult{Workers: 1}

	// A verdict-cache hit is decided from the input alone: the key
	// needs no point graph, and a usable entry turns into the minimal
	// set by dropping the recorded constraints.
	var vcKey [32]byte
	var removedIdx []int
	var drop []bool
	if opts.VerdictCache != nil {
		vcKey = verdictCacheKey(sc, opts.Guards, opts.StrictAnnotations)
		if idx, ok := opts.VerdictCache.lookup(vcKey); ok {
			removedIdx, drop = idx, dropMask(sc, idx)
		}
	}
	replayed := drop != nil

	var pg *pointGraph
	if !replayed {
		var err error
		if pg, err = buildPointGraph(sc); err != nil {
			return nil, err
		}
		for n, g := range opts.Guards {
			pg.guards[n] = g
		}
		pg.strict = opts.StrictAnnotations
		pg.cache.disabled = opts.NoCache
		pg.cacheTo.disabled = opts.NoCache
		pg.memo.disabled = opts.NoCache
	}
	emit := func(ev obs.Event) {
		if opts.Events != nil {
			ev.Layer = obs.LayerMinimize
			opts.Events.Emit(obs.Stamp(ev))
		}
	}
	began := time.Now()
	emit(obs.Event{Kind: obs.EvMinimizeBegin, Detail: sc.Proc.Name, Value: float64(sc.Len())})

	// Every HappenBefore constraint is a candidate, in canonical
	// (insertion) order. The paper's algorithm is order-dependent in
	// general (minimal sets are not unique); insertion order makes
	// runs deterministic. Points are fixed for the run and no two
	// constraints share an edge, so no candidate's edge can disappear
	// before its turn.
	var cands []candidate
	if pg != nil {
		cands = make([]candidate, 0, sc.Len())
	}
	nCands := 0
	for i, c := range sc.constraints {
		if c.Rel != HappenBefore {
			continue
		}
		nCands++
		if pg != nil {
			cands = append(cands, candidate{idx: i, u: pg.pointID(c.From), v: pg.pointID(c.To)})
		}
	}

	// end emits minimize_end carrying the decision record: the whole
	// run's on success, the decided prefix's on cancellation.
	end := func(cause error) {
		if opts.Events == nil {
			return
		}
		d := &obs.Decision{Candidates: nCands, Checks: res.EquivalenceChecks,
			Pairs: res.PairComparisons, Removed: make([]string, len(res.Removed))}
		for i, c := range res.Removed {
			d.Removed[i] = c.String()
		}
		ev := obs.Event{Kind: obs.EvMinimizeEnd, Detail: sc.Proc.Name,
			Value: float64(len(res.Removed)), DurNS: int64(time.Since(began)), Decision: d}
		if cause != nil {
			ev.Err = cause.Error()
		}
		emit(ev)
	}
	cancelErr := func(cause error) error {
		if opts.Metrics != nil {
			opts.Metrics.Counter("minimize_canceled_total").Inc()
		}
		end(cause)
		return &CancelError{Cause: cause, Checked: res.EquivalenceChecks,
			Removed: len(res.Removed), Elapsed: time.Since(began)}
	}

	if opts.VerdictCache != nil {
		if err := ctx.Err(); err != nil {
			return nil, cancelErr(err)
		}
		res.VerdictCacheHit = replayed
		if r := opts.Metrics; r != nil {
			if replayed {
				r.Counter("minimize_verdict_cache_hits_total").Inc()
			} else {
				r.Counter("minimize_verdict_cache_misses_total").Inc()
			}
		}
	}

	if replayed {
		for _, i := range removedIdx {
			res.Removed = append(res.Removed, sc.constraints[i])
		}
	} else {
		var err error
		removedIdx, err = pg.runSequential(ctx, cands, opts.CandidateHook, res)
		if err != nil {
			if ErrCanceled(err) {
				return nil, cancelErr(err)
			}
			return nil, err
		}
		if opts.VerdictCache != nil {
			opts.VerdictCache.store(vcKey, removedIdx)
		}
		res.ClosureCacheHits = pg.cache.hits + pg.cacheTo.hits
		res.ClosureCacheMisses = pg.cache.misses + pg.cacheTo.misses
		res.CondMemoHits = pg.memo.hits
		drop = dropMask(sc, removedIdx)
	}

	// The input's constraints have distinct pairs and none is vacuous
	// (Add folds and drops those), so the survivors are the minimal
	// set as they stand, without Add's pair index.
	minimal := &ConstraintSet{Proc: sc.Proc, constraints: make([]Constraint, 0, sc.Len()-len(res.Removed))}
	for i, c := range sc.constraints {
		if !drop[i] {
			minimal.constraints = append(minimal.constraints, c)
		}
	}
	res.Minimal = minimal

	end(nil)
	if r := opts.Metrics; r != nil {
		r.Counter("minimize_runs_total").Inc()
		r.Counter("minimize_equivalence_checks_total").Add(int64(res.EquivalenceChecks))
		r.Counter("minimize_removed_total").Add(int64(len(res.Removed)))
		r.Counter("minimize_pair_comparisons_total").Add(int64(res.PairComparisons))
		r.Counter("minimize_closure_cache_hits_total").Add(int64(res.ClosureCacheHits))
		r.Counter("minimize_closure_cache_misses_total").Add(int64(res.ClosureCacheMisses))
		r.Counter("minimize_memo_hits_total").Add(int64(res.CondMemoHits))
		r.Histogram("minimize_run_seconds", obs.DurationBuckets).ObserveDuration(time.Since(began))
	}
	return res, nil
}

// dropMask turns a removal sequence into a mask over sc's constraints.
// Every index must be in range, distinct, and name a HappenBefore
// constraint; it returns nil on any mismatch, which for a verdict-cache
// entry (a hash collision or a cross-version entry) sends the caller
// to the full run.
func dropMask(sc *ConstraintSet, removedIdx []int) []bool {
	drop := make([]bool, len(sc.constraints))
	for _, i := range removedIdx {
		if i < 0 || i >= len(drop) || drop[i] || sc.constraints[i].Rel != HappenBefore {
			return nil
		}
		drop[i] = true
	}
	return drop
}

// candidate is one HappenBefore constraint in the canonical
// (insertion) candidate order, with its edge resolved up front.
type candidate struct {
	idx  int // position in sc's insertion order, the verdict-cache value
	u, v int
}

// runSequential is the candidate engine: one candidate at a time in
// canonical order, each decided by checkFrontier and committed before
// the next is tested. It applies every removal to the graph, tallies
// res, and returns the removed candidates' indices for the verdict
// cache. One context.AfterFunc per minimization arms the sweep cancel
// flag every check polls.
func (pg *pointGraph) runSequential(ctx context.Context, cands []candidate, hook CandidateHook, res *MinimizeResult) ([]int, error) {
	var cancel atomic.Bool
	stop := context.AfterFunc(ctx, func() { cancel.Store(true) })
	defer stop()
	var removedIdx []int
	for _, cand := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if hook != nil {
			if err := hook(ctx, pg.sc.constraints[cand.idx]); err != nil {
				return nil, err
			}
		}
		removable, pairs, err := pg.checkFrontier(ctx, cand.u, cand.v, &cancel)
		if err != nil {
			return nil, err
		}
		res.EquivalenceChecks++
		res.PairComparisons += pairs
		if removable {
			pg.removeConstraintEdge(cand.u, cand.v)
			res.Removed = append(res.Removed, pg.sc.constraints[cand.idx])
			removedIdx = append(removedIdx, cand.idx)
		}
	}
	return removedIdx, nil
}

// ancestorsOf returns all points that reach x by a nonempty path.
func (pg *pointGraph) ancestorsOf(x int) []int {
	seen := graph.NewBitset(len(pg.points))
	var out []int
	stack := []int{x}
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pg.g.Pred(y) {
			if !seen.Has(p) {
				seen.Set(p)
				out = append(out, p)
				stack = append(stack, p)
			}
		}
	}
	return out
}

// MinimizeUnconditional is the fast path for constraint sets with no
// conditional constraints: the minimal set of a DAG of unconditional
// HappenBefore edges is its unique transitive reduction. It returns an
// error if any constraint carries a condition. Used by the large-scale
// optimizer benches.
func MinimizeUnconditional(sc *ConstraintSet) (*MinimizeResult, error) {
	for _, c := range sc.constraints {
		if c.Rel == HappenBefore && !c.Cond.IsTrue() {
			return nil, fmt.Errorf("minimize: constraint %s is conditional; use Minimize", c)
		}
		if c.Rel == HappenTogether {
			return nil, fmt.Errorf("minimize: HappenTogether constraint %s: call Desugar first", c)
		}
	}
	pg, err := buildPointGraph(sc)
	if err != nil {
		return nil, err
	}
	_, removedEdges, err := pg.g.TransitiveReduction()
	if err != nil {
		return nil, err
	}
	removedSet := map[[2]int]bool{}
	for _, e := range removedEdges {
		// Life-cycle edges are never redundant (each is the only edge
		// between its endpoints once constraints go activity-level),
		// but guard against them anyway: only constraint edges may be
		// dropped.
		if _, ok := pg.conIndex[e]; ok {
			removedSet[e] = true
		}
	}
	res := &MinimizeResult{Minimal: NewConstraintSet(sc.Proc), Workers: 1}
	for _, c := range sc.constraints {
		if c.Rel == HappenBefore {
			e := [2]int{pg.pointID(c.From), pg.pointID(c.To)}
			if removedSet[e] {
				res.Removed = append(res.Removed, c)
				continue
			}
		}
		res.Minimal.Add(c)
	}
	res.EquivalenceChecks = len(pg.conIndex)
	return res, nil
}
