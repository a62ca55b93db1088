// Package schedule executes a business process directly from its
// synchronization constraint set — the dataflow scheduling engine the
// paper's dependency-equal-to-scheduling approach calls for (§1). No
// sequencing constructs exist at runtime: one goroutine per activity
// waits until the constraints naming it are released, so the
// concurrency the minimal dependency set exposes is realized
// mechanically.
//
// Semantics (mirrored exactly by the petri package's net builder, so
// validated schemes execute as analyzed):
//
//   - every activity traverses start → run → finish (§4.1's life
//     cycle);
//   - a HappenBefore constraint gates the target point until the
//     source point has occurred or the source activity was skipped;
//   - an activity whose execution guard (from the control
//     dependencies) evaluates false under the resolved decision
//     outcomes is skipped — dead-path elimination — and all its points
//     count as released for its dependents;
//   - Exclusive constraints are enforced at start time with per-pair
//     mutexes, "dynamically checked by a scheduling engine at the time
//     of starting an activity" (§4.2).
package schedule

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/obs"
)

// Outcome is an executor's result; Branch is consumed for decision
// activities and ignored otherwise.
type Outcome struct {
	Branch string
}

// Executor performs an activity's work: a service invocation, a local
// computation, or a decision evaluation.
type Executor func(ctx context.Context, act *core.Activity, vars *Vars) (Outcome, error)

// Vars is the process's shared variable store.
type Vars struct {
	mu sync.Mutex
	m  map[string]any
}

// NewVars returns a store seeded with the given inputs.
func NewVars(seed map[string]any) *Vars {
	v := &Vars{m: map[string]any{}}
	for k, val := range seed {
		v.m[k] = val
	}
	return v
}

// Get reads a variable.
func (v *Vars) Get(name string) (any, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	val, ok := v.m[name]
	return val, ok
}

// Set writes a variable.
func (v *Vars) Set(name string, val any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.m[name] = val
}

// Snapshot copies the store.
func (v *Vars) Snapshot() map[string]any {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]any, len(v.m))
	for k, val := range v.m {
		out[k] = val
	}
	return out
}

// Options tunes an engine.
type Options struct {
	// Timeout bounds Run (default 30s). A run that exceeds it fails
	// with a diagnostic listing the blocked activities — the runtime
	// face of an unsound constraint set.
	Timeout time.Duration
	// Guards overrides the execution guards. When nil they are derived
	// from the constraint set's control-origin edges; pass the guards
	// of the pre-minimization set when executing a minimal set.
	Guards map[core.Node]cond.Expr
	// Inputs seeds the variable store.
	Inputs map[string]any
	// Retry gives per-activity recovery policies (see RetryPolicy);
	// activities without an entry fail the run on the first executor
	// error.
	Retry map[core.ActivityID]RetryPolicy
	// RetrySeed seeds the jitter randomness (0 = time-seeded). Chaos
	// replays pass a fixed seed so backoff draws are reproducible.
	RetrySeed int64
	// Workers caps the number of concurrently executing activities
	// (0 = unlimited). The constraint graph bounds parallelism from
	// above; Workers models a resource-constrained engine, letting the
	// benches chart makespan against available executors.
	Workers int
	// Metrics, when non-nil, receives scheduler counters and
	// histograms (S/R/F transitions, blocked time, worker-slot wait,
	// retries, dead-path skips, peak parallelism).
	Metrics *obs.Registry
	// Events, when non-nil, receives typed lifecycle events
	// (obs.LayerEngine); a JSONL log of them rebuilds a validatable
	// trace via TraceFromEvents.
	Events obs.Sink
	// Owned restricts the engine to a partition: only activities it
	// reports true for execute locally; the others are expected to run
	// on peer engines, their transitions arriving via Remote. Nil owns
	// every activity — the single-engine default.
	Owned func(core.ActivityID) bool
	// Publish, when set, receives a Note after each local transition
	// commits (start, finish, skip); the decentralized enactment layer
	// forwards them to the peers gated on them.
	Publish func(Note)
	// Remote feeds transitions committed by peer engines onto this
	// engine's board. The engine consumes it until the run ends or the
	// channel closes.
	Remote <-chan Note
}

// Engine executes one process instance per Run call.
type Engine struct {
	sc     *core.ConstraintSet
	proc   *core.Process
	execs  map[core.ActivityID]Executor
	guards map[core.Node]cond.Expr
	opts   Options
	m      *engineMetrics // nil when Options.Metrics is nil
	sink   obs.Sink       // nil when Options.Events is nil
	rnd    retryRand      // jitter source, seeded by Options.RetrySeed

	// static wiring
	inEdges  map[core.ActivityID][]edgeRef // constraints targeting the activity
	mutexes  map[core.ActivityID][]int     // exclusive constraint ids per activity
	nMutexes int
}

// engineMetrics caches the registry handles the hot path touches so a
// run pays one registry lookup per metric, not per activity.
type engineMetrics struct {
	started     *obs.Counter
	finished    *obs.Counter
	skipped     *obs.Counter
	retries     *obs.Counter
	failures    *obs.Counter
	runs        *obs.Counter
	blocked     *obs.Histogram // gate+mutex wait before start, seconds
	slotWait    *obs.Histogram // wait attributable to the Workers cap
	maxParallel *obs.Gauge
	running     *obs.Gauge
	// remoteDups counts remote notes whose transition was already on
	// the board — broadcast fan-in and fabric retransmits/duplicates,
	// absorbed idempotently.
	remoteDups *obs.Counter
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		return nil
	}
	return &engineMetrics{
		started:     r.Counter("schedule_activities_started_total"),
		finished:    r.Counter("schedule_activities_finished_total"),
		skipped:     r.Counter("schedule_activities_skipped_total"),
		retries:     r.Counter("schedule_retries_total"),
		failures:    r.Counter("schedule_failures_total"),
		runs:        r.Counter("schedule_runs_total"),
		blocked:     r.Histogram("schedule_blocked_seconds", obs.DurationBuckets),
		slotWait:    r.Histogram("schedule_slot_wait_seconds", obs.DurationBuckets),
		maxParallel: r.Gauge("schedule_max_parallel"),
		running:     r.Gauge("schedule_running"),
		remoteDups:  r.Counter("schedule_remote_dup_total"),
	}
}

// emit stamps and delivers one engine event; nil-safe.
func (e *Engine) emit(ev obs.Event) {
	if e.sink == nil {
		return
	}
	ev.Layer = obs.LayerEngine
	e.sink.Emit(obs.Stamp(ev))
}

type edgeRef struct {
	con     core.Constraint
	toState core.State
}

// New validates the constraint set (activity-level nodes only,
// desugared, acyclic) and prepares an engine. Supplied guards are
// trusted: the set's order is then checked over flat point arrays
// (pointOrdered) instead of by deriving guards it would discard, and
// only a rejected set pays for core.DeriveGuards, whose error New
// returns.
func New(sc *core.ConstraintSet, execs map[core.ActivityID]Executor, opts Options) (*Engine, error) {
	if sc.HasServiceNodes() {
		return nil, fmt.Errorf("schedule: constraint set mentions external nodes; translate first")
	}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel == core.HappenTogether {
			return nil, fmt.Errorf("schedule: HappenTogether constraint %s: desugar first", c)
		}
	}
	guards := opts.Guards
	if guards == nil || !pointOrdered(sc) {
		g, err := core.DeriveGuards(sc) // rejects cyclic sets
		if err != nil {
			return nil, err
		}
		if guards == nil {
			guards = g
		}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	e := &Engine{
		sc: sc, proc: sc.Proc, execs: execs, guards: guards, opts: opts,
		m: newEngineMetrics(opts.Metrics), sink: opts.Events,
		rnd:     retryRand{seed: opts.RetrySeed},
		inEdges: map[core.ActivityID][]edgeRef{},
		mutexes: map[core.ActivityID][]int{},
	}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		switch c.Rel {
		case core.HappenBefore:
			e.inEdges[c.To.Node.Activity] = append(e.inEdges[c.To.Node.Activity], edgeRef{con: c, toState: c.To.State})
		case core.Exclusive:
			id := e.nMutexes
			e.nMutexes++
			e.mutexes[c.From.Node.Activity] = append(e.mutexes[c.From.Node.Activity], id)
			e.mutexes[c.To.Node.Activity] = append(e.mutexes[c.To.Node.Activity], id)
		}
	}
	return e, nil
}

// guardOf returns an activity's execution guard.
func (e *Engine) guardOf(id core.ActivityID) cond.Expr {
	if g, ok := e.guards[core.ActivityNode(id)]; ok {
		return g
	}
	return cond.True()
}

// pointOrdered reports whether sc passes the order checks
// core.DeriveGuards makes, without building a point graph: the
// HappenBefore constraints plus each activity's S→R→F edges must form
// a DAG over life-cycle points with no self-loop and no edge twice,
// and the Control-origin constraints must be acyclic over activities.
// Order is checked per point, not per activity: S(a)→F(b) beside
// S(b)→F(a) is a valid order. A false answer only sends New to
// DeriveGuards, which decides and words the rejection.
func pointOrdered(sc *core.ConstraintSet) bool {
	acts := sc.Proc.Activities()
	ids := make(map[core.ActivityID]int, len(acts))
	node := func(id core.ActivityID) int {
		i, ok := ids[id]
		if !ok {
			i = len(ids)
			ids[id] = i
		}
		return i
	}
	for _, a := range acts {
		node(a.ID)
	}
	point := func(p core.Point) int { return 3*node(p.Node.Activity) + int(p.State) }
	edges := make([]uint64, 0, sc.Len()+2*len(acts))
	var control []uint64
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		if c.From.State < core.Start || c.From.State > core.Finish || c.To.State < core.Start || c.To.State > core.Finish {
			return false
		}
		edges = append(edges, packEdge(point(c.From), point(c.To)))
		if c.HasOrigin(core.Control) {
			control = append(control, packEdge(node(c.From.Node.Activity), node(c.To.Node.Activity)))
		}
	}
	for a := 0; a < len(ids); a++ {
		edges = append(edges, packEdge(3*a, 3*a+1), packEdge(3*a+1, 3*a+2))
	}
	slices.Sort(edges)
	for i := 1; i < len(edges); i++ {
		if edges[i] == edges[i-1] {
			return false
		}
	}
	slices.Sort(control)
	return acyclic(3*len(ids), edges) && acyclic(len(ids), control)
}

func packEdge(u, v int) uint64 { return uint64(u)<<32 | uint64(v) }

// acyclic runs Kahn's algorithm over n vertices and sorted packed u→v
// edges; a self-loop counts as a cycle.
func acyclic(n int, edges []uint64) bool {
	if len(edges) == 0 {
		return true
	}
	indeg := make([]int32, n)
	start := make([]int32, n+1) // edges[start[u]:start[u+1]] leave u
	for _, e := range edges {
		indeg[uint32(e)]++
		start[e>>32+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range edges[start[u]:start[u+1]] {
			v := uint32(e)
			if indeg[v]--; indeg[v] == 0 {
				queue = append(queue, int32(v))
			}
		}
	}
	return len(queue) == n
}

// board is the shared event state; all fields except cancel are
// guarded by mu.
type board struct {
	mu       sync.Mutex
	cond     *sync.Cond
	happened map[core.Point]int // point → event sequence number (0 = not yet)
	skipped  map[core.ActivityID]bool
	outcomes map[string]string // decision → branch or SkippedBranch
	holders  []core.ActivityID // mutex id → holder ("" free)
	seq      int
	// clock is the Lamport time of this board: bumped on every local
	// commit, advanced to the remote stamp on every applied note. Always
	// touched under mu.
	clock uint64
	err   error
	// errGeneric marks err as the watchdog's context diagnostic; the
	// first activity-level failure report (which carries the failing
	// activity and, after cancellation, wraps the same context error)
	// upgrades it.
	errGeneric bool
	running    int
	maxRun     int
	// cancel aborts the run context on the first failure so in-flight
	// executors (service receives, backoff sleeps) return promptly
	// instead of riding out Options.Timeout — the fail-fast path.
	cancel context.CancelFunc
}

// SkippedBranch is the outcome recorded for decisions eliminated by a
// dead path; guard literals over them evaluate false.
const SkippedBranch = "∅"

// fail records the run's first activity-level error, wakes every
// constraint-blocked waiter and cancels the run context so executing
// activities observe the failure through ctx — the fail-fast path. An
// activity error also upgrades the watchdog's generic context
// diagnostic, so the reported error names the activity involved
// regardless of which goroutine won the race to observe ctx.Done.
// Callers hold b.mu.
func (b *board) fail(err error) {
	if b.err == nil || b.errGeneric {
		if b.err == nil && b.cancel != nil {
			b.cancel()
		}
		b.err = err
		b.errGeneric = false
	}
	b.cond.Broadcast()
}

// failCtx records the watchdog's context diagnostic (external cancel
// or Options.Timeout); it never displaces an activity-level error and
// may itself be upgraded by one. Callers hold b.mu.
func (b *board) failCtx(err error) {
	if b.err == nil {
		b.err = err
		b.errGeneric = true
	}
	b.cond.Broadcast()
}

// released reports whether an edge no longer gates its target.
func (b *board) released(e edgeRef) bool {
	src := e.con.From.Node.Activity
	if b.skipped[src] {
		return true
	}
	return b.happened[e.con.From] > 0
}

// guardDecidable reports whether every decision in the guard has an
// outcome.
func (b *board) guardDecidable(g cond.Expr) bool {
	for _, d := range g.Decisions() {
		if _, ok := b.outcomes[d]; !ok {
			return false
		}
	}
	return true
}

// Run executes one instance. It returns the execution trace; on
// executor failure, cancellation or timeout the partial trace
// accompanies the error. The first failure cancels the run context,
// so a failing activity terminates the run promptly — dependents and
// in-flight executors do not wait out Options.Timeout.
func (e *Engine) Run(ctx context.Context) (*Trace, error) {
	ctx, cancel := context.WithTimeout(ctx, e.opts.Timeout)
	defer cancel()

	b := &board{
		happened: map[core.Point]int{},
		skipped:  map[core.ActivityID]bool{},
		outcomes: map[string]string{},
		holders:  make([]core.ActivityID, e.nMutexes),
		cancel:   cancel,
	}
	b.cond = sync.NewCond(&b.mu)
	vars := NewVars(e.opts.Inputs)
	trace := newTrace(e.proc)
	e.emit(obs.Event{Kind: obs.EvRunBegin, Detail: e.proc.Name})
	if e.m != nil {
		e.m.runs.Inc()
	}

	var wg sync.WaitGroup
	for _, act := range e.proc.Activities() {
		if !e.owned(act.ID) {
			continue
		}
		wg.Add(1)
		go func(act *core.Activity) {
			defer wg.Done()
			e.runActivity(ctx, act, b, vars, trace)
		}(act)
	}

	// Watchdog: wake sleepers when the context dies. With the
	// fail-fast cancel in board.fail this only originates errors for
	// external cancellation and the Options.Timeout deadline; failures
	// reach it with b.err already set, making its fail a no-op.
	done := make(chan struct{})
	var remoteWG sync.WaitGroup
	if e.opts.Remote != nil {
		remoteWG.Add(1)
		go func() {
			defer remoteWG.Done()
			for {
				select {
				case n, ok := <-e.opts.Remote:
					if !ok {
						return
					}
					if !e.applyRemote(b, n) && e.m != nil {
						e.m.remoteDups.Inc()
					}
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		select {
		case <-ctx.Done():
			b.mu.Lock()
			b.failCtx(fmt.Errorf("schedule: %w; blocked activities: %v", ctx.Err(), e.blocked(b, trace)))
			b.mu.Unlock()
		case <-done:
		}
	}()

	wg.Wait()
	close(done)
	remoteWG.Wait()

	b.mu.Lock()
	err := b.err
	trace.MaxParallel = b.maxRun
	b.mu.Unlock()
	trace.finish(vars)
	if e.m != nil {
		e.m.maxParallel.SetMax(int64(trace.MaxParallel))
	}
	endEv := obs.Event{Kind: obs.EvRunEnd, Detail: e.proc.Name,
		Value: float64(trace.MaxParallel), DurNS: int64(trace.Makespan())}
	if err != nil {
		endEv.Err = err.Error()
	}
	e.emit(endEv)
	if err != nil {
		return trace, err
	}
	return trace, nil
}

// blocked lists activities that neither finished nor were skipped;
// callers hold b.mu.
func (e *Engine) blocked(b *board, tr *Trace) []core.ActivityID {
	var out []core.ActivityID
	for _, a := range e.proc.Activities() {
		if b.happened[core.PointOf(a.ID, core.Finish)] == 0 && !b.skipped[a.ID] {
			out = append(out, a.ID)
		}
	}
	return out
}

// runActivity is the per-activity goroutine.
func (e *Engine) runActivity(ctx context.Context, act *core.Activity, b *board, vars *Vars, tr *Trace) {
	guard := e.guardOf(act.ID)

	// Partition incoming edges by gating state.
	var startGate, finishGate []edgeRef
	for _, ref := range e.inEdges[act.ID] {
		if ref.toState == core.Finish {
			finishGate = append(finishGate, ref)
		} else {
			startGate = append(startGate, ref)
		}
	}
	allReleased := func(refs []edgeRef) bool {
		for _, r := range refs {
			if !b.released(r) {
				return false
			}
		}
		return true
	}

	// Phase 1: wait until the guard is decidable; skip on false. A
	// skip commits only after every incoming edge has released —
	// dead-path elimination propagates in graph order, so a skipped
	// activity still interposes between its predecessors and its
	// dependents. Minimization relies on this: an edge is removed when
	// a chain subsumes it in the guard context of its *endpoints*, so
	// the chain must keep ordering even when an intermediate activity
	// is dead. (Same waits as a normal start, so no new deadlock.)
	b.mu.Lock()
	for b.err == nil && !b.guardDecidable(guard) {
		b.cond.Wait()
	}
	if b.err == nil && !guard.Eval(b.outcomes) {
		for b.err == nil && !(allReleased(startGate) && allReleased(finishGate)) {
			b.cond.Wait()
		}
	}
	if b.err != nil {
		b.mu.Unlock()
		return
	}
	if !guard.Eval(b.outcomes) {
		b.skipped[act.ID] = true
		if act.Kind == core.KindDecision {
			b.outcomes[string(act.ID)] = SkippedBranch
		}
		b.seq++
		skipSeq := b.seq
		b.clock++
		stamp := b.clock
		tr.recordSkip(act.ID, skipSeq)
		b.cond.Broadcast()
		b.mu.Unlock()
		if e.m != nil {
			e.m.skipped.Inc()
		}
		e.publish(Note{Activity: act.ID, Kind: NoteSkip, Stamp: stamp, Seq: skipSeq, At: time.Now()})
		e.emit(obs.Event{Kind: obs.EvActivitySkip, Activity: string(act.ID), Seq: skipSeq})
		return
	}

	// Phase 2: wait for the start gate and mutexes.
	mutexIDs := e.mutexes[act.ID]
	mutexesFree := func() bool {
		for _, id := range mutexIDs {
			if b.holders[id] != "" {
				return false
			}
		}
		return true
	}
	workerFree := func() bool {
		return e.opts.Workers <= 0 || b.running < e.opts.Workers
	}
	var blockedSince, slotSince time.Time
	if e.m != nil {
		blockedSince = time.Now()
	}
	for b.err == nil && (!allReleased(startGate) || !mutexesFree() || !workerFree()) {
		// Attribute the wait to the worker cap once it is the only
		// thing holding the activity back.
		if e.m != nil && slotSince.IsZero() && allReleased(startGate) && mutexesFree() && !workerFree() {
			slotSince = time.Now()
		}
		b.cond.Wait()
	}
	if b.err != nil {
		b.mu.Unlock()
		return
	}
	for _, id := range mutexIDs {
		b.holders[id] = act.ID
	}
	b.seq++
	startSeq := b.seq
	b.happened[core.PointOf(act.ID, core.Start)] = startSeq
	b.happened[core.PointOf(act.ID, core.Run)] = startSeq
	b.clock++
	startStamp := b.clock
	b.running++
	if b.running > b.maxRun {
		b.maxRun = b.running
	}
	tr.recordStart(act.ID, startSeq)
	b.cond.Broadcast()
	b.mu.Unlock()
	if e.m != nil {
		e.m.started.Inc()
		e.m.running.Add(1)
		e.m.blocked.ObserveDuration(time.Since(blockedSince))
		if !slotSince.IsZero() {
			e.m.slotWait.ObserveDuration(time.Since(slotSince))
		}
	}
	e.publish(Note{Activity: act.ID, Kind: NoteStart, Stamp: startStamp, Seq: startSeq, At: time.Now()})
	e.emit(obs.Event{Kind: obs.EvActivityStart, Activity: string(act.ID), Seq: startSeq})

	// Phase 3: execute outside the lock, retrying per policy.
	var outcome Outcome
	var execErr error
	if ex, ok := e.execs[act.ID]; ok && ex != nil {
		policy := e.opts.Retry[act.ID]
		attempts := policy.MaxAttempts
		if attempts < 1 {
			attempts = 1
		}
		classify := policy.Classify
		if classify == nil {
			classify = DefaultClassify
		}
		retryStart := time.Now()
		for attempt := 1; attempt <= attempts; attempt++ {
			attemptCtx, cancelAttempt := ctx, context.CancelFunc(nil)
			if policy.PerAttempt > 0 {
				attemptCtx, cancelAttempt = context.WithTimeout(ctx, policy.PerAttempt)
			}
			outcome, execErr = ex(attemptCtx, act, vars)
			if cancelAttempt != nil {
				cancelAttempt()
			}
			if execErr == nil {
				break
			}
			if classify(execErr) == FaultPermanent {
				// Deterministically failing request: retrying burns the
				// budget without changing the outcome.
				break
			}
			if attempt < attempts {
				delay := policy.delay(attempt)
				if policy.Jitter {
					delay = e.rnd.jitter(delay)
				}
				if policy.MaxElapsed > 0 && time.Since(retryStart)+delay > policy.MaxElapsed {
					execErr = fmt.Errorf("%w (retry budget %v exhausted after attempt %d/%d)",
						execErr, policy.MaxElapsed, attempt, attempts)
					break
				}
				tr.recordRetry(act.ID)
				if e.m != nil {
					e.m.retries.Inc()
				}
				e.emit(obs.Event{Kind: obs.EvActivityRetry, Activity: string(act.ID),
					Attempt: attempt, Err: execErr.Error(), DurNS: int64(delay)})
				if delay > 0 {
					select {
					case <-time.After(delay):
					case <-ctx.Done():
					}
				}
				if ctxErr := ctx.Err(); ctxErr != nil {
					// The retry budget was cut short by
					// cancellation/timeout mid-backoff: the context
					// error is the run's real cause, not the last
					// attempt's failure.
					execErr = fmt.Errorf("%w (retry abandoned after attempt %d/%d: %v)",
						ctxErr, attempt, attempts, execErr)
					break
				}
			}
		}
		// The symmetric ordering: the context died while the (final)
		// attempt was executing, and the executor surfaced some other
		// error. Report the context error as the cause.
		if execErr != nil && ctx.Err() != nil && !errors.Is(execErr, ctx.Err()) {
			execErr = fmt.Errorf("%w (last attempt: %v)", ctx.Err(), execErr)
		}
	}

	b.mu.Lock()
	b.running--
	b.cond.Broadcast() // a worker slot freed up
	if e.m != nil {
		e.m.running.Add(-1)
	}
	if execErr != nil {
		b.fail(fmt.Errorf("schedule: activity %s: %w", act.ID, execErr))
		b.mu.Unlock()
		if e.m != nil {
			e.m.failures.Inc()
		}
		e.emit(obs.Event{Kind: obs.EvActivityFail, Activity: string(act.ID), Err: execErr.Error()})
		return
	}
	if act.Kind == core.KindDecision {
		branch := outcome.Branch
		if branch == "" {
			branch = act.BranchDomain()[0]
		}
		ok := false
		for _, v := range act.BranchDomain() {
			if v == branch {
				ok = true
			}
		}
		if !ok {
			b.fail(fmt.Errorf("schedule: decision %s returned branch %q outside domain %v", act.ID, branch, act.BranchDomain()))
			b.mu.Unlock()
			return
		}
		outcome.Branch = branch
	}

	// Phase 4: wait for the finish gate, then publish finish, the
	// decision outcome and mutex releases.
	for b.err == nil && !allReleased(finishGate) {
		b.cond.Wait()
	}
	if b.err != nil {
		b.mu.Unlock()
		return
	}
	b.seq++
	finSeq := b.seq
	b.happened[core.PointOf(act.ID, core.Finish)] = finSeq
	b.clock++
	finStamp := b.clock
	if act.Kind == core.KindDecision {
		b.outcomes[string(act.ID)] = outcome.Branch
	}
	for _, id := range mutexIDs {
		b.holders[id] = ""
	}
	tr.recordFinish(act.ID, finSeq, outcome.Branch)
	b.cond.Broadcast()
	b.mu.Unlock()
	if e.m != nil {
		e.m.finished.Inc()
	}
	e.publish(Note{Activity: act.ID, Kind: NoteFinish, Branch: outcome.Branch,
		Stamp: finStamp, Seq: finSeq, At: time.Now()})
	e.emit(obs.Event{Kind: obs.EvActivityFinish, Activity: string(act.ID),
		Seq: finSeq, Branch: outcome.Branch})
}
