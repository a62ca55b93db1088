package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/enact"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/server"
	"dscweaver/internal/services"
	"dscweaver/internal/store"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
)

// replica is the traced stand-in for dscweaverd. It serves the routes
// the workloads use, with the server's request and response types and
// its configuration (a shared verdict cache of the default size, a
// segment store with default options, a 128-run ring, a GOMAXPROCS
// admission pool), and calls the same public layer functions in the
// same order as internal/server, with a span around each call. Spans
// are recorded here because the program records none of its own.
type replica struct {
	tr     *tracer
	reg    *obs.Registry
	vcache *core.VerdictCache
	st     *store.Store
	sem    chan struct{}
	// fabric carries the enact notes; join posts partition slices to
	// the peer.
	fabric *http.Client
	join   *http.Client

	mu    sync.Mutex
	seq   int64
	ring  map[string]*replicaRun
	order []string

	enactMu    sync.Mutex
	transports map[string]*services.HTTPTransport
	finished   map[string]bool
}

// replicaRun is one run in the ring: its in-memory log, its store
// appender and the time spent appending to the store.
type replicaRun struct {
	id       string
	seq      int64
	began    time.Time
	events   *obs.MemSink
	app      *store.Appender
	sink     obs.Sink
	appendNS atomic.Int64

	mu      sync.Mutex
	process string
	status  string
}

const (
	ringSize      = 128
	queueWait     = 2 * time.Second
	engineTimeout = 10 * time.Second
)

func newReplica(tr *tracer, storeDir string, workers int, fabric, join *http.Client) (*replica, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(storeDir, store.Options{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("replica store: %w", err)
	}
	return &replica{
		tr:         tr,
		reg:        reg,
		vcache:     core.NewVerdictCache(0),
		st:         st,
		sem:        make(chan struct{}, workers),
		fabric:     fabric,
		join:       join,
		ring:       map[string]*replicaRun{},
		transports: map[string]*services.HTTPTransport{},
		finished:   map[string]bool{},
	}, nil
}

func (r *replica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/runs", r.handleRuns)
	mux.HandleFunc("GET /v1/runs/{id}/events", r.handleEvents)
	mux.HandleFunc("POST /v1/weave", r.handleWeave)
	mux.HandleFunc("POST /v1/simulate", r.handleSimulate)
	mux.HandleFunc("POST /v1/enact", r.handleEnact)
	mux.HandleFunc("POST "+services.DefaultInvokePath, r.handleInvoke)
	return mux
}

func (r *replica) close() error { return r.st.Close() }

// timedSink times the store appender's share of every event.
type timedSink struct {
	app *store.Appender
	ns  *atomic.Int64
}

func (s timedSink) Emit(e obs.Event) {
	began := time.Now()
	s.app.Emit(e)
	s.ns.Add(int64(time.Since(began)))
}

func (r *replica) decode(p int64, w http.ResponseWriter, req *http.Request, v any) bool {
	defer r.tr.start(p, "server.decode")()
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return false
	}
	return true
}

func (r *replica) admit(p int64, w http.ResponseWriter) (release func(), ok bool) {
	defer r.tr.start(p, "server.admission")()
	wait := time.NewTimer(queueWait)
	defer wait.Stop()
	select {
	case r.sem <- struct{}{}:
		return func() { <-r.sem }, true
	case <-wait.C:
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "weave pool saturated"})
		return nil, false
	}
}

func (r *replica) encode(p int64, w http.ResponseWriter, v any) {
	defer r.tr.start(p, "server.encode")()
	writeJSON(w, http.StatusOK, v)
}

// writeJSON renders v the way the server does.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// newRun allocates a run in the ring, evicting the oldest, and begins
// it in the store.
func (r *replica) newRun(p int64, kind string) *replicaRun {
	end := r.tr.start(p, "server.ring")
	r.mu.Lock()
	r.seq++
	rn := &replicaRun{
		id:     fmt.Sprintf("%s-%06d", kind, r.seq),
		seq:    r.seq,
		began:  time.Now(),
		events: &obs.MemSink{},
		status: "running",
	}
	r.ring[rn.id] = rn
	r.order = append(r.order, rn.id)
	for len(r.order) > ringSize {
		delete(r.ring, r.order[0])
		r.order = r.order[1:]
	}
	r.mu.Unlock()
	end()
	began := time.Now()
	rn.app = r.st.Begin(rn.id, rn.seq, kind, rn.began)
	r.tr.record(p, "store.begin", began, time.Now())
	rn.appendNS.Add(int64(time.Since(began)))
	rn.sink = obs.MultiSink(rn.events, timedSink{rn.app, &rn.appendNS})
	return rn
}

// finish ends a run in the store and tallies its store and event
// figures.
func (r *replica) finish(p int64, rn *replicaRun, err error) {
	rn.mu.Lock()
	rn.status = "ok"
	if err != nil {
		rn.status = "error"
	}
	proc := rn.process
	rn.mu.Unlock()
	began := time.Now()
	rn.app.Finish(proc, err)
	r.tr.record(p, "store.finish", began, time.Now())
	rn.appendNS.Add(int64(time.Since(began)))
	r.tr.add("store.append_ms", float64(rn.appendNS.Load())/1e6)
	r.tr.add("obs.events_per_run", float64(rn.events.Len()))
}

func (rn *replicaRun) setProcess(name string) {
	rn.mu.Lock()
	rn.process = name
	rn.mu.Unlock()
}

// stageSpans names the span of each weave pipeline stage after the
// layer whose public function the stage calls.
var stageSpans = map[string]string{
	weave.StageParse:     "dscl.parse",
	weave.StageMerge:     "core.merge",
	weave.StageDesugar:   "core.desugar",
	weave.StageTranslate: "core.translate",
	weave.StageMinimize:  "core.minimize",
	weave.StageValidate:  "petri.validate",
	weave.StageBPEL:      "bpel.generate",
}

// weave runs the pipeline as the server does. The stage hook marks
// each stage boundary, so every stage gets its own span.
func (r *replica) weave(ctx context.Context, p int64, q *server.WeaveRequest, rn *replicaRun, outputs bool) (*weave.Result, error) {
	opts := weave.Options{
		Frontend:     front.DSCL,
		VerdictCache: r.vcache,
		Metrics:      r.reg,
		Events:       rn.sink,
	}
	if outputs {
		opts.Validate = q.Validate == nil || *q.Validate
		opts.BPEL = q.BPEL
	}
	var cur string
	var curStart time.Time
	closeStage := func(now time.Time) {
		if cur != "" {
			r.tr.record(p, stageSpans[cur], curStart, now)
		}
	}
	opts.StageHook = func(_ context.Context, stage string) error {
		now := time.Now()
		closeStage(now)
		cur, curStart = stage, now
		return nil
	}
	res, err := weave.Run(ctx, weave.Input{Source: q.Source}, opts)
	closeStage(time.Now())
	if err != nil {
		return nil, err
	}
	rn.setProcess(res.Parsed.Proc.Name)
	min := res.Minimize
	r.tr.add("dscl.source_bytes", float64(len(q.Source)))
	r.tr.add("core.minimize.equivalence_checks", float64(min.EquivalenceChecks))
	r.tr.add("core.minimize.pair_comparisons", float64(min.PairComparisons))
	r.tr.add("core.minimize.closure_cache_hits", float64(min.ClosureCacheHits))
	r.tr.add("core.minimize.closure_cache_lookups", float64(min.ClosureCacheHits+min.ClosureCacheMisses))
	r.tr.add("core.minimize.verdict_cache_hit_ratio", b2f(min.VerdictCacheHit))
	r.tr.add("core.minimize.respeculated", float64(min.Respeculated))
	r.tr.add("core.minimize.workers", float64(min.Workers))
	r.tr.add("core.constraints.translated", float64(res.Translated.Len()))
	r.tr.add("core.constraints.minimal", float64(min.Minimal.Len()))
	if rep := res.Soundness; rep != nil {
		r.tr.add("petri.states", float64(rep.StateSpace.States))
		r.tr.add("petri.method."+strings.ReplaceAll(rep.Method, "+", "_"), 1)
	}
	if res.BPELXML != nil {
		r.tr.add("bpel.xml_bytes", float64(len(res.BPELXML)))
	}
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (r *replica) handleWeave(w http.ResponseWriter, req *http.Request) {
	p := parentOf(req)
	var q server.WeaveRequest
	if !r.decode(p, w, req, &q) {
		return
	}
	release, ok := r.admit(p, w)
	if !ok {
		return
	}
	defer release()
	rn := r.newRun(p, "weave")
	res, err := r.weave(req.Context(), p, &q, rn, true)
	r.finish(p, rn, err)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	min := res.Minimize
	resp := &server.WeaveResponse{
		RunID:                 rn.id,
		Process:               res.Parsed.Proc.Name,
		Activities:            len(res.Parsed.Proc.Activities()),
		MergedConstraints:     res.Merged.Len(),
		TranslatedConstraints: res.Translated.Len(),
		MinimalConstraints:    min.Minimal.Len(),
		Removed:               len(min.Removed),
		EquivalenceChecks:     min.EquivalenceChecks,
		VerdictCacheHit:       min.VerdictCacheHit,
		Minimal:               render(min.Minimal),
		BPEL:                  strings.TrimSpace(string(res.BPELXML)),
	}
	if rep := res.Soundness; rep != nil {
		resp.Sound = &rep.Sound
		resp.States = rep.StateSpace.States
		resp.Truncated = rep.StateSpace.Truncated
		resp.Deadlocks = rep.Deadlocks
		resp.ValidateMethod = rep.Method
	}
	r.encode(p, w, resp)
}

func (r *replica) handleSimulate(w http.ResponseWriter, req *http.Request) {
	p := parentOf(req)
	var q server.SimulateRequest
	if !r.decode(p, w, req, &q) {
		return
	}
	release, ok := r.admit(p, w)
	if !ok {
		return
	}
	defer release()
	rn := r.newRun(p, "simulate")
	resp, err := r.simulate(req.Context(), p, &q, rn)
	if err == nil && resp.Error != "" {
		err = errors.New(resp.Error)
	}
	r.finish(p, rn, err)
	if resp == nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	r.encode(p, w, resp)
}

func (r *replica) simulate(ctx context.Context, p int64, q *server.SimulateRequest, rn *replicaRun) (*server.SimulateResponse, error) {
	out, err := r.weave(ctx, p, &q.WeaveRequest, rn, false)
	if err != nil {
		return nil, err
	}
	proc := out.Parsed.Proc
	bus, err := simulatedBus(proc, r.reg, rn.sink, nil)
	if err != nil {
		return nil, err
	}
	binding := schedule.NewBinding(bus)
	defer binding.Close()
	defer bus.Close()
	execs := binding.Executors(proc, 0)
	overrideDecisions(proc, execs)

	end := r.tr.start(p, "schedule.run")
	eng, err := schedule.New(out.Minimize.Minimal, execs, schedule.Options{
		Guards:  out.Guards,
		Inputs:  seedInputs(proc),
		Timeout: timeoutOf(q),
		Metrics: r.reg,
		Events:  rn.sink,
	})
	if err != nil {
		end()
		return nil, err
	}
	tr, runErr := eng.Run(ctx)
	end()
	r.tr.add("schedule.executed", float64(len(tr.Executed())))
	r.tr.add("schedule.max_parallel", float64(tr.MaxParallel))

	resp := &server.SimulateResponse{
		RunID:       rn.id,
		Process:     proc.Name,
		MaxParallel: tr.MaxParallel,
		MakespanNS:  int64(tr.Makespan()),
	}
	fillTrace(&resp.Executed, &resp.Skipped, tr)
	if runErr != nil {
		resp.Error = runErr.Error()
	} else if err := r.validateTrace(p, tr, out); err != nil {
		resp.Error = fmt.Sprintf("trace validation: %v", err)
	} else {
		resp.Valid = true
	}
	if data, err := tr.MarshalJSON(); err == nil {
		resp.Trace = data
	}
	return resp, nil
}

func (r *replica) validateTrace(p int64, tr *schedule.Trace, out *weave.Result) error {
	defer r.tr.start(p, "schedule.trace_validate")()
	return tr.Validate(out.Translated, out.Guards)
}

func fillTrace(executed, skipped *[]string, tr *schedule.Trace) {
	for _, id := range tr.Executed() {
		*executed = append(*executed, string(id))
	}
	for _, id := range tr.SkippedActivities() {
		*skipped = append(*skipped, string(id))
	}
}

func timeoutOf(q *server.SimulateRequest) time.Duration {
	if q.TimeoutMS > 0 {
		return time.Duration(q.TimeoutMS) * time.Millisecond
	}
	return engineTimeout
}

func (r *replica) handleEnact(w http.ResponseWriter, req *http.Request) {
	p := parentOf(req)
	var q server.EnactRequest
	if !r.decode(p, w, req, &q) {
		return
	}
	release, ok := r.admit(p, w)
	if !ok {
		return
	}
	defer release()
	rn := r.newRun(p, "enact")
	resp, err := r.enact(req.Context(), p, &q, rn, "http://"+req.Host)
	if err == nil && resp.Error != "" {
		err = errors.New(resp.Error)
	}
	r.finish(p, rn, err)
	if resp == nil {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": err.Error()})
		return
	}
	r.encode(p, w, resp)
}

// enact coordinates one enactment across this replica and the peers
// named in the request, which are real dscweaverd instances: notes
// cross loopback HTTP in both directions.
func (r *replica) enact(ctx context.Context, p int64, q *server.EnactRequest, rn *replicaRun, self string) (*server.EnactResponse, error) {
	out, err := r.weave(ctx, p, &q.WeaveRequest, rn, false)
	if err != nil {
		return nil, err
	}
	proc := out.Parsed.Proc
	minimal := out.Minimize.Minimal

	end := r.tr.start(p, "decentral.place")
	plan, err := decentral.Place(minimal, decentral.Pin(proc))
	if err == nil {
		plan, err = decentral.CoLocate(minimal, plan)
	}
	if err == nil {
		plan, err = decentral.Fold(minimal, plan, q.Nodes)
	}
	var cmp *decentral.Comparison
	if err == nil {
		cmp, _ = decentral.Compare(out.Translated, minimal, decentral.Pin(proc))
	}
	end()
	if err != nil {
		return nil, err
	}
	r.tr.add("decentral.cross_edges", float64(plan.CrossEdges))
	resp := &server.EnactResponse{
		RunID:               rn.id,
		Process:             proc.Name,
		Hosts:               plan.Hosts,
		Partition:           partitionJSON(plan.Partition),
		PredictedCrossEdges: plan.CrossEdges,
	}
	if cmp != nil {
		resp.MessageSavings = cmp.MessageSavings()
	}
	if err := r.coordinate(ctx, p, q, out, plan, rn, resp, self); err != nil {
		resp.Error = err.Error()
	}
	r.tr.add("enact.edge_messages", float64(resp.EdgeMessages))
	r.tr.add("enact.outcome_messages", float64(resp.OutcomeMessages))
	return resp, nil
}

func (r *replica) coordinate(ctx context.Context, p int64, q *server.EnactRequest, out *weave.Result, plan *decentral.Plan, rn *replicaRun, resp *server.EnactResponse, self string) error {
	members := append([]string{self}, q.Peers...)
	memberHosts := make([][]string, len(members))
	owners := map[string]string{}
	for i, h := range plan.Hosts {
		m := i % len(members)
		memberHosts[m] = append(memberHosts[m], h)
		owners[h] = members[m]
	}
	myHosts := memberHosts[0]
	runID := rn.id + "-replica"
	routes := map[string]string{}
	for h, url := range owners {
		if url != self {
			routes["node:"+h] = url
		}
	}
	transport := services.NewHTTPTransport(services.HTTPConfig{
		Run:    runID,
		Node:   "coord:" + myHosts[0],
		Routes: routes,
		Client: r.fabric,
		Retry: services.HTTPRetry{
			MaxAttempts: 60,
			Backoff:     10 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
			MaxElapsed:  timeoutOf(&q.SimulateRequest) * 3 / 4,
		},
		Metrics: r.reg,
		Events:  rn.sink,
	})
	r.enactMu.Lock()
	r.transports[runID] = transport
	r.enactMu.Unlock()
	defer func() {
		r.enactMu.Lock()
		delete(r.transports, runID)
		r.finished[runID] = true
		r.enactMu.Unlock()
		transport.Close()
	}()

	proc := out.Parsed.Proc
	mine := map[string]bool{}
	for _, h := range myHosts {
		mine[h] = true
	}
	svcOwner := serviceOwners(proc, plan.Partition)
	bus, err := simulatedBus(proc, r.reg, rn.sink, func(svc string) bool { return mine[svcOwner[svc]] })
	if err != nil {
		return err
	}
	binding := schedule.NewBinding(bus)
	defer binding.Close()
	defer bus.Close()
	execs := binding.Executors(proc, 0)
	overrideDecisions(proc, execs)

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	peerResults := make([]*server.EnactJoinResponse, len(q.Peers))
	peerErrs := make([]error, len(q.Peers))
	var wg sync.WaitGroup
	for i, url := range q.Peers {
		hosts := memberHosts[i+1]
		if len(hosts) == 0 {
			continue
		}
		jq := server.EnactJoinRequest{
			SimulateRequest: q.SimulateRequest,
			RunID:           runID,
			Hosts:           hosts,
			Partition:       partitionJSON(plan.Partition),
			Owners:          owners,
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			var jr server.EnactJoinResponse
			if err := postJSON(runCtx, r.join, url+"/v1/enact/join", &jq, &jr); err != nil {
				peerErrs[i] = fmt.Errorf("peer %s: %w", url, err)
				cancelRun()
				return
			}
			peerResults[i] = &jr
		}(i, url)
	}

	end := r.tr.start(p, "enact.run")
	eout, runErr := enact.Run(runCtx, enact.Options{
		Plan:    plan,
		Set:     out.Minimize.Minimal,
		Guards:  out.Guards,
		Execs:   execs,
		Inputs:  seedInputs(proc),
		Timeout: timeoutOf(&q.SimulateRequest),
		Metrics: r.reg,
		Events:  rn.sink,
		Hosts:   myHosts,
		Fabric:  &noteFabric{t: transport},
	})
	wg.Wait()
	end()

	var notes []enact.Note
	if eout != nil {
		resp.EdgeMessages = eout.Stats.EdgeMessages
		resp.OutcomeMessages = eout.Stats.OutcomeMessages
		notes = append(notes, eout.Notes...)
	}
	for _, jr := range peerResults {
		if jr != nil {
			resp.EdgeMessages += jr.EdgeMessages
			resp.OutcomeMessages += jr.OutcomeMessages
			notes = append(notes, jr.Notes...)
		}
	}
	if err := errors.Join(append(peerErrs, runErr)...); err != nil {
		return err
	}
	merged, err := enact.Merge(proc, eout.Began, time.Now(), notes)
	if err != nil {
		return err
	}
	resp.MaxParallel = merged.MaxParallel
	resp.MakespanNS = int64(merged.Makespan())
	fillTrace(&resp.Executed, &resp.Skipped, merged)
	if data, err := merged.MarshalJSON(); err == nil {
		resp.Trace = data
	}
	if err := r.validateTrace(p, merged, out); err != nil {
		return fmt.Errorf("trace validation: %w", err)
	}
	resp.Valid = true
	return nil
}

// handleInvoke delivers a transport frame to the live enactment it
// belongs to; frames for a finished enactment are acknowledged.
func (r *replica) handleInvoke(w http.ResponseWriter, req *http.Request) {
	var f services.Frame
	if err := json.NewDecoder(req.Body).Decode(&f); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	r.enactMu.Lock()
	t, finished := r.transports[f.Run], r.finished[f.Run]
	r.enactMu.Unlock()
	if t == nil {
		if finished {
			writeJSON(w, http.StatusOK, services.DeliverResult{})
			return
		}
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no live enactment " + f.Run})
		return
	}
	res, err := t.Deliver(f)
	switch {
	case errors.Is(err, services.ErrRunMismatch):
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// noteFabric carries enactment notes over an HTTP transport, one
// service "node:<host>" per host, as the server's fabric does.
type noteFabric struct{ t *services.HTTPTransport }

func (f *noteFabric) Register(host string, deliver func(enact.Note)) error {
	return f.t.RegisterLocal("node:"+host, func(c *services.Call) ([]services.Emit, error) {
		raw, err := json.Marshal(c.Payload)
		if err != nil {
			return nil, services.Permanent(err)
		}
		var n enact.Note
		if err := json.Unmarshal(raw, &n); err != nil {
			return nil, services.Permanent(err)
		}
		deliver(n)
		return nil, nil
	})
}

func (f *noteFabric) Send(host string, n enact.Note) error { return f.t.Call("node:"+host, "note", n) }

func (f *noteFabric) Close() {}

func partitionJSON(part decentral.Partition) map[string]string {
	out := make(map[string]string, len(part))
	for id, h := range part {
		out[string(id)] = h
	}
	return out
}

// serviceOwners maps each service to the host of its first
// interaction activity, where its simulated instance runs.
func serviceOwners(proc *core.Process, part decentral.Partition) map[string]string {
	owners := map[string]string{}
	for _, a := range proc.Activities() {
		if (a.Kind == core.KindInvoke || a.Kind == core.KindReceive) && a.Service != "" {
			if _, seen := owners[a.Service]; !seen {
				owners[a.Service] = part[a.ID]
			}
		}
	}
	return owners
}

func (r *replica) handleRuns(w http.ResponseWriter, req *http.Request) {
	p := parentOf(req)
	limit, _ := strconv.Atoi(req.URL.Query().Get("limit"))
	end := r.tr.start(p, "store.list")
	stored := r.st.ListRange(time.Time{}, time.Time{}, limit)
	end()
	out := make([]server.RunSummary, 0, len(stored))
	for _, m := range stored {
		s := server.RunSummary{ID: m.ID, Kind: m.Kind, Process: m.Proc, Began: m.Began, Status: "running", Events: m.Events}
		if m.Done {
			s.Status = "ok"
			if !m.OK {
				s.Status, s.Error = "error", m.Err
			}
		}
		r.mu.Lock()
		rn := r.ring[m.ID]
		r.mu.Unlock()
		if rn != nil {
			rn.mu.Lock()
			s.Process, s.Status = rn.process, rn.status
			rn.mu.Unlock()
			s.Events = rn.events.Len()
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Began.After(out[j].Began) })
	r.encode(p, w, out)
}

func (r *replica) handleEvents(w http.ResponseWriter, req *http.Request) {
	p := parentOf(req)
	id := req.PathValue("id")
	r.mu.Lock()
	rn := r.ring[id]
	r.mu.Unlock()
	if rn != nil {
		end := r.tr.start(p, "server.encode")
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range rn.events.Events() {
			if enc.Encode(e) != nil {
				break
			}
		}
		end()
		return
	}
	if _, ok := r.st.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown run " + id})
		return
	}
	end := r.tr.start(p, "store.events")
	evs, err := r.st.Events(id)
	end()
	defer r.tr.start(p, "server.encode")()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err != nil {
		w.Header().Set("X-Dscweaver-Truncated", "true")
	}
	for _, raw := range evs {
		if _, err := w.Write(append(raw, '\n')); err != nil {
			return
		}
	}
}

// simulatedBus registers one simulated service per declared service
// (restricted by only, when set), each emitting the callbacks the
// process's receive activities wait for, as the server's simulate and
// enact handlers do.
func simulatedBus(proc *core.Process, reg *obs.Registry, sink obs.Sink, only func(string) bool) (*services.Bus, error) {
	bus := services.NewBus(0).Observe(reg, sink)
	for _, svc := range proc.Services() {
		if only != nil && !only(svc.Name) {
			continue
		}
		var emits []services.Emit
		for _, act := range proc.Activities() {
			if act.Kind != core.KindReceive || act.Service != svc.Name || len(act.Writes) == 0 {
				continue
			}
			tag := act.Writes[0]
			emits = append(emits, services.Emit{Tag: tag, Payload: payloadFor(proc, tag)})
		}
		cfg := services.Config{Name: svc.Name, Ports: svc.Ports, Sequential: svc.SequentialPorts}
		if len(emits) > 0 {
			cfg.Handle = func(c *services.Call) ([]services.Emit, error) {
				if done, _ := c.State["emitted"].(bool); done {
					return nil, nil
				}
				c.State["emitted"] = true
				return emits, nil
			}
		}
		if err := bus.Register(cfg); err != nil {
			bus.Close()
			return nil, err
		}
	}
	return bus, nil
}

// payloadFor is a callback payload: the first branch when a decision
// reads the variable, a placeholder otherwise.
func payloadFor(proc *core.Process, variable string) any {
	for _, act := range proc.Decisions() {
		if len(act.Reads) > 0 && act.Reads[0] == variable {
			return act.BranchDomain()[0]
		}
	}
	return fmt.Sprintf("sim(%s)", variable)
}

// seedInputs gives every client-receive variable a placeholder.
func seedInputs(proc *core.Process) map[string]any {
	inputs := map[string]any{}
	for _, act := range proc.Activities() {
		if act.Kind == core.KindReceive && act.Service == "" && len(act.Writes) > 0 {
			inputs[act.Writes[0]] = fmt.Sprintf("input(%s)", act.Writes[0])
		}
	}
	return inputs
}

// overrideDecisions keeps a decision's own valid branch and otherwise
// takes the first branch of its domain.
func overrideDecisions(proc *core.Process, execs map[core.ActivityID]schedule.Executor) {
	for _, act := range proc.Decisions() {
		act := act
		inner := execs[act.ID]
		domain := act.BranchDomain()
		execs[act.ID] = func(ctx context.Context, a *core.Activity, vars *schedule.Vars) (schedule.Outcome, error) {
			if out, err := inner(ctx, a, vars); err == nil {
				for _, d := range domain {
					if d == out.Branch {
						return out, nil
					}
				}
			}
			return schedule.Outcome{Branch: domain[0]}, nil
		}
	}
}
