// POST /v1/enact: decentralized execution as a service — the §5
// Nanda-connection analysis (internal/decentral) made operational.
// The server weaves the request, partitions the minimal set across
// hosts (interaction activities pinned to their service hosts), and
// runs one scheduling engine per partition via internal/enact.
//
// Two deployment shapes share the handler:
//
//   - In-process (no peers): every partition runs inside this server
//     over the in-process note fabric — the cheap way to observe the
//     decentral.Comparison message counts on a live run.
//   - Multi-process (peers given): this server becomes the
//     coordinator. It ships each peer an explicit partition slice via
//     POST /v1/enact/join; every process executes its hosts over the
//     HTTP transport (frames correlated by run id on POST
//     /v1/transport/invoke), returns its note stream, and the
//     coordinator merges all streams by Lamport stamp into the global
//     trace — which must pass the same Def. 5 validation as a
//     single-engine run.
//
// Simulated services are partitioned too: each process's bus hosts
// only the services whose first interaction activity its partition
// owns, so a misrouted invoke fails loudly instead of silently
// running on the wrong node.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/enact"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/services"
	"dscweaver/internal/weave"
)

// maxEnactPeers caps the fan-out of one coordinated enactment.
const maxEnactPeers = 16

// EnactRequest is the body of POST /v1/enact: a simulate request plus
// the decentralization shape.
type EnactRequest struct {
	SimulateRequest
	// Nodes caps the partition at this many hosts: beyond the cap,
	// hosts fold into the coordinator partition (0 = the natural
	// placement, one host per service plus the coordinator).
	Nodes int `json:"nodes,omitempty"`
	// Peers lists base URLs of other dscweaverd processes to spread the
	// partitions across. Empty runs every partition in this process.
	Peers []string `json:"peers,omitempty"`
	// SelfURL is this server's base URL as peers reach it; defaults to
	// the request's Host header.
	SelfURL string `json:"self_url,omitempty"`
}

func (q *EnactRequest) validate() error {
	if err := q.SimulateRequest.validate(); err != nil {
		return err
	}
	if q.Nodes < 0 {
		return fmt.Errorf("nodes %d must be >= 0", q.Nodes)
	}
	if len(q.Peers) > maxEnactPeers {
		return fmt.Errorf("%d peers exceeds the cap of %d", len(q.Peers), maxEnactPeers)
	}
	// Membership errors must fail here: past admission a scheme-less
	// URL retries as a transient fault until the fabric budget runs out,
	// and a repeated member collides with its own live enactment.
	if q.SelfURL != "" && !isBaseURL(q.SelfURL) {
		return fmt.Errorf("self_url %q is not an http(s) base URL", q.SelfURL)
	}
	seen := map[string]bool{}
	for _, p := range q.Peers {
		switch {
		case !isBaseURL(p):
			return fmt.Errorf("peer %q is not an http(s) base URL", p)
		case p == q.SelfURL:
			return fmt.Errorf("peer %q is self_url: the coordinator is a member already", p)
		case seen[p]:
			return fmt.Errorf("peer %q is listed twice", p)
		}
		seen[p] = true
	}
	return nil
}

func isBaseURL(u string) bool {
	return strings.HasPrefix(u, "http://") || strings.HasPrefix(u, "https://")
}

// EnactJoinRequest is what the coordinator ships each peer: the same
// weave inputs (the peer re-weaves deterministically) plus the
// explicit, already-normalized partition and the host→URL ownership
// map for routing notes.
type EnactJoinRequest struct {
	SimulateRequest
	// RunID correlates every transport frame of this enactment.
	RunID string `json:"run_id"`
	// Hosts is the partition subset this peer executes.
	Hosts []string `json:"hosts"`
	// Partition maps every activity to its host — shipped explicitly so
	// peers execute exactly the coordinator's placement.
	Partition map[string]string `json:"partition"`
	// Owners maps every host to the base URL of the process running it.
	Owners map[string]string `json:"owners"`
}

func (q *EnactJoinRequest) validate() error {
	if err := q.SimulateRequest.validate(); err != nil {
		return err
	}
	switch {
	case q.RunID == "":
		return errors.New("missing run_id")
	case len(q.Hosts) == 0:
		return errors.New("empty host subset")
	case len(q.Partition) == 0:
		return errors.New("empty partition")
	}
	return nil
}

// EnactJoinResponse carries one peer's contribution back to the
// coordinator.
type EnactJoinResponse struct {
	Notes           []enact.Note `json:"notes"`
	EdgeMessages    int          `json:"edge_messages"`
	OutcomeMessages int          `json:"outcome_messages"`
}

// EnactResponse is the body of POST /v1/enact. Like simulate, a run
// that fails still answers 200 with Error set — the trace and note
// streams are the diagnostic artifacts.
type EnactResponse struct {
	RunID     string            `json:"run_id"`
	Process   string            `json:"process"`
	Hosts     []string          `json:"hosts"`
	Partition map[string]string `json:"partition"`

	Executed    []string `json:"executed,omitempty"`
	Skipped     []string `json:"skipped,omitempty"`
	MaxParallel int      `json:"max_parallel"`
	MakespanNS  int64    `json:"makespan_ns"`
	// Valid reports the *merged* trace validating against the full
	// pre-minimization constraint set — Def. 5 checked on the
	// decentralized execution.
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`

	// EdgeMessages / OutcomeMessages are the cross-node messages the
	// run actually sent, summed over all processes. On a successful run
	// EdgeMessages equals PredictedCrossEdges — the decentral.Comparison
	// number observed live.
	EdgeMessages        int `json:"edge_messages"`
	OutcomeMessages     int `json:"outcome_messages"`
	PredictedCrossEdges int `json:"predicted_cross_edges"`
	// MessageSavings is the static analysis headline: cross-host
	// messages the minimal set avoids versus the unoptimized set under
	// the same (unfolded) pinning.
	MessageSavings int `json:"message_savings"`

	Trace json.RawMessage `json:"trace,omitempty"`
}

// enactTransport registry: POST /v1/transport/invoke resolves frames
// to the live enactment they belong to by run id.

// framePark bounds how long POST /v1/transport/invoke holds a frame
// whose run, or whose receiver within the run, has not registered on
// this server yet. A peer's first notes routinely outrun the join that
// registers their run here; parking them turns that race into a
// rendezvous instead of a 404 and a sender backoff. Past the bound the
// frame is refused as before and the sender's retry budget takes over.
const framePark = time.Second

// parkedRun is the rendezvous for frames naming one unregistered run:
// releaseParked closes ready. Only the registry lock touches waiters,
// and the last waiter to give up deletes the entry, so none outlives
// its requests.
type parkedRun struct {
	ready   chan struct{}
	waiters int
}

func (s *Server) registerEnactTransport(id string, t *services.HTTPTransport) error {
	s.enactMu.Lock()
	defer s.enactMu.Unlock()
	if _, dup := s.enactTransports[id]; dup {
		return fmt.Errorf("enactment %q already live on this server", id)
	}
	s.enactTransports[id] = t
	delete(s.enactDone, id)
	s.releaseParked(id)
	return nil
}

// releaseParked wakes every frame parked on run id. Callers hold
// enactMu.
func (s *Server) releaseParked(id string) {
	if p := s.enactParked[id]; p != nil {
		close(p.ready)
		delete(s.enactParked, id)
	}
}

// awaitEnactTransport resolves a frame's run: the live transport, or
// finished for a tombstoned run. A run that is neither parks the
// caller until the run registers or is abandoned here, or until ctx
// ends, and then resolves it once more.
func (s *Server) awaitEnactTransport(ctx context.Context, id string) (t *services.HTTPTransport, finished bool) {
	s.enactMu.Lock()
	t = s.enactTransports[id]
	_, finished = s.enactDone[id]
	if t != nil || finished {
		s.enactMu.Unlock()
		return t, finished
	}
	p := s.enactParked[id]
	if p == nil {
		p = &parkedRun{ready: make(chan struct{})}
		s.enactParked[id] = p
	}
	p.waiters++
	s.enactMu.Unlock()
	s.reg.Counter("transport_invoke_parked_total", "reason", "no_run").Inc()

	select {
	case <-p.ready:
	case <-ctx.Done():
	}

	s.enactMu.Lock()
	defer s.enactMu.Unlock()
	if p.waiters--; p.waiters == 0 && s.enactParked[id] == p {
		delete(s.enactParked, id)
	}
	t = s.enactTransports[id]
	_, finished = s.enactDone[id]
	return t, finished
}

// enactDoneTTL bounds how long a finished enactment keeps
// acknowledging late frames; senders racing a partition's completion
// resolve within their retry budget, far inside this window.
const enactDoneTTL = 5 * time.Minute

// dropEnactTransport retires a finished enactment, leaving a
// tombstone: a peer may still have frames for this run in flight, and
// those must be acknowledged, not 404ed into retry loops. Expired
// tombstones are swept by the server's maintenance ticker — not here,
// where a coordinator that stops enacting would hold them forever.
func (s *Server) dropEnactTransport(id string) {
	s.enactMu.Lock()
	delete(s.enactTransports, id)
	s.enactDone[id] = time.Now()
	s.enactMu.Unlock()
}

// abandonEnactJoin retires the run of a join request that failed —
// shed at admission, or a weave or plan error before it registered
// here — and ignores every other request. It leaves the tombstone a
// finished run leaves and wakes the frames parked on the run, which
// are then acknowledged: the coordinator fails the run on the join's
// error, so its notes to this peer are moot, and an acknowledgement
// releases its senders at once instead of after the park bound and a
// retry budget. A run live under the same id (a duplicate join) is
// left alone.
func (s *Server) abandonEnactJoin(q any) {
	j, ok := q.(*EnactJoinRequest)
	if !ok {
		return
	}
	s.enactMu.Lock()
	defer s.enactMu.Unlock()
	if _, live := s.enactTransports[j.RunID]; live {
		return
	}
	s.enactDone[j.RunID] = time.Now()
	s.releaseParked(j.RunID)
}

// sweepEnactDone drops tombstones older than the TTL. Called from the
// maintenance ticker.
func (s *Server) sweepEnactDone(now time.Time) {
	s.enactMu.Lock()
	for k, at := range s.enactDone {
		if now.Sub(at) > s.enactTTL {
			delete(s.enactDone, k)
		}
	}
	s.enactMu.Unlock()
}

// handleTransportInvoke is the shared frame endpoint for every live
// enactment on this server. A frame may arrive before its run or its
// receiver has registered here: a peer's first notes race the join
// that registers them. Such a frame parks, counted in
// transport_invoke_parked_total by reason, until the registration
// happens (then it is delivered) or framePark passes. Only then is it
// refused with 404 — the sender's transient classification, so its
// retry budget is the fallback — and counted in
// transport_invoke_refused_total, by reason: no_run (no transport
// registered for the run) or no_receiver (the run's transport has no
// receiver for the frame's service). A frame for a finished run is
// acknowledged.
func (s *Server) handleTransportInvoke(w http.ResponseWriter, r *http.Request) {
	var f services.Frame
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&f); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode frame: %w", err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), framePark)
	defer cancel()
	t, finished := s.awaitEnactTransport(ctx, f.Run)
	if t == nil {
		if finished {
			// The run completed here and every local engine returned, so
			// any note still in flight is redundant: acknowledge it. This
			// unblocks a sender racing this partition's completion — e.g.
			// a decision outcome broadcast arriving after the receiving
			// partition already finished.
			writeJSON(w, http.StatusOK, services.DeliverResult{})
			return
		}
		s.reg.Counter("transport_invoke_refused_total", "reason", "no_run").Inc()
		writeError(w, http.StatusNotFound, fmt.Errorf("no live enactment for run %q", f.Run))
		return
	}
	res, err := t.Deliver(f)
	if errors.Is(err, services.ErrUnknownService) {
		// The run is live but enact.Run has not registered this node's
		// receiver yet.
		s.reg.Counter("transport_invoke_parked_total", "reason", "no_receiver").Inc()
		if t.WaitLocal(ctx, f.Service) {
			res, err = t.Deliver(f)
		}
	}
	switch {
	case errors.Is(err, services.ErrRunMismatch):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		s.reg.Counter("transport_invoke_refused_total", "reason", "no_receiver").Inc()
		writeError(w, http.StatusNotFound, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// fabricRetry tunes note sends: many attempts with short backoff to
// ride out network faults and a peer that refuses a frame after its
// park bound, but the total budget stays below the engine timeout so
// an unreachable peer fails the send — and with it the run, crisply —
// instead of pinning the publishing engine goroutine past the
// deadline.
func fabricRetry(timeout time.Duration) services.HTTPRetry {
	return services.HTTPRetry{
		MaxAttempts: 60,
		Backoff:     10 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		MaxElapsed:  timeout * 3 / 4,
	}
}

// httpFabric carries enactment notes over an HTTPTransport: each host
// is the service "node:<host>", local hosts registered on the
// transport, remote hosts routed to their owner's invoke endpoint.
// Sends are synchronous Calls — a note must land (or exhaust retries
// and fail the run); breakers do not apply.
type httpFabric struct {
	t *services.HTTPTransport
}

func (f *httpFabric) Register(host string, deliver func(enact.Note)) error {
	return f.t.RegisterLocal("node:"+host, func(c *services.Call) ([]services.Emit, error) {
		n, err := decodeNote(c.Payload)
		if err != nil {
			return nil, services.Permanent(fmt.Errorf("node %s: %w", host, err))
		}
		deliver(n)
		return nil, nil
	})
}

func (f *httpFabric) Send(host string, n enact.Note) error {
	err := f.t.Call("node:"+host, "note", n)
	if errors.Is(err, services.ErrBudgetExhausted) {
		// The retry budget elapsed without the peer ever answering:
		// name the unreachable host instead of failing with a generic
		// timeout somewhere downstream.
		return &enact.PartitionedPeerError{Host: host, Err: err}
	}
	return err
}

// Close is a no-op: openFabric's closer owns the transport (it
// outlives the fabric — peers may retransmit frames until the run
// unregisters).
func (f *httpFabric) Close() {}

// openFabric opens this process's HTTP fabric for one enactment: a
// transport registered under runID, so POST /v1/transport/invoke
// routes the run's frames to it. The caller defers closeFabric, which
// retires the run (leaving a tombstone) and closes the transport.
func (s *Server) openFabric(runID, node string, routes map[string]string, timeout time.Duration, sink obs.Sink) (fabric *httpFabric, closeFabric func(), err error) {
	var client *http.Client // nil = the default client
	if s.cfg.FabricWrap != nil {
		client = &http.Client{Transport: s.cfg.FabricWrap(node, http.DefaultTransport)}
	}
	t := services.NewHTTPTransport(services.HTTPConfig{
		Run:     runID,
		Node:    node,
		Routes:  routes,
		Client:  client,
		Token:   s.cfg.FabricToken,
		Retry:   fabricRetry(timeout),
		Metrics: s.reg,
		Events:  sink,
	})
	if err := s.registerEnactTransport(runID, t); err != nil {
		t.Close()
		return nil, nil, err
	}
	return &httpFabric{t: t}, func() {
		s.dropEnactTransport(runID)
		t.Close()
	}, nil
}

// decodeNote rebuilds a Note from the transport's decoded-JSON
// payload.
func decodeNote(v any) (enact.Note, error) {
	var n enact.Note
	raw, err := json.Marshal(v)
	if err != nil {
		return n, fmt.Errorf("note payload: %w", err)
	}
	if err := json.Unmarshal(raw, &n); err != nil {
		return n, fmt.Errorf("note payload: %w", err)
	}
	if n.Activity == "" || n.Kind == 0 {
		return n, fmt.Errorf("note payload: missing activity or kind")
	}
	return n, nil
}

// ownedBy restricts a node's bus to the services its hosts own: each
// service lives on the host owning its first interaction activity. All
// of a service's interaction activities are pinned to one host, so
// under pinned placement this is simply that host; exotic plans that
// split a service's activities fail loudly at invoke time.
func ownedBy(proc *core.Process, part decentral.Partition, hosts []string) func(service string) bool {
	mine := map[string]bool{}
	for _, h := range hosts {
		mine[h] = true
	}
	owners := map[string]string{}
	for _, a := range proc.Activities() {
		if (a.Kind == core.KindInvoke || a.Kind == core.KindReceive) && a.Service != "" {
			if _, seen := owners[a.Service]; !seen {
				owners[a.Service] = part[a.ID]
			}
		}
	}
	return func(service string) bool { return mine[owners[service]] }
}

// enactNode bundles what one process needs to run a process or its
// partition subset: executors over a bus hosting the services it owns.
type enactNode struct {
	bus     *services.Bus
	binding *schedule.Binding
	execs   map[core.ActivityID]schedule.Executor
	inputs  map[string]any
}

// buildEnactNode builds the node for simulate (only == nil: every
// declared service) and for each enactment process (only = ownedBy).
func (s *Server) buildEnactNode(q *SimulateRequest, proc *core.Process, only func(string) bool, sink obs.Sink) (*enactNode, error) {
	latency := time.Duration(q.LatencyUS) * time.Microsecond
	bus, err := simulatedBus(proc, q.Branches, latency, q.Services, q.Breaker, s.reg, sink, only)
	if err != nil {
		return nil, err
	}
	binding := schedule.NewBinding(bus)
	execs := binding.Executors(proc, time.Duration(q.WorkUS)*time.Microsecond)
	overrideDecisions(proc, execs, q.Branches)
	return &enactNode{
		bus:     bus,
		binding: binding,
		execs:   execs,
		inputs:  seedInputs(proc, q.Inputs),
	}, nil
}

// close tears the node down bus-first (drain accepted invocations,
// then the dispatcher's inbox loop ends).
func (n *enactNode) close() {
	n.bus.Close()
	n.binding.Close()
}

// enactOptions is the configuration the three enact.Run calls share;
// the multi-process paths add their Hosts and Fabric.
func (s *Server) enactOptions(q *SimulateRequest, out *weave.Result, plan *decentral.Plan, node *enactNode, sink obs.Sink) enact.Options {
	return enact.Options{
		Plan:    plan,
		Set:     out.Minimize.Minimal,
		Guards:  out.Guards,
		Execs:   node.execs,
		Inputs:  node.inputs,
		Timeout: q.timeout(),
		Metrics: s.reg,
		Events:  sink,
	}
}

// planEnactment weaves the request and computes the normalized
// executable plan: pinned placement, exclusive co-location, host cap.
func (s *Server) planEnactment(ctx context.Context, q *SimulateRequest, nodes int, sink obs.Sink) (*weave.Result, *decentral.Plan, error) {
	out, err := s.runWeave(ctx, &q.WeaveRequest, sink, false)
	if err != nil {
		return nil, nil, err
	}
	minimal := out.Minimize.Minimal
	plan, err := decentral.Place(minimal, decentral.Pin(out.Parsed.Proc))
	if err != nil {
		return nil, nil, err
	}
	if plan, err = decentral.CoLocate(minimal, plan); err != nil {
		return nil, nil, err
	}
	if plan, err = decentral.Fold(minimal, plan, nodes); err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// runEnactment coordinates one enactment end to end.
func (s *Server) runEnactment(ctx context.Context, q *EnactRequest, rn *run, sink obs.Sink, r *http.Request) (*EnactResponse, error) {
	out, plan, err := s.planEnactment(ctx, &q.SimulateRequest, q.Nodes, sink)
	if err != nil {
		return nil, err
	}
	proc := out.Parsed.Proc
	rn.setProcess(proc.Name)

	resp := &EnactResponse{
		RunID:               rn.Summary().ID,
		Process:             proc.Name,
		Hosts:               plan.Hosts,
		Partition:           partitionJSON(plan.Partition),
		PredictedCrossEdges: plan.CrossEdges,
	}
	// The static headline under the same (unfolded) pinning: how many
	// cross-host messages minimization saves.
	if cmp, cerr := decentral.Compare(out.Translated, out.Minimize.Minimal, decentral.Pin(proc)); cerr == nil {
		resp.MessageSavings = cmp.MessageSavings()
	}

	if len(q.Peers) == 0 {
		err = s.enactLocal(ctx, q, out, plan, sink, resp)
	} else {
		err = s.enactCoordinated(ctx, q, out, plan, sink, resp, r)
	}
	if err != nil {
		resp.Error = err.Error()
	}
	return resp, nil
}

// enactLocal runs every partition inside this process over the
// in-process note fabric.
func (s *Server) enactLocal(ctx context.Context, q *EnactRequest, out *weave.Result, plan *decentral.Plan, sink obs.Sink, resp *EnactResponse) error {
	proc := out.Parsed.Proc
	node, err := s.buildEnactNode(&q.SimulateRequest, proc, ownedBy(proc, plan.Partition, plan.Hosts), sink)
	if err != nil {
		return err
	}
	defer node.close()

	eout, runErr := enact.Run(ctx, s.enactOptions(&q.SimulateRequest, out, plan, node, sink))
	if eout != nil {
		resp.EdgeMessages = eout.Stats.EdgeMessages
		resp.OutcomeMessages = eout.Stats.OutcomeMessages
	}
	if runErr != nil {
		return runErr
	}
	return finishEnactResponse(resp, out, eout.Trace)
}

// enactCoordinated spreads the partitions across this process and the
// peers, round-robin, and merges every process's note stream.
func (s *Server) enactCoordinated(ctx context.Context, q *EnactRequest, out *weave.Result, plan *decentral.Plan, sink obs.Sink, resp *EnactResponse, r *http.Request) error {
	self := q.SelfURL
	if self == "" {
		self = "http://" + r.Host
	}
	members := append([]string{self}, q.Peers...)
	memberHosts := make([][]string, len(members))
	owners := map[string]string{}
	for i, h := range plan.Hosts {
		m := i % len(members)
		memberHosts[m] = append(memberHosts[m], h)
		owners[h] = members[m]
	}
	myHosts := memberHosts[0]

	// A collision-proof frame correlation id: the run id alone repeats
	// across server restarts and across coordinators.
	suffix := make([]byte, 4)
	if _, err := rand.Read(suffix); err != nil {
		return fmt.Errorf("run id: %w", err)
	}
	runID := resp.RunID + "-" + hex.EncodeToString(suffix)

	routes := map[string]string{}
	for h, url := range owners {
		if url != self {
			routes["node:"+h] = url
		}
	}
	fabric, closeFabric, err := s.openFabric(runID, "coord:"+myHosts[0], routes, q.timeout(), sink)
	if err != nil {
		return err
	}
	defer closeFabric()

	proc := out.Parsed.Proc
	node, err := s.buildEnactNode(&q.SimulateRequest, proc, ownedBy(proc, plan.Partition, myHosts), sink)
	if err != nil {
		return err
	}
	defer node.close()

	// Ship joins concurrently; the first peer failure aborts the local
	// engines (which would otherwise wait on notes that never come).
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	join := EnactJoinRequest{
		SimulateRequest: q.SimulateRequest,
		RunID:           runID,
		Partition:       partitionJSON(plan.Partition),
		Owners:          owners,
	}
	peerResults := make([]*EnactJoinResponse, len(q.Peers))
	peerErrs := make([]error, len(q.Peers))
	var wg sync.WaitGroup
	for i := range q.Peers {
		hosts := memberHosts[i+1]
		if len(hosts) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, url string, hosts []string) {
			defer wg.Done()
			jq := join
			jq.Hosts = hosts
			jr, err := s.postEnactJoin(runCtx, url, &jq)
			if err != nil {
				peerErrs[i] = fmt.Errorf("peer %s: %w", url, err)
				cancelRun()
				return
			}
			peerResults[i] = jr
		}(i, q.Peers[i], hosts)
	}

	opts := s.enactOptions(&q.SimulateRequest, out, plan, node, sink)
	opts.Hosts, opts.Fabric = myHosts, fabric
	eout, runErr := enact.Run(runCtx, opts)
	wg.Wait()

	notes := []enact.Note{}
	if eout != nil {
		resp.EdgeMessages = eout.Stats.EdgeMessages
		resp.OutcomeMessages = eout.Stats.OutcomeMessages
		notes = append(notes, eout.Notes...)
	}
	for _, jr := range peerResults {
		if jr == nil {
			continue
		}
		resp.EdgeMessages += jr.EdgeMessages
		resp.OutcomeMessages += jr.OutcomeMessages
		notes = append(notes, jr.Notes...)
	}
	var errs []error
	if runErr != nil {
		errs = append(errs, runErr)
	}
	for _, perr := range peerErrs {
		if perr != nil {
			errs = append(errs, perr)
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	merged, err := enact.Merge(proc, eout.Began, time.Now(), notes)
	if err != nil {
		return err
	}
	return finishEnactResponse(resp, out, merged)
}

// finishEnactResponse validates the merged trace against the global
// pre-minimization set and fills the execution fields.
func finishEnactResponse(resp *EnactResponse, out *weave.Result, tr *schedule.Trace) error {
	resp.Executed, resp.Skipped, resp.MaxParallel, resp.MakespanNS, resp.Trace = renderTrace(tr)
	if err := tr.Validate(out.Translated, out.Guards); err != nil {
		return fmt.Errorf("trace validation: %w", err)
	}
	resp.Valid = true
	return nil
}

func partitionJSON(part decentral.Partition) map[string]string {
	out := make(map[string]string, len(part))
	for id, h := range part {
		out[string(id)] = h
	}
	return out
}

// postEnactJoin ships one peer its slice and waits for its notes.
func (s *Server) postEnactJoin(ctx context.Context, baseURL string, q *EnactJoinRequest) (*EnactJoinResponse, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/enact/join", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s.cfg.FabricToken != "" {
		req.Header.Set("Authorization", "Bearer "+s.cfg.FabricToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("join: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var jr EnactJoinResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		return nil, fmt.Errorf("join response: %w", err)
	}
	return &jr, nil
}

// runEnactJoin executes one shipped partition slice. The peer
// re-weaves the same request (deterministic — same minimal set, same
// guards) and runs exactly the coordinator's partition over the HTTP
// fabric. Errors answer non-200; the coordinator folds them into its
// in-band Error.
func (s *Server) runEnactJoin(ctx context.Context, q *EnactJoinRequest, rn *run, sink obs.Sink, _ *http.Request) (*EnactJoinResponse, error) {
	out, err := s.runWeave(ctx, &q.WeaveRequest, sink, false)
	if err != nil {
		return nil, err
	}
	proc := out.Parsed.Proc
	rn.setProcess(proc.Name)

	part := decentral.Partition{}
	for id, h := range q.Partition {
		part[core.ActivityID(id)] = h
	}
	plan, err := decentral.PlanFor(out.Minimize.Minimal, part)
	if err != nil {
		return nil, err
	}

	routes := map[string]string{}
	mine := map[string]bool{}
	for _, h := range q.Hosts {
		mine[h] = true
	}
	for _, h := range plan.Hosts {
		if mine[h] {
			continue
		}
		url := q.Owners[h]
		if url == "" {
			return nil, fmt.Errorf("host %q has no owner URL", h)
		}
		routes["node:"+h] = url
	}
	fabric, closeFabric, err := s.openFabric(q.RunID, "join:"+q.Hosts[0], routes, q.timeout(), sink)
	if err != nil {
		return nil, err
	}
	defer closeFabric()

	node, err := s.buildEnactNode(&q.SimulateRequest, proc, ownedBy(proc, plan.Partition, q.Hosts), sink)
	if err != nil {
		return nil, err
	}
	defer node.close()

	opts := s.enactOptions(&q.SimulateRequest, out, plan, node, sink)
	opts.Hosts, opts.Fabric = q.Hosts, fabric
	eout, runErr := enact.Run(ctx, opts)
	if runErr != nil {
		return nil, runErr
	}
	return &EnactJoinResponse{
		Notes:           eout.Notes,
		EdgeMessages:    eout.Stats.EdgeMessages,
		OutcomeMessages: eout.Stats.OutcomeMessages,
	}, nil
}
