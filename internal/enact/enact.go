// Package enact executes a woven process across several scheduling
// engines — one per partition of a decentral.Plan — realizing the
// paper's §5 decentralized-execution connection as a running system
// rather than a static analysis. Each node owns its partition's
// activities; cross-partition HappenBefore edges become transport
// messages (Notes) carried by a pluggable Fabric: direct in-process
// dispatch by default (NewLocalFabric), HTTPTransport calls between
// dscweaverd processes. Every node's board keeps a Lamport clock, and
// the per-node note streams merge by stamp into one global trace that
// must validate against the global pre-minimization constraint set —
// the same Def. 5 check a single engine faces.
//
// Message economics are the point: a successful run sends exactly one
// note per cross-partition HappenBefore edge (a start-gating edge
// rides the start note, a finish-gating edge the finish note, a
// skipped activity one skip note covering all its edges), so the
// measured EdgeMessages equals the plan's CrossEdges — the
// decentral.Comparison prediction, now observed on live runs. Decision
// outcomes are additionally broadcast to every other node (counted
// separately as OutcomeMessages), because minimization removes edges
// whose ordering is implied while guards still need the outcomes for
// dead-path elimination.
//
// Scope: the fabric carries control-flow synchronization only. Data
// flows through services as usual; decision executors must be
// node-independent (the server layer resolves branches identically on
// every node), and each node evaluates guards against the outcomes the
// broadcasts deliver.
package enact

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
)

// PartitionedPeerError is the crisp failure shape for an unreachable
// peer: the fabric's retry budget elapsed on a note send to Host. The
// run fails with this error instead of a generic engine timeout, so an
// operator (and the chaos suite) can tell a partitioned link from a
// slow process.
type PartitionedPeerError struct {
	Host string
	Err  error
}

func (e *PartitionedPeerError) Error() string {
	return fmt.Sprintf("enact: peer %s partitioned: %v", e.Host, e.Err)
}

func (e *PartitionedPeerError) Unwrap() error { return e.Err }

// Note is one activity transition annotated with the node that
// committed it.
type Note struct {
	Host string `json:"host"`
	schedule.Note
}

// Fabric carries notes between nodes. Register binds every local
// node's receiver before any engine starts; Send routes one note to
// the engine owning host, wherever it runs.
type Fabric interface {
	Register(host string, deliver func(Note)) error
	Send(host string, n Note) error
	Close()
}

// Options configures one decentralized enactment.
type Options struct {
	// Plan assigns every activity to a host (decentral.Place output).
	// Run first co-locates exclusive-connected groups — mutexes cannot
	// straddle engines — and the normalized plan is what executes and
	// is reported in the Result.
	Plan *decentral.Plan
	// Set is the executable (minimal) activity-level constraint set.
	Set *core.ConstraintSet
	// Guards are the pre-minimization execution guards (as for a single
	// engine running a minimal set).
	Guards map[core.Node]cond.Expr
	// Execs is the global executor map; each node uses its partition's
	// subset.
	Execs map[core.ActivityID]schedule.Executor
	// Inputs seeds every node's variable store.
	Inputs map[string]any
	// Retry / RetrySeed / Workers / Timeout apply per node, as in
	// schedule.Options.
	Retry     map[core.ActivityID]schedule.RetryPolicy
	RetrySeed int64
	Workers   int
	Timeout   time.Duration
	// Metrics / Events instrument all nodes (shared registry / sink).
	Metrics *obs.Registry
	Events  obs.Sink
	// Hosts restricts this process to a subset of the plan's hosts (a
	// multi-process deployment runs Run once per process). Nil runs all
	// hosts here, and only then does Run merge and return the global
	// trace.
	Hosts []string
	// Fabric carries cross-node notes. Nil (single-process only) uses
	// NewLocalFabric. Run closes only the fabric it built.
	Fabric Fabric
}

// Stats counts the cross-node messages a run actually sent.
type Stats struct {
	// EdgeMessages are notes sent because a cross-partition constraint
	// edge is gated on them; on a successful run this equals the plan's
	// CrossEdges.
	EdgeMessages int
	// OutcomeMessages are decision outcome broadcasts to other nodes.
	OutcomeMessages int
}

// Result is one enactment's outcome.
type Result struct {
	// Trace is the merged global trace; nil for partial (Hosts ⊂ plan)
	// runs, whose notes the coordinating process merges.
	Trace *schedule.Trace
	// Notes are the transitions committed by this process's nodes.
	Notes []Note
	// Plan is the normalized plan that executed (after exclusive
	// co-location).
	Plan  *decentral.Plan
	Stats Stats
	Began time.Time
	Ended time.Time
}

// crossEdge is one outgoing cross-partition constraint edge of an
// activity: the gating source state and the host gated on it.
type crossEdge struct {
	fromState core.State
	toHost    string
}

// collector accumulates notes across node publishers.
type collector struct {
	mu    sync.Mutex
	notes []Note
}

func (c *collector) add(n Note) {
	c.mu.Lock()
	c.notes = append(c.notes, n)
	c.mu.Unlock()
}

func (c *collector) snapshot() []Note {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Note(nil), c.notes...)
}

// Run executes the plan's partitions owned by this process. With
// Hosts nil it runs every partition and merges the note streams into
// the global trace for the caller to Validate.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.Plan == nil || opts.Set == nil {
		return nil, fmt.Errorf("enact: plan and constraint set are required")
	}
	plan, err := decentral.CoLocate(opts.Set, opts.Plan)
	if err != nil {
		return nil, err
	}
	planHosts := map[string]bool{}
	for _, h := range plan.Hosts {
		planHosts[h] = true
	}
	hosts := opts.Hosts
	full := hosts == nil
	if full {
		hosts = plan.Hosts
	}
	for _, h := range hosts {
		if !planHosts[h] {
			return nil, fmt.Errorf("enact: host %s not in plan", h)
		}
	}

	fab := opts.Fabric
	if fab == nil {
		if !full {
			return nil, fmt.Errorf("enact: a partial run needs an external fabric")
		}
		fab = NewLocalFabric()
		defer fab.Close()
	}

	part := plan.Partition
	// Outgoing cross edges per activity, and the decision set for
	// outcome broadcasts. inbound counts the notes each host can
	// receive: one per cross edge into it (an edge carries exactly one
	// start, finish or skip note) and one outcome per decision placed
	// elsewhere.
	edges := map[core.ActivityID][]crossEdge{}
	inbound := map[string]int{}
	for i := 0; i < opts.Set.Len(); i++ {
		c := opts.Set.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		fh, th := part[c.From.Node.Activity], part[c.To.Node.Activity]
		if fh == th {
			continue
		}
		edges[c.From.Node.Activity] = append(edges[c.From.Node.Activity],
			crossEdge{fromState: c.From.State, toHost: th})
		inbound[th]++
	}
	isDecision := map[core.ActivityID]bool{}
	for _, a := range opts.Set.Proc.Activities() {
		if a.Kind != core.KindDecision {
			continue
		}
		isDecision[a.ID] = true
		for _, h := range plan.Hosts {
			if h != part[a.ID] {
				inbound[h]++
			}
		}
	}

	res := &Result{Plan: plan, Began: time.Now()}
	col := &collector{}
	var edgeMsgs, outcomeMsgs atomic.Int64
	var sendErrMu sync.Mutex
	var sendErr error

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	failSend := func(err error) {
		sendErrMu.Lock()
		if sendErr == nil {
			sendErr = err
		}
		sendErrMu.Unlock()
		cancel()
	}
	done := make(chan struct{})

	type node struct {
		host  string
		eng   *schedule.Engine
		err   error
		trace *schedule.Trace
	}
	nodes := make([]*node, 0, len(hosts))
	for _, h := range hosts {
		h := h
		// The engine drains remote on its own goroutine and the receiver
		// gives up at done, so the capacity only spares senders a wait:
		// every note the plan routes here fits, and a surplus one (a
		// retransmit) waits for the drainer.
		remote := make(chan schedule.Note, inbound[h]+1)
		if err := fab.Register(h, func(n Note) {
			select {
			case remote <- n.Note:
			case <-done:
			}
		}); err != nil {
			close(done)
			return nil, fmt.Errorf("enact: register %s: %w", h, err)
		}
		var others []string
		for _, oh := range plan.Hosts {
			if oh != h {
				others = append(others, oh)
			}
		}
		publish := func(n schedule.Note) {
			hn := Note{Host: h, Note: n}
			col.add(hn)
			for _, e := range edges[n.Activity] {
				var send bool
				switch n.Kind {
				case schedule.NoteSkip:
					send = true
				case schedule.NoteStart:
					send = e.fromState != core.Finish
				case schedule.NoteFinish:
					send = e.fromState == core.Finish
				}
				if !send {
					continue
				}
				edgeMsgs.Add(1)
				if err := fab.Send(e.toHost, hn); err != nil {
					failSend(fmt.Errorf("enact: %s → %s: %w", h, e.toHost, err))
					return
				}
			}
			if isDecision[n.Activity] && n.Kind != schedule.NoteStart {
				for _, oh := range others {
					outcomeMsgs.Add(1)
					if err := fab.Send(oh, hn); err != nil {
						failSend(fmt.Errorf("enact: %s → %s: %w", h, oh, err))
						return
					}
				}
			}
		}
		eng, err := schedule.New(opts.Set, opts.Execs, schedule.Options{
			Timeout:   opts.Timeout,
			Guards:    opts.Guards,
			Inputs:    opts.Inputs,
			Retry:     opts.Retry,
			RetrySeed: opts.RetrySeed,
			Workers:   opts.Workers,
			Metrics:   opts.Metrics,
			Events:    opts.Events,
			Owned:     func(id core.ActivityID) bool { return part[id] == h },
			Publish:   publish,
			Remote:    remote,
		})
		if err != nil {
			close(done)
			return nil, fmt.Errorf("enact: node %s: %w", h, err)
		}
		nodes = append(nodes, &node{host: h, eng: eng})
	}

	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *node) {
			defer wg.Done()
			nd.trace, nd.err = nd.eng.Run(runCtx)
			if nd.err != nil {
				cancel() // first failing node aborts the others promptly
			}
		}(nd)
	}
	wg.Wait()
	close(done)

	res.Ended = time.Now()
	res.Notes = col.snapshot()
	res.Stats = Stats{
		EdgeMessages:    int(edgeMsgs.Load()),
		OutcomeMessages: int(outcomeMsgs.Load()),
	}
	// A failed send cancels the run context, so every node "fails" with
	// a canceled engine — the send error is the cause and must win, or
	// a partitioned peer would surface as a generic cancellation.
	sendErrMu.Lock()
	serr := sendErr
	sendErrMu.Unlock()
	if serr != nil {
		var ppe *PartitionedPeerError
		if errors.As(serr, &ppe) {
			if opts.Metrics != nil {
				opts.Metrics.Counter("enact_partition_total", "host", ppe.Host).Inc()
			}
			if opts.Events != nil {
				opts.Events.Emit(obs.Stamp(obs.Event{
					Kind: obs.EvPartition, Layer: obs.LayerTransport,
					Service: ppe.Host, Err: ppe.Err.Error(),
				}))
			}
		}
		return res, serr
	}
	for _, nd := range nodes {
		if nd.err != nil {
			return res, fmt.Errorf("enact: node %s: %w", nd.host, nd.err)
		}
	}
	if full {
		tr, err := Merge(opts.Set.Proc, res.Began, res.Ended, res.Notes)
		if err != nil {
			return res, err
		}
		res.Trace = tr
	}
	return res, nil
}

// localFabric is the in-process fabric: notes pass by value, with no
// serialization, straight to the target host's receiver.
type localFabric struct {
	mu   sync.Mutex
	recv map[string]func(Note)
}

// NewLocalFabric returns the in-process fabric. Send calls the target
// host's registered receiver inline, as HTTPTransport.Deliver does on
// a peer, so a note has landed when Send returns.
func NewLocalFabric() Fabric {
	return &localFabric{recv: map[string]func(Note){}}
}

func (f *localFabric) Register(host string, deliver func(Note)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.recv[host]; dup {
		return fmt.Errorf("enact: host %s registered twice", host)
	}
	f.recv[host] = deliver
	return nil
}

func (f *localFabric) Send(host string, n Note) error {
	f.mu.Lock()
	deliver := f.recv[host]
	f.mu.Unlock()
	if deliver == nil {
		return fmt.Errorf("enact: no receiver for host %s", host)
	}
	deliver(n)
	return nil
}

func (f *localFabric) Close() {}

// Merge orders all nodes' notes by (Lamport stamp, host, node seq) —
// causally ordered transitions always carry strictly increasing
// stamps, so ties are concurrent and any deterministic tiebreak is a
// valid serialization — and rebuilds the global trace with fresh
// global sequence numbers. Incomplete activities (a lost note, a
// partial collection) are an error.
func Merge(proc *core.Process, began, ended time.Time, notes []Note) (*schedule.Trace, error) {
	sorted := append([]Note(nil), notes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Stamp != b.Stamp {
			return a.Stamp < b.Stamp
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.Seq < b.Seq
	})
	recs := map[core.ActivityID]*schedule.Record{}
	var order []core.ActivityID
	running, maxPar, seq := 0, 0, 0
	for _, n := range sorted {
		seq++
		r := recs[n.Activity]
		if r == nil {
			r = &schedule.Record{Activity: n.Activity}
			recs[n.Activity] = r
			order = append(order, n.Activity)
		}
		switch n.Kind {
		case schedule.NoteStart:
			if r.StartSeq == 0 {
				r.StartSeq = seq
				r.StartAt = n.At
				running++
				if running > maxPar {
					maxPar = running
				}
			}
		case schedule.NoteFinish:
			if r.FinishSeq == 0 {
				r.FinishSeq = seq
				r.FinishAt = n.At
				r.Branch = n.Branch
				running--
			}
		case schedule.NoteSkip:
			r.Skipped = true
			r.StartSeq, r.FinishSeq = seq, seq
		}
	}
	list := make([]schedule.Record, 0, len(order))
	for _, id := range order {
		list = append(list, *recs[id])
	}
	for _, a := range proc.Activities() {
		r := recs[a.ID]
		if r == nil {
			return nil, fmt.Errorf("enact: merge: no transitions for %s", a.ID)
		}
		if !r.Skipped && (r.StartSeq == 0 || r.FinishSeq == 0) {
			return nil, fmt.Errorf("enact: merge: incomplete transitions for %s", a.ID)
		}
	}
	return schedule.NewTraceFromRecords(proc.Name, began, ended, maxPar, list)
}
