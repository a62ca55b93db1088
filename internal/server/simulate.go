package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/services"
)

// SimulateRequest is the body of POST /v1/simulate: a weave request
// plus execution inputs. The server weaves the source, registers a
// simulated service per declared service, and executes the minimal
// constraint set on the scheduling engine against them.
type SimulateRequest struct {
	WeaveRequest
	// Inputs seeds the variable store (client receives read from it).
	// Missing client-receive variables are auto-seeded with
	// placeholders so a bare document simulates out of the box.
	Inputs map[string]any `json:"inputs,omitempty"`
	// Branches forces decision outcomes by decision id; unforced
	// decisions take the branch carried by their predicate variable,
	// falling back to the first branch of their domain.
	Branches map[string]string `json:"branches,omitempty"`
	// LatencyUS is the simulated per-invocation service latency in
	// microseconds; WorkUS the per-activity local computation time.
	LatencyUS int `json:"latency_us,omitempty"`
	WorkUS    int `json:"work_us,omitempty"`
	// TimeoutMS bounds the engine run (default 10s, capped by the
	// server's request timeout either way).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Services overrides individual simulated services, keyed by the
	// service name declared in the source. Unknown names are errors.
	Services map[string]ServiceProfile `json:"services,omitempty"`
	// Breaker arms the bus's per-port circuit breaker for the run, so a
	// simulated fault storm exercises trip/fast-fail behavior end to
	// end (breaker transitions land in the run's event log).
	Breaker *BreakerProfile `json:"breaker,omitempty"`
}

// BreakerProfile configures the per-port circuit breaker applied to
// every simulated service's bus for one run.
type BreakerProfile struct {
	// Threshold is the consecutive-fault count that opens a port's
	// breaker (0 takes the services default).
	Threshold int `json:"threshold,omitempty"`
	// CooldownMS is how long an open breaker waits before admitting a
	// half-open probe (0 takes the services default).
	CooldownMS int `json:"cooldown_ms,omitempty"`
}

func (b *BreakerProfile) validate() error {
	if b.Threshold < 0 {
		return errors.New("breaker: negative threshold")
	}
	if b.CooldownMS < 0 {
		return errors.New("breaker: negative cooldown_ms")
	}
	return nil
}

// ServiceProfile tunes one simulated service, mirroring the latency
// and fault-injection knobs of services.Config.
type ServiceProfile struct {
	// LatencyUS overrides the request-level latency for this service.
	LatencyUS int `json:"latency_us,omitempty"`
	// PortLatencyUS overrides the latency for specific ports.
	PortLatencyUS map[string]int `json:"port_latency_us,omitempty"`
	// FailOn makes every invocation of a port fail with the given
	// message — the paper's §3.2 "exception raised by the service"
	// scenario.
	FailOn map[string]string `json:"fail_on,omitempty"`
	// FailFirst makes the first k invocations of a port fail with a
	// transient fault, exercising the engine's retry path.
	FailFirst map[string]int `json:"fail_first,omitempty"`
}

func (p *ServiceProfile) validate(name string) error {
	if p.LatencyUS < 0 {
		return fmt.Errorf("service %q: negative latency", name)
	}
	for port, us := range p.PortLatencyUS {
		if us < 0 {
			return fmt.Errorf("service %q port %q: negative latency", name, port)
		}
	}
	for port, k := range p.FailFirst {
		if k < 0 {
			return fmt.Errorf("service %q port %q: negative fail_first", name, port)
		}
	}
	return nil
}

// apply folds the profile into a service's bus configuration.
func (p *ServiceProfile) apply(cfg *services.Config) {
	if p.LatencyUS > 0 {
		cfg.Latency = time.Duration(p.LatencyUS) * time.Microsecond
	}
	if len(p.PortLatencyUS) > 0 {
		cfg.PortLatency = map[string]time.Duration{}
		for port, us := range p.PortLatencyUS {
			cfg.PortLatency[port] = time.Duration(us) * time.Microsecond
		}
	}
	if len(p.FailOn) > 0 {
		cfg.FailOn = map[string]error{}
		for port, msg := range p.FailOn {
			cfg.FailOn[port] = errors.New(msg)
		}
	}
	if len(p.FailFirst) > 0 {
		cfg.FailFirst = map[string]int{}
		for port, k := range p.FailFirst {
			cfg.FailFirst[port] = k
		}
	}
}

func (q *SimulateRequest) validate() error {
	if err := q.WeaveRequest.validate(); err != nil {
		return err
	}
	if q.LatencyUS < 0 || q.WorkUS < 0 || q.TimeoutMS < 0 {
		return fmt.Errorf("negative duration")
	}
	for name, prof := range q.Services {
		if err := prof.validate(name); err != nil {
			return err
		}
	}
	if q.Breaker != nil {
		if err := q.Breaker.validate(); err != nil {
			return err
		}
	}
	return nil
}

// SimulateResponse is the body of POST /v1/simulate. A run that fails
// (fault, timeout, unsound set deadlocking) still returns 200 with
// Error set and the partial trace: the event log and trace are the
// diagnostic artifacts.
type SimulateResponse struct {
	RunID       string   `json:"run_id"`
	Process     string   `json:"process"`
	Executed    []string `json:"executed"`
	Skipped     []string `json:"skipped,omitempty"`
	MaxParallel int      `json:"max_parallel"`
	MakespanNS  int64    `json:"makespan_ns"`
	// Valid reports the trace validating against the full
	// pre-minimization constraint set — the runtime face of Def. 5
	// equivalence.
	Valid bool   `json:"valid"`
	Error string `json:"error,omitempty"`
	// Trace is the full serialized trace (schedule.TraceJSON).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// simulatedBus registers one generic simulated service per service
// declared in the process: each emits the callbacks the process's
// receive activities listen for (tag = the variable the receive
// writes). A callback variable read by a decision carries that
// decision's resolved branch so the control flow downstream matches
// the forced outcome; other callbacks carry placeholder payloads.
// Sequential services keep their in-order port verification, so a
// wrongly minimized set fails the conversation exactly like the
// paper's state-aware Purchase service.
//
// only, when non-nil, restricts which declared services register —
// the decentralized enactment path gives each process a bus hosting
// just the services its partition owns, so a misplaced invoke fails
// loudly ("unknown service") instead of running against a service
// another node owns.
func simulatedBus(proc *core.Process, branches map[string]string, latency time.Duration, profiles map[string]ServiceProfile, breaker *BreakerProfile, reg *obs.Registry, sink obs.Sink, only func(string) bool) (*services.Bus, error) {
	for name, prof := range profiles {
		svc, ok := proc.Service(name)
		if !ok {
			return nil, fmt.Errorf("service profile %q: no such service in process %s", name, proc.Name)
		}
		ports := map[string]bool{}
		for _, p := range svc.Ports {
			ports[p] = true
		}
		check := func(port string) error {
			if !ports[port] {
				return fmt.Errorf("service profile %q: no such port %q", name, port)
			}
			return nil
		}
		for port := range prof.PortLatencyUS {
			if err := check(port); err != nil {
				return nil, err
			}
		}
		for port := range prof.FailOn {
			if err := check(port); err != nil {
				return nil, err
			}
		}
		for port := range prof.FailFirst {
			if err := check(port); err != nil {
				return nil, err
			}
		}
	}
	bus := services.NewBus(0).Observe(reg, sink)
	if breaker != nil {
		bus = bus.WithBreaker(services.BreakerConfig{
			Threshold: breaker.Threshold,
			Cooldown:  time.Duration(breaker.CooldownMS) * time.Millisecond,
		})
	}
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
			emits = append(emits, services.Emit{Tag: tag, Payload: payloadFor(proc, tag, branches)})
		}
		cfg := services.Config{
			Name:       svc.Name,
			Ports:      svc.Ports,
			Sequential: svc.SequentialPorts,
			Latency:    latency,
		}
		if prof, ok := profiles[svc.Name]; ok {
			prof.apply(&cfg)
		}
		if len(emits) > 0 {
			cfg.Handle = func(c *services.Call) ([]services.Emit, error) {
				// Emit each reply once per conversation, on the first
				// invocation that reaches the handler.
				if done, _ := c.State["emitted"].(bool); done {
					return nil, nil
				}
				c.State["emitted"] = true
				return emits, nil
			}
		}
		if err := bus.Register(cfg); err != nil {
			return nil, err
		}
	}
	return bus, nil
}

// seedInputs copies the request inputs and auto-seeds every
// client-receive variable with a placeholder, so a bare document runs
// out of the box. Deterministic in proc + base: every enactment node
// derives the identical variable store independently.
func seedInputs(proc *core.Process, base map[string]any) map[string]any {
	inputs := map[string]any{}
	for k, v := range base {
		inputs[k] = v
	}
	for _, act := range proc.Activities() {
		if act.Kind == core.KindReceive && act.Service == "" && len(act.Writes) > 0 {
			if _, ok := inputs[act.Writes[0]]; !ok {
				inputs[act.Writes[0]] = fmt.Sprintf("input(%s)", act.Writes[0])
			}
		}
	}
	return inputs
}

// payloadFor chooses a callback payload: the resolved branch when a
// decision reads the variable, a placeholder otherwise.
func payloadFor(proc *core.Process, variable string, branches map[string]string) any {
	for _, act := range proc.Decisions() {
		if len(act.Reads) > 0 && act.Reads[0] == variable {
			return resolveBranch(act, branches)
		}
	}
	return fmt.Sprintf("sim(%s)", variable)
}

// resolveBranch picks a decision's outcome: the forced branch when
// valid, the first domain branch otherwise.
func resolveBranch(act *core.Activity, branches map[string]string) string {
	domain := act.BranchDomain()
	if b, ok := branches[string(act.ID)]; ok {
		for _, d := range domain {
			if d == b {
				return b
			}
		}
	}
	return domain[0]
}

// timeout is the engine run bound TimeoutMS sets (default 10s).
func (q *SimulateRequest) timeout() time.Duration {
	if q.TimeoutMS > 0 {
		return time.Duration(q.TimeoutMS) * time.Millisecond
	}
	return 10 * time.Second
}

// runSimulation weaves the request and executes the minimal set
// against the simulated services. The engine error is reported
// in-band, beside the partial trace.
func (s *Server) runSimulation(ctx context.Context, q *SimulateRequest, rn *run, sink obs.Sink, _ *http.Request) (*SimulateResponse, error) {
	out, err := s.runWeave(ctx, &q.WeaveRequest, sink, false)
	if err != nil {
		return nil, err
	}
	proc := out.Parsed.Proc
	rn.setProcess(proc.Name)

	node, err := s.buildEnactNode(q, proc, nil, sink)
	if err != nil {
		return nil, err
	}
	defer node.close()
	eng, err := schedule.New(out.Minimize.Minimal, node.execs, schedule.Options{
		Guards:  out.Guards,
		Inputs:  node.inputs,
		Timeout: q.timeout(),
		Metrics: s.reg,
		Events:  sink,
	})
	if err != nil {
		return nil, err
	}
	tr, runErr := eng.Run(ctx)

	resp := &SimulateResponse{RunID: rn.Summary().ID, Process: proc.Name}
	resp.Executed, resp.Skipped, resp.MaxParallel, resp.MakespanNS, resp.Trace = renderTrace(tr)
	if runErr != nil {
		resp.Error = runErr.Error()
	} else if err := tr.Validate(out.Translated, out.Guards); err != nil {
		resp.Error = fmt.Sprintf("trace validation: %v", err)
	} else {
		resp.Valid = true
	}
	return resp, nil
}

// renderTrace renders the execution fields simulate and enact
// responses share; trace is nil when the trace does not serialize.
func renderTrace(tr *schedule.Trace) (executed, skipped []string, maxParallel int, makespanNS int64, trace json.RawMessage) {
	for _, id := range tr.Executed() {
		executed = append(executed, string(id))
	}
	for _, id := range tr.SkippedActivities() {
		skipped = append(skipped, string(id))
	}
	if data, err := tr.MarshalJSON(); err == nil {
		trace = data
	}
	return executed, skipped, tr.MaxParallel, int64(tr.Makespan()), trace
}

// overrideDecisions wraps decision executors so simulation never
// fails on an unresolvable predicate: a valid branch carried by the
// predicate variable wins, then a forced branch, then the first of
// the domain.
func overrideDecisions(proc *core.Process, execs map[core.ActivityID]schedule.Executor, branches map[string]string) {
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
			return schedule.Outcome{Branch: resolveBranch(act, branches)}, nil
		}
	}
}
