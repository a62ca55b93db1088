// Package core implements the paper's primary contribution: the
// four-dimension categorization of synchronization dependencies in
// business processes (data, control, service, cooperation — §3), their
// uniform representation as DSCL synchronization constraints (§4.1–4.2),
// service-dependency translation (§4.3) and the minimal synchronization
// constraint set computation (§4.4, Definitions 1–6).
//
// The package is deliberately independent of any concrete syntax: the
// dscl, wscl and pdg packages parse their respective notations into the
// types defined here, and the petri, bpel and schedule packages consume
// the optimized constraint sets this package produces.
package core

import (
	"fmt"
	"sort"

	"dscweaver/internal/cond"
)

// ActivityID names an internal activity of a process, e.g.
// "invPurchase_po".
type ActivityID string

// ActivityKind classifies an activity by its interaction role.
type ActivityKind int

const (
	// KindOpaque is a local computation with no service interaction
	// (the paper's action_parameter form, e.g. set_oi).
	KindOpaque ActivityKind = iota
	// KindReceive consumes a message from a client or a service
	// callback port (recClient_po, recShip_si).
	KindReceive
	// KindInvoke sends an asynchronous message to a service port
	// (invCredit_po).
	KindInvoke
	// KindReply sends a response back to the process client
	// (replyClient_oi).
	KindReply
	// KindDecision evaluates a predicate and selects a branch (if_au).
	// Its branch labels define a cond domain.
	KindDecision
)

var kindNames = map[ActivityKind]string{
	KindOpaque:   "opaque",
	KindReceive:  "receive",
	KindInvoke:   "invoke",
	KindReply:    "reply",
	KindDecision: "decision",
}

func (k ActivityKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ActivityKind(%d)", int(k))
}

// BoolBranches is the default branch domain of a decision activity.
var BoolBranches = []string{"T", "F"}

// Activity is one unit of work inside a process.
type Activity struct {
	ID   ActivityID
	Kind ActivityKind

	// Service and Port identify the remote endpoint for
	// KindInvoke/KindReceive interactions with services. Receive
	// activities listening for a client message leave Service empty.
	Service string
	Port    string

	// Reads and Writes list process variables, feeding data-dependency
	// extraction and the runtime engine's variable store.
	Reads  []string
	Writes []string

	// Branches enumerates the possible outcomes of a KindDecision
	// activity; defaults to BoolBranches when empty.
	Branches []string
}

// BranchDomain returns the decision's branch labels.
func (a *Activity) BranchDomain() []string {
	if len(a.Branches) > 0 {
		return a.Branches
	}
	return BoolBranches
}

// Service describes a remote service the process interacts with.
type Service struct {
	Name string
	// Ports lists the invocable ports in declaration order, e.g.
	// ["1", "2"]. Port names are free-form strings.
	Ports []string
	// Async marks services that call back asynchronously through a
	// dummy port named DummyPort (the paper's s_d).
	Async bool
	// SequentialPorts marks state-aware services that require their
	// ports be invoked in declaration order (the Purchase service).
	SequentialPorts bool
}

// DummyPort is the name of the callback port of asynchronous services
// (the paper's s_d).
const DummyPort = "d"

// Process is a business process: a named set of activities plus the
// remote services they interact with. Activities and services keep
// insertion order for deterministic output.
type Process struct {
	Name string

	activities []*Activity
	byID       map[ActivityID]*Activity
	services   []*Service
	byName     map[string]*Service
}

// NewProcess returns an empty process.
func NewProcess(name string) *Process {
	return &Process{
		Name:   name,
		byID:   map[ActivityID]*Activity{},
		byName: map[string]*Service{},
	}
}

// AddActivity registers an activity. It returns an error on duplicate
// ids or empty names.
func (p *Process) AddActivity(a *Activity) error {
	if a.ID == "" {
		return fmt.Errorf("process %s: activity with empty id", p.Name)
	}
	if _, dup := p.byID[a.ID]; dup {
		return fmt.Errorf("process %s: duplicate activity %s", p.Name, a.ID)
	}
	p.activities = append(p.activities, a)
	p.byID[a.ID] = a
	return nil
}

// MustAddActivity is AddActivity that panics on error; used by fixtures
// and generators whose input is static.
func (p *Process) MustAddActivity(a *Activity) {
	if err := p.AddActivity(a); err != nil {
		panic(err)
	}
}

// AddService registers a remote service.
func (p *Process) AddService(s *Service) error {
	if s.Name == "" {
		return fmt.Errorf("process %s: service with empty name", p.Name)
	}
	if _, dup := p.byName[s.Name]; dup {
		return fmt.Errorf("process %s: duplicate service %s", p.Name, s.Name)
	}
	p.services = append(p.services, s)
	p.byName[s.Name] = s
	return nil
}

// MustAddService is AddService that panics on error.
func (p *Process) MustAddService(s *Service) {
	if err := p.AddService(s); err != nil {
		panic(err)
	}
}

// Activity looks up an activity by id.
func (p *Process) Activity(id ActivityID) (*Activity, bool) {
	a, ok := p.byID[id]
	return a, ok
}

// Service looks up a service by name.
func (p *Process) Service(name string) (*Service, bool) {
	s, ok := p.byName[name]
	return s, ok
}

// Activities returns the activities in insertion order (shared slice;
// callers must not mutate).
func (p *Process) Activities() []*Activity { return p.activities }

// Services returns the services in insertion order.
func (p *Process) Services() []*Service { return p.services }

// Decisions returns the decision activities in insertion order.
func (p *Process) Decisions() []*Activity {
	var out []*Activity
	for _, a := range p.activities {
		if a.Kind == KindDecision {
			out = append(out, a)
		}
	}
	return out
}

// Domains builds the cond.Domains map from the process's decision
// activities, for semantic condition comparisons.
func (p *Process) Domains() cond.Domains {
	d := cond.Domains{}
	for _, a := range p.activities {
		if a.Kind == KindDecision {
			d[string(a.ID)] = a.BranchDomain()
		}
	}
	return d
}

// Node identifies a vertex of the dependency/constraint graph: either
// an internal activity or an external service port (the paper's
// s_1…s_n and s_d nodes).
type Node struct {
	// Activity is set for internal nodes.
	Activity ActivityID
	// Service and Port are set for external nodes.
	Service string
	Port    string
}

// ActivityNode returns the internal node for an activity.
func ActivityNode(id ActivityID) Node { return Node{Activity: id} }

// ServiceNode returns the external node for a service port.
func ServiceNode(service, port string) Node {
	return Node{Service: service, Port: port}
}

// IsService reports whether the node is external.
func (n Node) IsService() bool { return n.Service != "" }

// String renders internal nodes as their activity id and external
// nodes as "Service.port" (e.g. "Purchase.1", "Credit.d").
func (n Node) String() string {
	if n.IsService() {
		return n.Service + "." + n.Port
	}
	return string(n.Activity)
}

func compareNodes(a, b Node) int {
	as, bs := a.String(), b.String()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

// SortNodes orders nodes by their string form, internal and external
// alike; used for deterministic reporting.
func SortNodes(ns []Node) {
	sort.Slice(ns, func(i, j int) bool { return compareNodes(ns[i], ns[j]) < 0 })
}

// Validate performs structural checks on the process: interaction
// activities must reference declared services and ports, decision
// branch labels must be unique, and sequential-port services must have
// at least two ports.
func (p *Process) Validate() error {
	for _, a := range p.activities {
		switch a.Kind {
		case KindInvoke, KindReceive:
			if a.Service == "" {
				continue // client-facing receive
			}
			s, ok := p.byName[a.Service]
			if !ok {
				return fmt.Errorf("activity %s references undeclared service %s", a.ID, a.Service)
			}
			if a.Port != DummyPort && !contains(s.Ports, a.Port) {
				return fmt.Errorf("activity %s references undeclared port %s.%s", a.ID, a.Service, a.Port)
			}
			if a.Port == DummyPort && !s.Async {
				return fmt.Errorf("activity %s receives on dummy port of synchronous service %s", a.ID, a.Service)
			}
		case KindDecision:
			seen := map[string]bool{}
			for _, b := range a.BranchDomain() {
				if seen[b] {
					return fmt.Errorf("decision %s: duplicate branch %q", a.ID, b)
				}
				seen[b] = true
			}
			if len(a.BranchDomain()) < 2 {
				return fmt.Errorf("decision %s: needs at least two branches", a.ID)
			}
		}
	}
	for _, s := range p.services {
		if s.SequentialPorts && len(s.Ports) < 2 {
			return fmt.Errorf("service %s: sequential ports require >=2 ports", s.Name)
		}
		seen := map[string]bool{}
		for _, port := range s.Ports {
			if port == DummyPort {
				return fmt.Errorf("service %s: port name %q is reserved", s.Name, DummyPort)
			}
			if seen[port] {
				return fmt.Errorf("service %s: duplicate port %q", s.Name, port)
			}
			seen[port] = true
		}
	}
	return nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
