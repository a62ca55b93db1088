// Package bpel models the subset of BPEL4WS that DSCWeaver's code
// generation stage targets ([22]): a single graph-structured <flow>
// with <links>, per-activity <source>/<target> link attachments,
// transitionCondition expressions on branch outcomes, and dead-path
// elimination via suppressJoinFailure. Generate lowers an optimized
// constraint set to a Process document; Marshal writes it as indented
// XML in one direct pass over the AST (write.go), byte for byte what
// encoding/xml's reflection marshaller writes, which stays in test code
// as the oracle (so is Parse, which reads documents back with
// encoding/xml for the round-trip tests); Validate performs the static
// checks a BPEL engine would reject a document for (duplicate names,
// dangling or multiply-attached links, cyclic control flow).
package bpel

import "encoding/xml"

// Namespace is the BPEL4WS 1.1 namespace the generator stamps on
// documents.
const Namespace = "http://schemas.xmlsoap.org/ws/2003/03/business-process/"

// Process is the document root.
type Process struct {
	XMLName             xml.Name      `xml:"process"`
	Name                string        `xml:"name,attr"`
	TargetNamespace     string        `xml:"targetNamespace,attr,omitempty"`
	Xmlns               string        `xml:"xmlns,attr,omitempty"`
	SuppressJoinFailure string        `xml:"suppressJoinFailure,attr,omitempty"`
	PartnerLinks        *PartnerLinks `xml:"partnerLinks,omitempty"`
	Variables           *Variables    `xml:"variables,omitempty"`
	Flow                *Flow         `xml:"flow,omitempty"`
	Sequence            *Sequence     `xml:"sequence,omitempty"`
}

// PartnerLinks wraps the partner-link declarations.
type PartnerLinks struct {
	Items []PartnerLink `xml:"partnerLink"`
}

// PartnerLink names one remote service the process converses with.
type PartnerLink struct {
	Name        string `xml:"name,attr"`
	PartnerRole string `xml:"partnerRole,attr,omitempty"`
	MyRole      string `xml:"myRole,attr,omitempty"`
}

// Variables wraps the variable declarations.
type Variables struct {
	Items []Variable `xml:"variable"`
}

// Variable declares one process variable.
type Variable struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr,omitempty"`
}

// Flow is the parallel construct; its children synchronize only
// through links. GenerateStructured additionally nests sequences whose
// internal order is implicit (their activities may still carry links
// for cross-sequence synchronization, which BPEL permits).
type Flow struct {
	Links     *Links      `xml:"links,omitempty"`
	Sequences []*Sequence `xml:"sequence,omitempty"`
	Receives  []*Receive  `xml:"receive,omitempty"`
	Invokes   []*Invoke   `xml:"invoke,omitempty"`
	Replies   []*Reply    `xml:"reply,omitempty"`
	Assigns   []*Assign   `xml:"assign,omitempty"`
	Empties   []*Empty    `xml:"empty,omitempty"`
}

// Links wraps link declarations.
type Links struct {
	Items []Link `xml:"link"`
}

// Link is a named synchronization edge of a flow.
type Link struct {
	Name string `xml:"name,attr"`
}

// Common carries the attributes and link attachments shared by every
// BPEL activity.
type Common struct {
	Name                string   `xml:"name,attr"`
	JoinCondition       string   `xml:"joinCondition,attr,omitempty"`
	SuppressJoinFailure string   `xml:"suppressJoinFailure,attr,omitempty"`
	Targets             []Target `xml:"target,omitempty"`
	Sources             []Source `xml:"source,omitempty"`
}

// Target attaches an incoming link.
type Target struct {
	LinkName string `xml:"linkName,attr"`
}

// Source attaches an outgoing link, optionally guarded.
type Source struct {
	LinkName            string `xml:"linkName,attr"`
	TransitionCondition string `xml:"transitionCondition,attr,omitempty"`
}

// Receive waits for an inbound message.
type Receive struct {
	Common
	PartnerLink string `xml:"partnerLink,attr,omitempty"`
	Operation   string `xml:"operation,attr,omitempty"`
	Variable    string `xml:"variable,attr,omitempty"`
}

// Invoke calls a partner operation.
type Invoke struct {
	Common
	PartnerLink   string `xml:"partnerLink,attr,omitempty"`
	Operation     string `xml:"operation,attr,omitempty"`
	InputVariable string `xml:"inputVariable,attr,omitempty"`
}

// Reply answers the process client.
type Reply struct {
	Common
	PartnerLink string `xml:"partnerLink,attr,omitempty"`
	Operation   string `xml:"operation,attr,omitempty"`
	Variable    string `xml:"variable,attr,omitempty"`
}

// Assign performs local data manipulation; decisions lower to assigns
// that evaluate their predicate into a variable read by the
// transitionConditions of their outgoing links.
type Assign struct {
	Common
	Copies []Copy `xml:"copy,omitempty"`
}

// Copy is one from/to pair of an assign.
type Copy struct {
	From Expr `xml:"from"`
	To   Expr `xml:"to"`
}

// Expr is a from/to endpoint: either a variable reference or a literal
// expression.
type Expr struct {
	Variable   string `xml:"variable,attr,omitempty"`
	Expression string `xml:"expression,attr,omitempty"`
}

// Empty is the no-op activity; opaque local computations lower to it.
type Empty struct {
	Common
}

// Sequence executes its items in document order. Items are pointers to
// Receive, Invoke, Reply, Assign or Empty; mixed kinds keep their
// order through Marshal.
type Sequence struct {
	Name  string
	Items []any
}

// activities returns the items' common headers in order.
func (s *Sequence) activities() []*Common {
	out := make([]*Common, 0, len(s.Items))
	for _, item := range s.Items {
		if c := common(item); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// common returns an activity's common header, or nil for anything
// that is not one of the five activity kinds.
func common(item any) *Common {
	switch a := item.(type) {
	case *Receive:
		if a != nil {
			return &a.Common
		}
	case *Invoke:
		if a != nil {
			return &a.Common
		}
	case *Reply:
		if a != nil {
			return &a.Common
		}
	case *Assign:
		if a != nil {
			return &a.Common
		}
	case *Empty:
		if a != nil {
			return &a.Common
		}
	}
	return nil
}

// activities returns every activity of a flow with its common header,
// in declaration order per element kind, including activities nested
// inside sequences. Nil entries, which Marshal skips, are left out.
func (f *Flow) activities() []*Common {
	n := len(f.Receives) + len(f.Invokes) + len(f.Replies) + len(f.Assigns) + len(f.Empties)
	for _, s := range f.Sequences {
		if s != nil {
			n += len(s.Items)
		}
	}
	out := make([]*Common, 0, n)
	add := func(item any) {
		if c := common(item); c != nil {
			out = append(out, c)
		}
	}
	for _, s := range f.Sequences {
		if s != nil {
			out = append(out, s.activities()...)
		}
	}
	for _, a := range f.Receives {
		add(a)
	}
	for _, a := range f.Invokes {
		add(a)
	}
	for _, a := range f.Replies {
		add(a)
	}
	for _, a := range f.Assigns {
		add(a)
	}
	for _, a := range f.Empties {
		add(a)
	}
	return out
}
