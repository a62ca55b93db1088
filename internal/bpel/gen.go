package bpel

import (
	"fmt"
	"sort"
	"strconv"

	"dscweaver/internal/core"
)

// Generate lowers an activity-level constraint set (normally the
// minimal set produced by core.Minimize) to a BPEL document: one
// graph-structured <flow> whose links are exactly the HappenBefore
// constraints.
//
//   - Every constraint F(i) → S(j) becomes a link with i as source and
//     j as target. Conditional constraints put the condition on the
//     source's transitionCondition, rendered over the decision's
//     predicate variable ($au = 'T' for if_au reading variable au).
//   - Activities keep BPEL's default OR join condition and
//     suppressJoinFailure="yes", which together implement dead-path
//     elimination: an activity whose incoming links all carry a false
//     status is skipped and propagates false onward — the engine-level
//     counterpart of the petri builder's skip transitions.
//   - Decisions lower to <assign> activities that evaluate their
//     predicate; invoke/receive/reply carry partnerLink and operation
//     attributes derived from the service endpoints.
//
// State-level constraints (anything other than F→S) cannot be
// expressed with BPEL links, which only connect activity completions
// to activity starts; Generate reports them as errors — the scheduling
// engine executes such sets natively instead.
func Generate(sc *core.ConstraintSet) (*Process, error) {
	if sc.HasServiceNodes() {
		return nil, fmt.Errorf("bpel: constraint set mentions external nodes; translate first")
	}
	proc := sc.Proc
	acts := proc.Activities()

	doc := &Process{
		Name:                proc.Name,
		TargetNamespace:     "urn:dscweaver:" + proc.Name,
		Xmlns:               Namespace,
		SuppressJoinFailure: "yes",
		Flow:                &Flow{Links: &Links{}},
	}

	// Partner links: one per service.
	if svcs := proc.Services(); len(svcs) > 0 {
		doc.PartnerLinks = &PartnerLinks{Items: make([]PartnerLink, len(svcs))}
		for i, s := range svcs {
			doc.PartnerLinks.Items[i] = PartnerLink{
				Name: s.Name, PartnerRole: s.Name + "Provider", MyRole: proc.Name + "Client",
			}
		}
	}

	// Variables: union of reads/writes and decision outcomes, sorted.
	seen := map[string]bool{}
	var names []string
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			names = append(names, v)
		}
	}
	for _, a := range acts {
		for _, v := range a.Reads {
			add(v)
		}
		for _, v := range a.Writes {
			add(v)
		}
		if a.Kind == core.KindDecision {
			add(decisionVar(a))
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		doc.Variables = &Variables{Items: make([]Variable, len(names))}
		for i, v := range names {
			doc.Variables.Items[i] = Variable{Name: v, Type: "xsd:anyType"}
		}
	}

	// Links: constraint i becomes link i. A first pass checks every
	// constraint is a link, resolves its endpoints to activity indexes,
	// counts each activity's degree and writes the link names into one
	// buffer.
	index := make(map[core.ActivityID]int, len(acts))
	idBytes := 0
	for i, a := range acts {
		index[a.ID] = i
		idBytes += len(a.ID)
	}
	m := sc.Len()
	ends := make([][2]int, m)
	nameEnd := make([]int, m)
	srcStart := make([]int, len(acts)+1)
	dstStart := make([]int, len(acts)+1)
	buf := make([]byte, 0, m*(16+2*idBytes/max(1, len(acts))))
	for i := 0; i < m; i++ {
		c := sc.At(i)
		switch c.Rel {
		case core.Exclusive:
			return nil, fmt.Errorf("bpel: Exclusive constraint %s has no BPEL link encoding; execute with the scheduling engine", c)
		case core.HappenTogether:
			return nil, fmt.Errorf("bpel: HappenTogether constraint %s: desugar first", c)
		}
		if c.From.State != core.Finish || c.To.State != core.Start {
			return nil, fmt.Errorf("bpel: state-level constraint %s cannot be expressed as a BPEL link", c)
		}
		src, ok1 := index[c.From.Node.Activity]
		dst, ok2 := index[c.To.Node.Activity]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("bpel: constraint %s names an activity outside process %s", c, proc.Name)
		}
		ends[i] = [2]int{src, dst}
		srcStart[src+1]++
		dstStart[dst+1]++
		buf = appendLinkName(buf, i, c.From.Node.Activity, c.To.Node.Activity)
		nameEnd[i] = len(buf)
	}
	for v := range acts {
		srcStart[v+1] += srcStart[v]
		dstStart[v+1] += dstStart[v]
	}

	// Attachments: each activity's sources and targets are a window of
	// one flat slice each, filled in constraint order.
	all := string(buf)
	links := make([]Link, m)
	sources := make([]Source, m)
	targets := make([]Target, m)
	srcNext := append([]int(nil), srcStart[:len(acts)]...)
	dstNext := append([]int(nil), dstStart[:len(acts)]...)
	for i, e := range ends {
		lo := 0
		if i > 0 {
			lo = nameEnd[i-1]
		}
		name := all[lo:nameEnd[i]]
		links[i] = Link{Name: name}
		sources[srcNext[e[0]]] = Source{LinkName: name, TransitionCondition: transitionCondition(proc, sc.At(i))}
		srcNext[e[0]]++
		targets[dstNext[e[1]]] = Target{LinkName: name}
		dstNext[e[1]]++
	}
	doc.Flow.Links.Items = links
	common := func(v int) Common {
		return Common{
			Name:    string(acts[v].ID),
			Sources: window(sources, srcStart[v], srcStart[v+1]),
			Targets: window(targets, dstStart[v], dstStart[v+1]),
		}
	}

	// Materialize activities.
	for v, a := range acts {
		switch a.Kind {
		case core.KindReceive:
			doc.Flow.Receives = append(doc.Flow.Receives, &Receive{
				Common:      common(v),
				PartnerLink: partnerLinkFor(a),
				Operation:   operationFor(a),
				Variable:    firstOr(a.Writes, ""),
			})
		case core.KindInvoke:
			doc.Flow.Invokes = append(doc.Flow.Invokes, &Invoke{
				Common:        common(v),
				PartnerLink:   partnerLinkFor(a),
				Operation:     operationFor(a),
				InputVariable: firstOr(a.Reads, ""),
			})
		case core.KindReply:
			doc.Flow.Replies = append(doc.Flow.Replies, &Reply{
				Common:      common(v),
				PartnerLink: "client",
				Operation:   "reply",
				Variable:    firstOr(a.Reads, ""),
			})
		case core.KindDecision:
			doc.Flow.Assigns = append(doc.Flow.Assigns, &Assign{
				Common: common(v),
				Copies: []Copy{{
					From: Expr{Expression: "evaluate(" + predicateVar(a) + ")"},
					To:   Expr{Variable: decisionVar(a)},
				}},
			})
		default:
			doc.Flow.Empties = append(doc.Flow.Empties, &Empty{Common: common(v)})
		}
	}

	return doc, nil
}

// appendLinkName appends the name Generate gives link idx from one
// activity to another: l<idx>_<from>_to_<to>.
func appendLinkName(b []byte, idx int, from, to core.ActivityID) []byte {
	b = append(b, 'l')
	b = strconv.AppendInt(b, int64(idx), 10)
	b = append(b, '_')
	b = append(b, from...)
	b = append(b, "_to_"...)
	return append(b, to...)
}

// window returns s[lo:hi] capped at hi, so appending to one activity's
// attachments never overwrites the next one's; nil when empty.
func window[T any](s []T, lo, hi int) []T {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// transitionCondition renders a constraint's condition as a BPEL
// boolean expression over decision variables, or "" when
// unconditional.
func transitionCondition(proc *core.Process, c core.Constraint) string {
	if c.Cond.IsTrue() {
		return ""
	}
	terms := c.Cond.Terms()
	var b []byte
	if len(terms) != 1 {
		b = append(b, '(')
	}
	for i, t := range terms {
		if i > 0 {
			b = append(b, ") or ("...)
		}
		for j, l := range t {
			if j > 0 {
				b = append(b, " and "...)
			}
			b = append(b, '$')
			if a, ok := proc.Activity(core.ActivityID(l.Decision)); ok {
				b = append(b, decisionVar(a)...)
			} else {
				b = append(b, l.Decision...)
			}
			b = append(b, " = '"...)
			b = append(b, l.Value...)
			b = append(b, '\'')
		}
	}
	if len(terms) != 1 {
		b = append(b, ')')
	}
	return string(b)
}

// decisionVar names the variable a decision's outcome is stored in:
// its predicate variable when it reads exactly one, otherwise a
// variable named after the activity.
func decisionVar(a *core.Activity) string {
	return string(a.ID) + "_outcome"
}

func predicateVar(a *core.Activity) string {
	if len(a.Reads) > 0 {
		return a.Reads[0]
	}
	return string(a.ID)
}

func partnerLinkFor(a *core.Activity) string {
	if a.Service != "" {
		return a.Service
	}
	return "client"
}

func operationFor(a *core.Activity) string {
	if a.Service != "" {
		return "port" + a.Port
	}
	if a.Kind == core.KindReceive {
		return "request"
	}
	return string(a.ID)
}

func firstOr(ss []string, def string) string {
	if len(ss) > 0 {
		return ss[0]
	}
	return def
}
