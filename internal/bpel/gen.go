package bpel

import (
	"fmt"
	"sort"
	"strings"

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

	doc := &Process{
		Name:                proc.Name,
		TargetNamespace:     "urn:dscweaver:" + proc.Name,
		Xmlns:               Namespace,
		SuppressJoinFailure: "yes",
		Flow:                &Flow{Links: &Links{}},
	}

	// Partner links: one per service.
	if svcs := proc.Services(); len(svcs) > 0 {
		doc.PartnerLinks = &PartnerLinks{}
		for _, s := range svcs {
			doc.PartnerLinks.Items = append(doc.PartnerLinks.Items, PartnerLink{
				Name: s.Name, PartnerRole: s.Name + "Provider", MyRole: proc.Name + "Client",
			})
		}
	}

	// Variables: union of reads/writes.
	varSet := map[string]bool{}
	for _, a := range proc.Activities() {
		for _, v := range append(append([]string{}, a.Reads...), a.Writes...) {
			varSet[v] = true
		}
		if a.Kind == core.KindDecision {
			varSet[decisionVar(a)] = true
		}
	}
	if len(varSet) > 0 {
		doc.Variables = &Variables{}
		names := make([]string, 0, len(varSet))
		for v := range varSet {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			doc.Variables.Items = append(doc.Variables.Items, Variable{Name: v, Type: "xsd:anyType"})
		}
	}

	// Links and attachments.
	commons := map[core.ActivityID]*Common{}
	for _, a := range proc.Activities() {
		commons[a.ID] = &Common{Name: string(a.ID)}
	}
	for i := 0; i < sc.Len(); i++ {
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
		src, dst := c.From.Node.Activity, c.To.Node.Activity
		name := fmt.Sprintf("l%d_%s_to_%s", i, src, dst)
		doc.Flow.Links.Items = append(doc.Flow.Links.Items, Link{Name: name})
		commons[src].Sources = append(commons[src].Sources, Source{
			LinkName:            name,
			TransitionCondition: transitionCondition(proc, c),
		})
		commons[dst].Targets = append(commons[dst].Targets, Target{LinkName: name})
	}

	// Materialize activities.
	for _, a := range proc.Activities() {
		common := *commons[a.ID]
		switch a.Kind {
		case core.KindReceive:
			doc.Flow.Receives = append(doc.Flow.Receives, &Receive{
				Common:      common,
				PartnerLink: partnerLinkFor(a),
				Operation:   operationFor(a),
				Variable:    firstOr(a.Writes, ""),
			})
		case core.KindInvoke:
			doc.Flow.Invokes = append(doc.Flow.Invokes, &Invoke{
				Common:        common,
				PartnerLink:   partnerLinkFor(a),
				Operation:     operationFor(a),
				InputVariable: firstOr(a.Reads, ""),
			})
		case core.KindReply:
			doc.Flow.Replies = append(doc.Flow.Replies, &Reply{
				Common:      common,
				PartnerLink: "client",
				Operation:   "reply",
				Variable:    firstOr(a.Reads, ""),
			})
		case core.KindDecision:
			doc.Flow.Assigns = append(doc.Flow.Assigns, &Assign{
				Common: common,
				Copies: []Copy{{
					From: Expr{Expression: "evaluate(" + predicateVar(a) + ")"},
					To:   Expr{Variable: decisionVar(a)},
				}},
			})
		default:
			doc.Flow.Empties = append(doc.Flow.Empties, &Empty{Common: common})
		}
	}

	return doc, nil
}

// transitionCondition renders a constraint's condition as a BPEL
// boolean expression over decision variables, or "" when
// unconditional.
func transitionCondition(proc *core.Process, c core.Constraint) string {
	if c.Cond.IsTrue() {
		return ""
	}
	var terms []string
	for _, t := range c.Cond.Terms() {
		var lits []string
		for _, l := range t {
			v := "$" + l.Decision
			if a, ok := proc.Activity(core.ActivityID(l.Decision)); ok {
				v = "$" + decisionVar(a)
			}
			lits = append(lits, fmt.Sprintf("%s = '%s'", v, l.Value))
		}
		terms = append(terms, strings.Join(lits, " and "))
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return "(" + strings.Join(terms, ") or (") + ")"
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
