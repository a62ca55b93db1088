package core

import (
	"fmt"

	"dscweaver/internal/cond"
)

// TranslateServices rewrites a constraint set so that it mentions only
// internal activities — the paper's service dependency translation
// (§4.3, Definition 2, Figure 8). The result is the Activity
// Synchronization Constraint set ASC = {A, P}.
//
// Two rewrite rules are applied, then every constraint touching an
// external node is dropped:
//
//  1. Path projection. For every transitive path a → e₁ → … → eₖ → b
//     whose interior nodes are all external, a constraint
//     F(a) → S(b) is added (the paper's closest-internal-ancestor /
//     closest-internal-offspring rule). Paths that never return to an
//     internal activity are discarded: external events with no
//     internal offspring cannot affect activity scheduling
//     (Production₁ and Production₂ in the running example).
//
//  2. Port-order anchoring. An external→external constraint e₁ → e₂
//     where both ports are invoked from inside the process (both have
//     internal invokers) is a port-ordering requirement the process
//     must realize by sequencing the invocations themselves:
//     F(invoker(e₁)) → S(invoker(e₂)) is added. This is how
//     Purchase₁ →s Purchase₂ becomes
//     invPurchase_po → invPurchase_si in Figure 8.
//
// Conditions accumulate conjunctively along projected paths. The
// translated constraints carry the ServiceDim origin.
func TranslateServices(sc *ConstraintSet) (*ConstraintSet, error) {
	for _, c := range sc.constraints {
		if c.Rel == HappenTogether && (c.From.Node.IsService() || c.To.Node.IsService()) {
			return nil, fmt.Errorf("translate: HappenTogether on external node %s: desugar first", c)
		}
	}

	// Node-level adjacency over HappenBefore constraints.
	type edge struct {
		to   Node
		cond cond.Expr
	}
	succ := map[Node][]edge{}
	invokers := map[Node][]invokerEdge{} // external node -> internal activities invoking it
	for _, c := range sc.constraints {
		if c.Rel != HappenBefore {
			continue
		}
		succ[c.From.Node] = append(succ[c.From.Node], edge{to: c.To.Node, cond: c.Cond})
		if !c.From.Node.IsService() && c.To.Node.IsService() {
			invokers[c.To.Node] = append(invokers[c.To.Node], invokerEdge{act: c.From.Node.Activity, cond: c.Cond})
		}
	}

	out := newConstraintSetSize(sc.Proc, sc.Len())
	// Keep internal-only constraints verbatim (preserving point
	// states, so DSCL state-level constraints survive translation).
	for _, c := range sc.constraints {
		if !c.From.Node.IsService() && !c.To.Node.IsService() {
			out.Add(c)
		}
	}

	// Rule 1: path projection from each internal node through
	// external-only interiors.
	for _, c := range sc.constraints {
		if c.Rel != HappenBefore || c.From.Node.IsService() || !c.To.Node.IsService() {
			continue
		}
		src := c.From.Node.Activity
		// DFS through external nodes, accumulating conditions.
		type frame struct {
			node Node
			cond cond.Expr
		}
		// Visited is keyed by (node, accumulated condition) so a port
		// reached under distinct conditions is explored once per
		// condition; external subgraphs are small, so this cannot
		// blow up in practice.
		seen := map[string]bool{}
		stack := []frame{{node: c.To.Node, cond: c.Cond}}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			key := f.node.String() + "\x00" + f.cond.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			for _, e := range succ[f.node] {
				acc := cond.And(f.cond, e.cond)
				if acc.IsFalse() {
					continue
				}
				if e.to.IsService() {
					stack = append(stack, frame{node: e.to, cond: acc})
					continue
				}
				out.Add(Constraint{
					Rel:     HappenBefore,
					From:    PointOf(src, Finish),
					To:      Point{Node: e.to, State: Start},
					Cond:    acc,
					Origins: []Dimension{ServiceDim},
					Labels:  []string{fmt.Sprintf("via %s", f.node)},
				})
			}
		}
	}

	// Rule 2: port-order anchoring for external→external constraints
	// whose both endpoints are process-invoked.
	for _, c := range sc.constraints {
		if c.Rel != HappenBefore || !c.From.Node.IsService() || !c.To.Node.IsService() {
			continue
		}
		for _, i1 := range invokers[c.From.Node] {
			for _, i2 := range invokers[c.To.Node] {
				if i1.act == i2.act {
					continue
				}
				acc := cond.And(i1.cond, c.Cond, i2.cond)
				if acc.IsFalse() {
					continue
				}
				out.Add(Constraint{
					Rel:     HappenBefore,
					From:    PointOf(i1.act, Finish),
					To:      PointOf(i2.act, Start),
					Cond:    acc,
					Origins: []Dimension{ServiceDim},
					Labels:  []string{fmt.Sprintf("port order %s → %s", c.From.Node, c.To.Node)},
				})
			}
		}
	}

	return out, nil
}

type invokerEdge struct {
	act  ActivityID
	cond cond.Expr
}
