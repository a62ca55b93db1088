package bpel

import (
	"fmt"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// GenerateStructured lowers a constraint set like Generate, then folds
// maximal chains of unconditional activity-level constraints between
// unguarded activities into nested <sequence> constructs, dropping the
// now-implicit links. This is the §5 direction of the paper's
// intermediate-representation claim: the optimized dependency graph
// can be re-materialized into the imperative paradigm where its shape
// is sequential, while graph-shaped synchronization stays as links.
//
// A constraint F(u) → S(v) is foldable when it is unconditional, u has
// no other outgoing and v no other incoming HappenBefore constraint,
// and both activities execute unconditionally under guards (guarded
// activities keep explicit links so dead-path elimination semantics
// are unchanged). guards may be nil when the set has no control
// structure.
func GenerateStructured(sc *core.ConstraintSet, guards map[core.Node]cond.Expr) (*Process, error) {
	doc, err := Generate(sc)
	if err != nil {
		return nil, err
	}

	unguarded := func(id core.ActivityID) bool {
		if guards == nil {
			return true
		}
		g, ok := guards[core.ActivityNode(id)]
		return !ok || g.IsTrue()
	}

	// Degree maps over HappenBefore constraints.
	outDeg := map[core.ActivityID]int{}
	inDeg := map[core.ActivityID]int{}
	next := map[core.ActivityID]core.ActivityID{}
	foldable := map[core.ActivityID]bool{} // u → (u,next[u]) foldable
	linkIdx := map[[2]core.ActivityID]int{}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		u, v := c.From.Node.Activity, c.To.Node.Activity
		outDeg[u]++
		inDeg[v]++
		next[u] = v
		linkIdx[[2]core.ActivityID{u, v}] = i
		foldable[u] = c.Cond.IsTrue() && c.From.State == core.Finish && c.To.State == core.Start
	}
	eligible := func(u core.ActivityID) (core.ActivityID, bool) {
		if outDeg[u] != 1 || !foldable[u] {
			return "", false
		}
		v := next[u]
		if inDeg[v] != 1 || !unguarded(u) || !unguarded(v) {
			return "", false
		}
		return v, true
	}

	// Greedy maximal chains in process declaration order.
	used := map[core.ActivityID]bool{}
	var chains [][]core.ActivityID
	for _, a := range sc.Proc.Activities() {
		if used[a.ID] {
			continue
		}
		// Only start a chain at a node with no eligible predecessor.
		isChainStart := true
		for _, b := range sc.Proc.Activities() {
			if v, ok := eligible(b.ID); ok && v == a.ID {
				isChainStart = false
				break
			}
		}
		if !isChainStart {
			continue
		}
		chain := []core.ActivityID{a.ID}
		for {
			v, ok := eligible(chain[len(chain)-1])
			if !ok || used[v] {
				break
			}
			chain = append(chain, v)
		}
		if len(chain) < 2 {
			continue
		}
		for _, id := range chain {
			used[id] = true
		}
		chains = append(chains, chain)
	}

	// Fold each chain: move the activities into a Sequence and drop
	// the interior links.
	dropLinks := map[string]bool{}
	for _, chain := range chains {
		seq := &Sequence{Name: fmt.Sprintf("seq_%s", chain[0])}
		for i, id := range chain {
			item, ok := takeActivity(doc.Flow, string(id))
			if !ok {
				return nil, fmt.Errorf("bpel: chain activity %s missing from flow", id)
			}
			if i+1 < len(chain) {
				idx := linkIdx[[2]core.ActivityID{id, chain[i+1]}]
				name := linkName(idx, id, chain[i+1])
				dropLinks[name] = true
				stripLink(item, name)
			}
			if i > 0 {
				idx := linkIdx[[2]core.ActivityID{chain[i-1], id}]
				stripLink(item, linkName(idx, chain[i-1], id))
			}
			seq.Items = append(seq.Items, item)
		}
		doc.Flow.Sequences = append(doc.Flow.Sequences, seq)
	}
	if doc.Flow.Links != nil {
		kept := doc.Flow.Links.Items[:0]
		for _, l := range doc.Flow.Links.Items {
			if !dropLinks[l.Name] {
				kept = append(kept, l)
			}
		}
		doc.Flow.Links.Items = kept
	}
	return doc, nil
}

// linkName mirrors Generate's naming scheme.
func linkName(idx int, from, to core.ActivityID) string {
	return fmt.Sprintf("l%d_%s_to_%s", idx, from, to)
}

// takeActivity removes the named activity from the flow's top-level
// slices and returns it.
func takeActivity(f *Flow, name string) (any, bool) {
	for i, a := range f.Receives {
		if a.Name == name {
			f.Receives = append(f.Receives[:i], f.Receives[i+1:]...)
			return a, true
		}
	}
	for i, a := range f.Invokes {
		if a.Name == name {
			f.Invokes = append(f.Invokes[:i], f.Invokes[i+1:]...)
			return a, true
		}
	}
	for i, a := range f.Replies {
		if a.Name == name {
			f.Replies = append(f.Replies[:i], f.Replies[i+1:]...)
			return a, true
		}
	}
	for i, a := range f.Assigns {
		if a.Name == name {
			f.Assigns = append(f.Assigns[:i], f.Assigns[i+1:]...)
			return a, true
		}
	}
	for i, a := range f.Empties {
		if a.Name == name {
			f.Empties = append(f.Empties[:i], f.Empties[i+1:]...)
			return a, true
		}
	}
	return nil, false
}

// stripLink removes the named link from an activity's sources and
// targets.
func stripLink(item any, name string) {
	var c *Common
	switch a := item.(type) {
	case *Receive:
		c = &a.Common
	case *Invoke:
		c = &a.Common
	case *Reply:
		c = &a.Common
	case *Assign:
		c = &a.Common
	case *Empty:
		c = &a.Common
	default:
		return
	}
	for i, s := range c.Sources {
		if s.LinkName == name {
			c.Sources = append(c.Sources[:i], c.Sources[i+1:]...)
			break
		}
	}
	for i, t := range c.Targets {
		if t.LinkName == name {
			c.Targets = append(c.Targets[:i], c.Targets[i+1:]...)
			break
		}
	}
}
