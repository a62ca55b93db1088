// Package decentral analyzes decentralized execution of an optimized
// constraint set — the §5 connection to Nanda et al. [12], which
// "uses PDG to analyze dataflow, control flow and constructs in a
// process to decentralize execution control with the goal of
// minimizing communication overhead."
//
// Activities are partitioned across hosts: interaction activities are
// pinned to the host fronting their service, and the remaining
// activities are placed greedily to minimize cross-host constraint
// edges. Every HappenBefore constraint whose endpoints land on
// different hosts costs one synchronization message at run time, so
// the message count of the minimal set versus the unoptimized set
// quantifies a second benefit of minimization: fewer cross-host
// synchronization messages, not just fewer monitored constraints.
package decentral

import (
	"fmt"
	"sort"
	"strings"

	"dscweaver/internal/core"
)

// CoordinatorHost is the partition that runs client-facing and local
// activities.
const CoordinatorHost = "coordinator"

// Partition maps every activity to a host.
type Partition map[core.ActivityID]string

// Plan is the result of a decentralization analysis.
type Plan struct {
	Partition Partition
	// Hosts lists the partition names, sorted.
	Hosts []string
	// LocalEdges counts constraints whose endpoints share a host.
	LocalEdges int
	// CrossEdges counts constraints that need a cross-host message.
	CrossEdges int
	// Messages breaks the cross edges down by (from-host, to-host).
	Messages map[[2]string]int
}

// Pin returns the fixed placement of interaction activities: every
// invoke or service-facing receive runs on the host fronting its
// service, everything else starts unpinned.
func Pin(proc *core.Process) Partition {
	p := Partition{}
	for _, a := range proc.Activities() {
		if (a.Kind == core.KindInvoke || a.Kind == core.KindReceive) && a.Service != "" {
			p[a.ID] = "host:" + a.Service
		}
	}
	return p
}

// Place partitions the process for the given constraint set: pinned
// activities keep their host; each remaining activity is assigned, in
// topological order, to the host with which it shares the most
// constraint edges (ties break toward the coordinator, then
// lexicographically). Returns the completed plan.
func Place(sc *core.ConstraintSet, pinned Partition) (*Plan, error) {
	if sc.HasServiceNodes() {
		return nil, fmt.Errorf("decentral: constraint set mentions external nodes; translate first")
	}
	proc := sc.Proc
	part := Partition{}
	for id, h := range pinned {
		if _, ok := proc.Activity(id); !ok {
			return nil, fmt.Errorf("decentral: pinned activity %s not in process", id)
		}
		part[id] = h
	}

	// Adjacency over HappenBefore constraints.
	neighbors := map[core.ActivityID][]core.ActivityID{}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		u, v := c.From.Node.Activity, c.To.Node.Activity
		neighbors[u] = append(neighbors[u], v)
		neighbors[v] = append(neighbors[v], u)
	}

	for _, a := range proc.Activities() {
		if _, done := part[a.ID]; done {
			continue
		}
		votes := map[string]int{}
		for _, n := range neighbors[a.ID] {
			if h, ok := part[n]; ok {
				votes[h]++
			}
		}
		best := CoordinatorHost
		bestVotes := votes[CoordinatorHost]
		hosts := make([]string, 0, len(votes))
		for h := range votes {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			if votes[h] > bestVotes {
				best, bestVotes = h, votes[h]
			}
		}
		part[a.ID] = best
	}
	return PlanFor(sc, part)
}

// PlanFor completes a plan for an explicit, total partition: it counts
// the local and cross-host edges the assignment implies. Exported for
// the enactment layer, which rewrites partitions (host caps, exclusive
// co-location) and for remote nodes executing a partition shipped to
// them.
func PlanFor(sc *core.ConstraintSet, part Partition) (*Plan, error) {
	if sc.HasServiceNodes() {
		return nil, fmt.Errorf("decentral: constraint set mentions external nodes; translate first")
	}
	for _, a := range sc.Proc.Activities() {
		if part[a.ID] == "" {
			return nil, fmt.Errorf("decentral: activity %s has no host", a.ID)
		}
	}
	plan := &Plan{Partition: part, Messages: map[[2]string]int{}}
	hostSet := map[string]bool{}
	for _, h := range part {
		hostSet[h] = true
	}
	for h := range hostSet {
		plan.Hosts = append(plan.Hosts, h)
	}
	sort.Strings(plan.Hosts)

	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		from, to := part[c.From.Node.Activity], part[c.To.Node.Activity]
		if from == to {
			plan.LocalEdges++
			continue
		}
		plan.CrossEdges++
		plan.Messages[[2]string{from, to}]++
	}
	return plan, nil
}

// Fold caps a plan at max hosts: the coordinator plus the first
// max-1 other hosts (sorted) keep their partitions, and every
// activity on a folded-away host moves to the coordinator. Folding is
// deterministic, so distributed nodes derive identical partitions
// from the same plan and cap. max <= 0 or a plan already within the
// cap comes back unchanged.
func Fold(sc *core.ConstraintSet, plan *Plan, max int) (*Plan, error) {
	if max <= 0 || len(plan.Hosts) <= max {
		return plan, nil
	}
	keep := map[string]bool{CoordinatorHost: true}
	budget := max - 1
	for _, h := range plan.Hosts {
		if h == CoordinatorHost {
			continue
		}
		if budget > 0 {
			keep[h] = true
			budget--
		}
	}
	part := Partition{}
	for id, h := range plan.Partition {
		if keep[h] {
			part[id] = h
		} else {
			part[id] = CoordinatorHost
		}
	}
	return PlanFor(sc, part)
}

// CoLocate rewrites a plan so both endpoints of every Exclusive
// constraint share a host: mutual exclusion is enforced with per-pair
// mutexes inside one engine, so exclusive-connected activity groups
// must not straddle partitions. Groups are merged with a union-find
// and land on the lexicographically smallest host any member was
// assigned — deterministic, so every node derives the same placement
// independently. Plans without exclusive constraints come back
// unchanged.
func CoLocate(sc *core.ConstraintSet, plan *Plan) (*Plan, error) {
	var excl []core.Constraint
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel == core.Exclusive {
			excl = append(excl, c)
		}
	}
	if len(excl) == 0 {
		return plan, nil
	}
	parent := map[core.ActivityID]core.ActivityID{}
	var find func(core.ActivityID) core.ActivityID
	find = func(x core.ActivityID) core.ActivityID {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, c := range excl {
		a, b := find(c.From.Node.Activity), find(c.To.Node.Activity)
		if a != b {
			parent[a] = b
		}
	}
	// Pick each group's host: the smallest host string any member holds.
	groupHost := map[core.ActivityID]string{}
	for id := range parent {
		root := find(id)
		h := plan.Partition[id]
		if cur, ok := groupHost[root]; !ok || h < cur {
			groupHost[root] = h
		}
	}
	part := Partition{}
	for id, h := range plan.Partition {
		part[id] = h
	}
	changed := false
	for id := range parent {
		h := groupHost[find(id)]
		if part[id] != h {
			part[id] = h
			changed = true
		}
	}
	if !changed {
		return plan, nil
	}
	return PlanFor(sc, part)
}

// Compare runs Place on both an unoptimized and a minimal constraint
// set under the same pinning and reports the message savings.
type Comparison struct {
	Unoptimized *Plan
	Minimal     *Plan
}

// MessageSavings returns cross-host messages eliminated by
// minimization.
func (c Comparison) MessageSavings() int {
	return c.Unoptimized.CrossEdges - c.Minimal.CrossEdges
}

// Compare partitions both sets with the same pinned placement.
func Compare(unopt, minimal *core.ConstraintSet, pinned Partition) (*Comparison, error) {
	u, err := Place(unopt, pinned)
	if err != nil {
		return nil, err
	}
	m, err := Place(minimal, pinned)
	if err != nil {
		return nil, err
	}
	return &Comparison{Unoptimized: u, Minimal: m}, nil
}

// String renders the plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hosts: %s\n", strings.Join(p.Hosts, ", "))
	fmt.Fprintf(&b, "local edges: %d, cross-host messages: %d\n", p.LocalEdges, p.CrossEdges)
	var keys [][2]string
	for k := range p.Messages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s → %s: %d\n", k[0], k[1], p.Messages[k])
	}
	return b.String()
}
