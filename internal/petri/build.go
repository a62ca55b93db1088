package petri

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// SkippedColor marks the decision-value token of a decision that was
// skipped by dead-path elimination: guards mentioning it evaluate
// false.
const SkippedColor = "∅"

// Mapping records how process elements map to net elements, for
// diagnostics and tests.
type Mapping struct {
	Wait    map[core.ActivityID]PlaceID
	Running map[core.ActivityID]PlaceID
	Done    map[core.ActivityID]PlaceID
	Value   map[core.ActivityID]PlaceID // decision-value places
	Edges   map[int]PlaceID             // constraint index → edge place
}

// Build maps an activity-level constraint set (an ASC — no external
// nodes) onto a colored Petri net whose firing sequences are exactly
// the schedules a constraint-driven engine may produce:
//
//   - each activity contributes wait → running → done places, a start
//     transition per guard-satisfying branch assignment (testing the
//     decision-value places with read arcs), finish transitions (one
//     per branch for decisions, producing the colored decision value),
//     and skip transitions per guard-violating assignment implementing
//     dead-path elimination;
//   - each HappenBefore constraint contributes an edge place, produced
//     when the source point is reached (or the source is skipped) and
//     consumed by the target's start or finish according to the
//     target point's state;
//   - each Exclusive constraint contributes a one-token mutex place
//     bracketed by the start and finish of both activities.
//
// guards gives each activity's execution guard (from
// core.DeriveGuards on the pre-minimization set). The constraint set
// must be desugared and service-translated.
func Build(sc *core.ConstraintSet, guards map[core.Node]cond.Expr) (*Net, *Mapping, error) {
	if sc.HasServiceNodes() {
		return nil, nil, fmt.Errorf("petri: constraint set mentions external nodes; translate first")
	}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel == core.HappenTogether {
			return nil, nil, fmt.Errorf("petri: HappenTogether constraint %s: desugar first", c)
		}
	}

	n := New()
	m := &Mapping{
		Wait:    map[core.ActivityID]PlaceID{},
		Running: map[core.ActivityID]PlaceID{},
		Done:    map[core.ActivityID]PlaceID{},
		Value:   map[core.ActivityID]PlaceID{},
		Edges:   map[int]PlaceID{},
	}

	acts := sc.Proc.Activities()
	for _, a := range acts {
		m.Wait[a.ID] = n.AddPlace("wait/"+string(a.ID), "")
		m.Running[a.ID] = n.AddPlace("running/" + string(a.ID))
		m.Done[a.ID] = n.AddPlace("done/" + string(a.ID))
		if a.Kind == core.KindDecision {
			m.Value[a.ID] = n.AddPlace("value/" + string(a.ID))
		}
	}

	// Edge places, partitioned by their attachment points.
	inAtStart := map[core.ActivityID][]PlaceID{}  // consumed by start (targets S or R)
	inAtFinish := map[core.ActivityID][]PlaceID{} // consumed by finish (targets F)
	outAtStart := map[core.ActivityID][]PlaceID{} // produced by start (sources S or R)
	outAtFinish := map[core.ActivityID][]PlaceID{}
	allIn := map[core.ActivityID][]PlaceID{}
	allOut := map[core.ActivityID][]PlaceID{}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		p := n.AddPlace("edge/" + strconv.Itoa(i) + "(" + c.From.String() + "→" + c.To.String() + ")")
		m.Edges[i] = p
		src, dst := c.From.Node.Activity, c.To.Node.Activity
		if c.From.State == core.Finish {
			outAtFinish[src] = append(outAtFinish[src], p)
		} else {
			outAtStart[src] = append(outAtStart[src], p)
		}
		if c.To.State == core.Finish {
			inAtFinish[dst] = append(inAtFinish[dst], p)
		} else {
			inAtStart[dst] = append(inAtStart[dst], p)
		}
		allIn[dst] = append(allIn[dst], p)
		allOut[src] = append(allOut[src], p)
	}

	// Mutex places for Exclusive constraints.
	mutexes := map[core.ActivityID][]PlaceID{}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.Exclusive {
			continue
		}
		p := n.AddPlace("mutex("+c.From.Node.String()+","+c.To.Node.String()+")", "")
		mutexes[c.From.Node.Activity] = append(mutexes[c.From.Node.Activity], p)
		mutexes[c.To.Node.Activity] = append(mutexes[c.To.Node.Activity], p)
	}

	domains := sc.Proc.Domains()
	for _, a := range acts {
		guard := cond.True()
		if g, ok := guards[core.ActivityNode(a.ID)]; ok {
			guard = g
		}
		assigns, err := guardAssignments(guard, domains, sc.Proc)
		if err != nil {
			return nil, nil, fmt.Errorf("petri: activity %s: %w", a.ID, err)
		}
		for _, as := range assigns {
			reads := make([]Arc, 0, len(as.lits))
			for _, l := range as.lits {
				vp, ok := m.Value[core.ActivityID(l.Decision)]
				if !ok {
					return nil, nil, fmt.Errorf("petri: guard of %s references unknown decision %s", a.ID, l.Decision)
				}
				reads = append(reads, Read(vp, l.Value))
			}
			if as.satisfied {
				// start variant.
				arcs := []Arc{In(m.Wait[a.ID], ""), Out(m.Running[a.ID], "")}
				arcs = append(arcs, reads...)
				for _, p := range inAtStart[a.ID] {
					arcs = append(arcs, In(p, ""))
				}
				for _, p := range outAtStart[a.ID] {
					arcs = append(arcs, Out(p, ""))
				}
				for _, p := range mutexes[a.ID] {
					arcs = append(arcs, In(p, ""))
				}
				n.AddTransition("start/"+string(a.ID)+as.label, arcs...)
			} else {
				// skip variant: dead-path elimination.
				arcs := []Arc{In(m.Wait[a.ID], ""), Out(m.Done[a.ID], "")}
				arcs = append(arcs, reads...)
				for _, p := range allIn[a.ID] {
					arcs = append(arcs, In(p, ""))
				}
				for _, p := range allOut[a.ID] {
					arcs = append(arcs, Out(p, ""))
				}
				if a.Kind == core.KindDecision {
					arcs = append(arcs, Out(m.Value[a.ID], SkippedColor))
				}
				n.AddTransition("skip/"+string(a.ID)+as.label, arcs...)
			}
		}

		// finish transitions (shared by all start variants).
		finishArcs := func() []Arc {
			arcs := []Arc{In(m.Running[a.ID], ""), Out(m.Done[a.ID], "")}
			for _, p := range inAtFinish[a.ID] {
				arcs = append(arcs, In(p, ""))
			}
			for _, p := range outAtFinish[a.ID] {
				arcs = append(arcs, Out(p, ""))
			}
			for _, p := range mutexes[a.ID] {
				arcs = append(arcs, Out(p, ""))
			}
			return arcs
		}
		if a.Kind == core.KindDecision {
			for _, branch := range a.BranchDomain() {
				arcs := append(finishArcs(), Out(m.Value[a.ID], branch))
				n.AddTransition("finish/"+string(a.ID)+"="+branch, arcs...)
			}
		} else {
			n.AddTransition("finish/"+string(a.ID), finishArcs()...)
		}
	}

	return n, m, nil
}

// assignment is one total assignment over a guard's decisions
// (extended with the skipped value), with its satisfaction verdict.
type assignment struct {
	lits      []cond.Literal
	satisfied bool
	label     string
}

// guardAssignments enumerates assignments over the guard's decisions,
// each decision ranging over its branch domain plus SkippedColor.
func guardAssignments(guard cond.Expr, domains cond.Domains, proc *core.Process) ([]assignment, error) {
	decisions := guard.Decisions()
	if len(decisions) == 0 {
		return []assignment{{satisfied: true}}, nil
	}
	extended := func(d string) []string {
		return append(domains.Values(d), SkippedColor)
	}
	total := 1
	for _, d := range decisions {
		if _, ok := proc.Activity(core.ActivityID(d)); !ok {
			return nil, fmt.Errorf("guard references unknown decision %s", d)
		}
		total *= len(extended(d))
		if total > 4096 {
			return nil, fmt.Errorf("guard over %d decisions is too large to enumerate", len(decisions))
		}
	}
	sort.Strings(decisions)
	var out []assignment
	assign := map[string]string{}
	var walk func(i int)
	walk = func(i int) {
		if i == len(decisions) {
			as := assignment{satisfied: guard.Eval(assign)}
			for _, d := range decisions {
				as.lits = append(as.lits, cond.Literal{Decision: d, Value: assign[d]})
				as.label += "[" + d + "=" + assign[d] + "]"
			}
			out = append(out, as)
			return
		}
		for _, v := range extended(decisions[i]) {
			assign[decisions[i]] = v
			walk(i + 1)
		}
		delete(assign, decisions[i])
	}
	walk(0)
	return out, nil
}

// Validate builds the net for the constraint set and checks workflow
// soundness: completion (all activities determined) must remain
// reachable from every reachable marking, with no deadlocks. This is
// the design-time conflict detection of §4.1. ctx aborts the
// underlying state-space exploration.
func Validate(ctx context.Context, sc *core.ConstraintSet, guards map[core.Node]cond.Expr) (*SoundnessReport, error) {
	return ValidateOpt(ctx, sc, guards, ExploreOptions{})
}

// ValidateOpt is Validate with explicit exploration options (MaxStates
// most usefully); the final predicate is always the all-activities-
// determined completion marking, expressed through FinalPlaces so the
// kernels can classify it, and any caller-supplied FinalPlaces is
// ignored (never written to).
func ValidateOpt(ctx context.Context, sc *core.ConstraintSet, guards map[core.Node]cond.Expr, opts ExploreOptions) (*SoundnessReport, error) {
	n, m, err := Build(sc, guards)
	if err != nil {
		return nil, err
	}
	fp := make([]PlaceID, 0, len(m.Done))
	for _, p := range m.Done {
		fp = append(fp, p)
	}
	sort.Slice(fp, func(i, j int) bool { return fp[i] < fp[j] })
	opts.FinalPlaces = fp
	return n.CheckSoundness(ctx, opts)
}
