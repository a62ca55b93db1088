// Package patterns encodes the classical workflow control-flow
// patterns (van der Aalst et al. [1]) as DSCL synchronization
// constraint sets — substantiating the paper's §4.1 claim that "DSCL
// can describe a wide variety of synchronization behavior, like
// sequence, parallel split, synchronization, interleave parallel
// routing, and milestone."
//
// Each constructor returns a ready-to-run process and constraint set;
// the tests execute them on the scheduling engine and assert the
// pattern's defining property on the traces. Nothing else runs them, so
// the package is test code only. The milestone and
// interleaved-parallel-routing patterns are the ones that need DSCL's
// state granularity (S/R/F points) and the Exclusive relation — they
// cannot be expressed with activity-level happen-before edges alone.
package patterns

import (
	"fmt"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// Pattern is a named workflow pattern instance.
type Pattern struct {
	// Name is the pattern's WCP designation.
	Name string
	Proc *core.Process
	SC   *core.ConstraintSet
}

func opaque(p *core.Process, ids ...core.ActivityID) {
	for _, id := range ids {
		p.MustAddActivity(&core.Activity{ID: id, Kind: core.KindOpaque})
	}
}

// Sequence is WCP-1: a runs strictly before b.
func Sequence() *Pattern {
	p := core.NewProcess("wcp1_sequence")
	opaque(p, "a", "b")
	sc := core.NewConstraintSet(p)
	sc.Before("a", "b", core.Cooperation)
	return &Pattern{Name: "WCP-1 Sequence", Proc: p, SC: sc}
}

// ParallelSplit is WCP-2: after a, the branches b1…bn run
// concurrently.
func ParallelSplit(n int) *Pattern {
	p := core.NewProcess("wcp2_parallel_split")
	opaque(p, "a")
	sc := core.NewConstraintSet(p)
	for i := 0; i < n; i++ {
		id := core.ActivityID(fmt.Sprintf("b%d", i))
		opaque(p, id)
		sc.Before("a", id, core.Cooperation)
	}
	return &Pattern{Name: "WCP-2 Parallel Split", Proc: p, SC: sc}
}

// Synchronization is WCP-3: the join j waits for every branch.
func Synchronization(n int) *Pattern {
	p := core.NewProcess("wcp3_synchronization")
	sc := core.NewConstraintSet(p)
	opaque(p, "j")
	for i := 0; i < n; i++ {
		id := core.ActivityID(fmt.Sprintf("b%d", i))
		opaque(p, id)
		sc.Before(id, "j", core.Cooperation)
	}
	return &Pattern{Name: "WCP-3 Synchronization", Proc: p, SC: sc}
}

// ExclusiveChoice is WCP-4 plus WCP-5 (simple merge): a decision
// routes to exactly one of two branches, which re-join at m.
func ExclusiveChoice() *Pattern {
	p := core.NewProcess("wcp4_exclusive_choice")
	p.MustAddActivity(&core.Activity{ID: "dec", Kind: core.KindDecision})
	opaque(p, "left", "right", "m")
	sc := core.NewConstraintSet(p)
	sc.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("dec", core.Finish),
		To: core.PointOf("left", core.Start), Cond: cond.Lit("dec", "T"), Origins: []core.Dimension{core.Control}})
	sc.Add(core.Constraint{Rel: core.HappenBefore, From: core.PointOf("dec", core.Finish),
		To: core.PointOf("right", core.Start), Cond: cond.Lit("dec", "F"), Origins: []core.Dimension{core.Control}})
	sc.Before("left", "m", core.Cooperation)
	sc.Before("right", "m", core.Cooperation)
	return &Pattern{Name: "WCP-4/5 Exclusive Choice + Simple Merge", Proc: p, SC: sc}
}

// InterleavedParallelRouting is WCP-17: the activities run in any
// order but never concurrently — pairwise Exclusive constraints, the
// relation §4.2 defers to run-time checking.
func InterleavedParallelRouting(n int) *Pattern {
	p := core.NewProcess("wcp17_interleaved")
	sc := core.NewConstraintSet(p)
	ids := make([]core.ActivityID, n)
	for i := 0; i < n; i++ {
		ids[i] = core.ActivityID(fmt.Sprintf("t%d", i))
		opaque(p, ids[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sc.Add(core.Constraint{Rel: core.Exclusive,
				From: core.PointOf(ids[i], core.Run), To: core.PointOf(ids[j], core.Run),
				Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}})
		}
	}
	return &Pattern{Name: "WCP-17 Interleaved Parallel Routing", Proc: p, SC: sc}
}

// Milestone is WCP-18: b may only execute while m is active — b starts
// after m starts and finishes before m finishes. Both constraints are
// state-level: S(m) → S(b) and F(b) → F(m). This is the
// collectSurvey/closeOrder shape of §3.2 ("the life spans of two
// activities overlap with each other").
func Milestone() *Pattern {
	p := core.NewProcess("wcp18_milestone")
	opaque(p, "m", "b")
	sc := core.NewConstraintSet(p)
	sc.Add(core.Constraint{Rel: core.HappenBefore,
		From: core.PointOf("m", core.Start), To: core.PointOf("b", core.Start),
		Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}})
	sc.Add(core.Constraint{Rel: core.HappenBefore,
		From: core.PointOf("b", core.Finish), To: core.PointOf("m", core.Finish),
		Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}})
	return &Pattern{Name: "WCP-18 Milestone", Proc: p, SC: sc}
}

// HappenTogetherRendezvous exercises the ↔ relation through its
// coordinator desugaring ([21]): a and b are released together.
func HappenTogetherRendezvous() (*Pattern, error) {
	p := core.NewProcess("rendezvous")
	opaque(p, "a", "b")
	sc := core.NewConstraintSet(p)
	sc.Add(core.Constraint{Rel: core.HappenTogether,
		From: core.PointOf("a", core.Start), To: core.PointOf("b", core.Start),
		Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}})
	if err := sc.Desugar(); err != nil {
		return nil, err
	}
	return &Pattern{Name: "HappenTogether rendezvous", Proc: p, SC: sc}, nil
}

// All returns one instance of every pattern.
func All() ([]*Pattern, error) {
	rendezvous, err := HappenTogetherRendezvous()
	if err != nil {
		return nil, err
	}
	return []*Pattern{
		Sequence(),
		ParallelSplit(3),
		Synchronization(3),
		ExclusiveChoice(),
		InterleavedParallelRouting(3),
		Milestone(),
		rendezvous,
	}, nil
}
