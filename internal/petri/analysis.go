package petri

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dscweaver/internal/obs"
)

// ctxCheckEvery is how many explored states sit between context
// checks in the state-space kernels: rare enough that the per-state
// cost is one integer mask, frequent enough that a cancellation
// aborts within microseconds of exploration work.
const ctxCheckEvery = 1024

// ctxErrEvery returns ctx.Err() when n is on a check boundary (and
// tolerates a nil ctx).
func ctxErrEvery(ctx context.Context, n int) error {
	if n%ctxCheckEvery != 0 || ctx == nil {
		return nil
	}
	return ctx.Err()
}

// StateSpace is the result of an explicit-state exploration.
type StateSpace struct {
	// States counts distinct reachable markings.
	States int
	// Transitions counts explored firings (edges of the reachability
	// graph).
	Transitions int
	// Deadlocks lists reachable markings with no enabled transition
	// that do not satisfy the exploration's final predicate.
	Deadlocks []Marking
	// Finals lists reachable markings satisfying the final predicate
	// (with no distinction whether further transitions are enabled).
	Finals []Marking
	// DeadTransitions lists transitions never enabled in any reachable
	// marking.
	DeadTransitions []TransitionID
	// Bounded is false if some place exceeded the bound during
	// exploration.
	Bounded bool
	// MaxTokens is the largest token count observed in any single
	// place.
	MaxTokens int
	// Truncated is true if MaxStates refused a successor. The walk
	// stops at the first refusal, so every statistic — States,
	// Transitions, Deadlocks, Finals, DeadTransitions, MaxTokens —
	// covers only the prefix visited up to that point. A truncated
	// space is a budget cut, never a certificate: callers must not
	// conclude anything from the absence of a deadlock in it.
	Truncated bool
}

// ExploreOptions tunes Explore and CheckSoundness.
type ExploreOptions struct {
	// MaxStates bounds the exploration (default 1 << 20, capped at
	// 1 << 26 by the packed state-id layout).
	MaxStates int
	// Bound is the per-place token bound for the boundedness check
	// (default 16). Exceeding it clears Bounded but does not stop the
	// exploration.
	Bound int
	// Final classifies completion markings; may be nil (no marking is
	// final, every dead marking is a deadlock). Prefer FinalPlaces
	// when the predicate has that structural shape: an opaque func
	// forces the kernels to decode every packed state and disables the
	// structural fast path and reduction.
	Final func(Marking) bool
	// FinalPlaces declares a marking final when every listed place
	// holds at least one token — the all-activities-determined shape
	// Validate uses. Ignored when Final is set.
	FinalPlaces []PlaceID
	// ReductionOff disables stubborn-set partial-order reduction in
	// CheckSoundness (Explore never reduces: its statistics describe
	// the full graph).
	ReductionOff bool
	// NoFastPath disables the polynomial structural fast path in
	// CheckSoundness.
	NoFastPath bool
	// Metrics receives kernel counters (states explored, reduction
	// skips, fast-path hits); nil is fine.
	Metrics *obs.Registry
}

func (opts *ExploreOptions) setDefaults() {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 20
	}
	if opts.MaxStates > maxPackedStates {
		opts.MaxStates = maxPackedStates
	}
	if opts.Bound <= 0 {
		opts.Bound = 16
	}
}

// packedFinal lowers the options' final predicate onto packed states.
func packedFinal(c *compiled, opts ExploreOptions) (func([]byte) bool, []int32) {
	if opts.Final != nil {
		f := opts.Final
		return func(s []byte) bool { return f(c.decode(s)) }, nil
	}
	if len(opts.FinalPlaces) == 0 {
		return func([]byte) bool { return false }, nil
	}
	fp := c.compileFinalPlaces(opts.FinalPlaces)
	return func(s []byte) bool {
		for _, p := range fp {
			if c.placeTotal(s, p) == 0 {
				return false
			}
		}
		return true
	}, fp
}

// Explore performs a breadth-first reachability analysis from the
// initial marking, always over the full (unreduced) graph — its
// statistics describe every reachable marking and firing. It runs on
// the packed kernel and falls back to the reference kernel when a
// token count leaves the packed range. ctx is checked every
// ctxCheckEvery states alongside MaxStates; a canceled exploration
// returns ctx.Err(). See StateSpace.Truncated for what a MaxStates
// cut means.
func (n *Net) Explore(ctx context.Context, opts ExploreOptions) (*StateSpace, error) {
	opts.setDefaults()
	ss, err := n.explore(ctx, opts)
	if err != nil {
		return nil, err
	}
	countStates(opts.Metrics, ss.States)
	return ss, nil
}

// explore picks Explore's kernel: packed, or the reference kernel when
// the net does not compile or a token count overflows a packed slot.
func (n *Net) explore(ctx context.Context, opts ExploreOptions) (*StateSpace, error) {
	c, err := compile(n)
	if err != nil {
		return n.exploreRef(ctx, opts)
	}
	var isFinal func([]byte) bool
	if opts.Final != nil || len(opts.FinalPlaces) > 0 {
		isFinal, _ = packedFinal(c, opts)
	}
	ss, err := c.exploreStats(ctx, opts, isFinal)
	if isOverflow(err) {
		return n.exploreRef(ctx, opts)
	}
	return ss, err
}

// SoundnessReport is the validation verdict the weaver pipeline
// consumes (the paper's design-time conflict detection, §4.1).
type SoundnessReport struct {
	// Sound is true when, from every reachable marking, a final
	// marking remains reachable, and no deadlock exists.
	Sound bool
	// Deadlocks carries diagnostic markings when unsound.
	Deadlocks []string
	// Unreachable lists final-predicate violations: true when no final
	// marking is reachable at all.
	NoCompletion bool
	// StateSpace carries the exploration statistics. The fast path
	// reports the length of its single greedy run, not the full
	// interleaving count (which it exists to avoid); the reduced
	// kernels report the reduced graph's size.
	StateSpace *StateSpace
	// Method names the kernel that produced the verdict: "fastpath",
	// "full", "reduced" or "reference" (the unpacked fallback).
	Method string
	// Classification summarizes the structural analysis of the net
	// (e.g. "progressive conflict-free wildcard-safe uncolored"), or
	// "general" when no property holds.
	Classification string
}

// CheckSoundness verifies the classical workflow soundness conditions
// relative to the final predicate:
//
//  1. option to complete — from every reachable marking some final
//     marking is reachable;
//  2. no deadlocks — every dead marking is final.
//
// Dead transitions are reported through Explore's StateSpace but do
// not make a net unsound here: the builder intentionally emits guard
// variants for branch assignments that a particular run never takes.
//
// The verdict is produced by the cheapest kernel whose preconditions
// hold, in order: the polynomial structural fast path (progressive +
// conflict-free + uncolored nets with monotone FinalPlaces), then an
// explicit sequential exploration — stubborn-set reduced when the net
// qualifies (ReductionOff forces the full graph) — and finally the
// unpacked reference kernel when a marking leaves the packed token
// range. Every path returns the same Sound, NoCompletion and
// Deadlocks; Method records which one ran.
//
// ctx is checked every ctxCheckEvery explored states alongside
// MaxStates; a canceled check returns ctx.Err() rather than a verdict
// from a partial exploration.
func (n *Net) CheckSoundness(ctx context.Context, opts ExploreOptions) (*SoundnessReport, error) {
	if opts.Final == nil && len(opts.FinalPlaces) == 0 {
		return nil, fmt.Errorf("petri: CheckSoundness requires a Final predicate or FinalPlaces")
	}
	opts.setDefaults()
	c, err := compile(n)
	if err != nil {
		return n.soundnessViaRef(ctx, opts)
	}
	isFinal, fp := packedFinal(c, opts)
	class := c.classification()

	if fp != nil && !opts.NoFastPath && c.fastpathEligible(fp) {
		rep, err := c.fastpath(ctx, fp)
		if err == nil {
			rep.Method = "fastpath"
			rep.Classification = class
			recordVerdict(opts.Metrics, rep)
			return rep, nil
		}
		if !isOverflow(err) {
			return nil, err
		}
		// Token overflow: fall through to the exploring kernels (whose
		// own overflow handling lands on the reference kernel).
	}

	reduce := fp != nil && !opts.ReductionOff && c.reductionEligible(fp)
	if !opts.ReductionOff && !reduce {
		countSkippedReduction(opts.Metrics)
	}
	g, err := c.exploreGraph(ctx, opts.MaxStates, isFinal, reduce)
	if err != nil {
		if isOverflow(err) {
			return n.soundnessViaRef(ctx, opts)
		}
		return nil, err
	}
	rep := n.soundnessFromGraph(c, g)
	rep.Method = "full"
	if reduce {
		rep.Method = "reduced"
	}
	rep.Classification = class
	recordVerdict(opts.Metrics, rep)
	return rep, nil
}

// soundnessViaRef runs the unpacked fallback and tags its report.
func (n *Net) soundnessViaRef(ctx context.Context, opts ExploreOptions) (*SoundnessReport, error) {
	rep, err := n.checkSoundnessRef(ctx, opts)
	if err != nil {
		return nil, err
	}
	recordVerdict(opts.Metrics, rep)
	return rep, nil
}

// soundnessFromGraph assembles the verdict from an explored successor
// graph: backward reachability from the final markings, then the two
// soundness conditions. Deadlock diagnostics are decoded and sorted,
// so reports are identical across kernels.
func (n *Net) soundnessFromGraph(c *compiled, g *sgraph) *SoundnessReport {
	cnt := make([]int32, g.n+1)
	for _, to := range g.edgeTo {
		cnt[to+1]++
	}
	for i := 0; i < g.n; i++ {
		cnt[i+1] += cnt[i]
	}
	preds := make([]int32, len(g.edgeTo))
	pos := make([]int32, g.n)
	copy(pos, cnt[:g.n])
	for i := range g.edgeTo {
		to := g.edgeTo[i]
		preds[pos[to]] = g.edgeFrom[i]
		pos[to]++
	}

	canComplete := make([]bool, g.n)
	var stack []int32
	for i := 0; i < g.n; i++ {
		if g.final[i] {
			canComplete[i] = true
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := cnt[j]; e < cnt[j+1]; e++ {
			i := preds[e]
			if !canComplete[i] {
				canComplete[i] = true
				stack = append(stack, i)
			}
		}
	}

	rep := &SoundnessReport{
		Sound:      true,
		StateSpace: &StateSpace{States: g.n, Bounded: true, Truncated: g.truncated},
	}
	anyFinal := false
	for i := 0; i < g.n; i++ {
		if g.final[i] {
			anyFinal = true
		}
		if g.dead[i] && !g.final[i] {
			rep.Sound = false
			rep.Deadlocks = append(rep.Deadlocks, n.describeMarking(c.decode(g.st.state(int32(i)))))
		}
		if !canComplete[i] {
			rep.Sound = false
		}
	}
	if !anyFinal {
		rep.Sound = false
		rep.NoCompletion = true
	}
	if g.truncated {
		// A truncated exploration cannot certify soundness.
		rep.Sound = false
	}
	sort.Strings(rep.Deadlocks)
	return rep
}

// describeMarking renders a marking with place names for diagnostics.
func (n *Net) describeMarking(m Marking) string {
	var parts []string
	for p, tokens := range m {
		for c, k := range tokens {
			if k == 0 {
				continue
			}
			label := n.places[p].Name
			if c != "" {
				label += "(" + c + ")"
			}
			if k > 1 {
				label += fmt.Sprintf("×%d", k)
			}
			parts = append(parts, label)
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// --- kernel metrics ------------------------------------------------------

func countStates(reg *obs.Registry, states int) {
	if reg != nil {
		reg.Counter("petri_states_explored_total").Add(int64(states))
	}
}

func countSkippedReduction(reg *obs.Registry) {
	if reg != nil {
		reg.Counter("petri_reduction_skipped_total").Inc()
	}
}

func recordVerdict(reg *obs.Registry, rep *SoundnessReport) {
	if reg == nil {
		return
	}
	countStates(reg, rep.StateSpace.States)
	reg.Counter("petri_validate_total", "method", rep.Method).Inc()
	if rep.Method == "fastpath" {
		reg.Counter("petri_validate_fastpath_total").Inc()
	}
}
