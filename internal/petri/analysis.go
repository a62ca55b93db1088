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

// StateSpace is the size of the exploration behind a verdict.
type StateSpace struct {
	// States counts the distinct markings the kernel visited.
	States int
	// Truncated is true if MaxStates refused a successor. A truncated
	// space is a budget cut, never a certificate: the verdict is
	// unsound, and callers must not conclude anything from the absence
	// of a deadlock in it.
	Truncated bool
}

// ExploreOptions tunes CheckSoundness.
type ExploreOptions struct {
	// MaxStates bounds the exploration (default 1 << 20, capped at
	// 1 << 26 by the packed state-id layout).
	MaxStates int
	// FinalPlaces declares a marking final when every listed place
	// holds at least one token — the all-activities-determined shape
	// Validate uses. Required.
	FinalPlaces []PlaceID
	// FullGraph disables the structural fast path and stubborn-set
	// reduction, so StateSpace.States counts every reachable marking.
	// The verdict is the same either way.
	FullGraph bool
	// Metrics receives kernel counters (states explored, verdicts per
	// method); nil is fine.
	Metrics *obs.Registry
}

func (opts *ExploreOptions) setDefaults() {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 20
	}
	if opts.MaxStates > maxPackedStates {
		opts.MaxStates = maxPackedStates
	}
}

// SoundnessReport is the validation verdict the weaver pipeline
// consumes (the paper's design-time conflict detection, §4.1).
type SoundnessReport struct {
	// Sound is true when, from every reachable marking, a final
	// marking remains reachable, and no deadlock exists.
	Sound bool
	// Deadlocks carries diagnostic markings when unsound.
	Deadlocks []string
	// NoCompletion is true when no final marking is reachable at all.
	NoCompletion bool
	// StateSpace carries the exploration statistics. The fast path
	// reports the length of its single greedy run, not the full
	// interleaving count (which it exists to avoid); the reduced
	// kernel reports the reduced graph's size.
	StateSpace *StateSpace
	// Method names the kernel that produced the verdict: "fastpath",
	// "reduced" or "full".
	Method string
}

// CheckSoundness verifies the classical workflow soundness conditions
// relative to the final places:
//
//  1. option to complete — from every reachable marking some final
//     marking is reachable;
//  2. no deadlocks — every dead marking is final.
//
// Dead transitions do not make a net unsound here: the builder
// intentionally emits guard variants for branch assignments that a
// particular run never takes.
//
// The verdict comes from the cheapest packed kernel whose
// preconditions hold: the polynomial structural fast path
// (progressive + conflict-free + uncolored nets with monotone
// FinalPlaces), else the explicit exploration, stubborn-set reduced
// when the net qualifies. FullGraph forces the unreduced exploration.
// Every path returns the same Sound, NoCompletion and Deadlocks;
// Method records which one ran.
//
// A token count above a packed slot's 255 returns an *OverflowError,
// never a verdict. Build nets cannot reach it: they are 1-bounded
// (DESIGN.md).
//
// ctx is checked every ctxCheckEvery explored states alongside
// MaxStates; a canceled check returns ctx.Err() rather than a verdict
// from a partial exploration.
func (n *Net) CheckSoundness(ctx context.Context, opts ExploreOptions) (*SoundnessReport, error) {
	if len(opts.FinalPlaces) == 0 {
		return nil, fmt.Errorf("petri: CheckSoundness requires FinalPlaces")
	}
	for _, p := range opts.FinalPlaces {
		if p < 0 || int(p) >= len(n.places) {
			return nil, fmt.Errorf("petri: final place %d out of range", p)
		}
	}
	opts.setDefaults()
	c, err := compile(n)
	if err != nil {
		return nil, err
	}
	fp := c.compileFinalPlaces(opts.FinalPlaces)
	var rep *SoundnessReport
	if !opts.FullGraph && c.fastpathEligible(fp) {
		rep, err = c.fastpath(ctx, fp)
	} else {
		rep, err = c.explore(ctx, opts.MaxStates, fp, !opts.FullGraph && c.reductionEligible(fp))
	}
	if err != nil {
		return nil, err
	}
	recordVerdict(opts.Metrics, rep)
	return rep, nil
}

// explore runs the packed exploration, reduced or full, and turns its
// graph into a verdict.
func (c *compiled) explore(ctx context.Context, maxStates int, fp []int32, reduce bool) (*SoundnessReport, error) {
	g, err := c.exploreGraph(ctx, maxStates, fp, reduce)
	if err != nil {
		return nil, err
	}
	rep := c.soundnessFromGraph(g)
	rep.Method = "full"
	if reduce {
		rep.Method = "reduced"
	}
	return rep, nil
}

// soundnessFromGraph assembles the verdict from an explored successor
// graph: backward reachability from the final markings, then the two
// soundness conditions. Deadlock diagnostics are decoded and sorted,
// so reports are identical across kernels.
func (c *compiled) soundnessFromGraph(g *sgraph) *SoundnessReport {
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
		StateSpace: &StateSpace{States: g.n, Truncated: g.truncated},
	}
	anyFinal := false
	for i := 0; i < g.n; i++ {
		if g.final[i] {
			anyFinal = true
		}
		if g.dead[i] && !g.final[i] {
			rep.Sound = false
			rep.Deadlocks = append(rep.Deadlocks, c.net.describeMarking(c.decode(g.st.state(int32(i)))))
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

// recordVerdict counts the verdict's method and explored states.
func recordVerdict(reg *obs.Registry, rep *SoundnessReport) {
	if reg == nil {
		return
	}
	reg.Counter("petri_states_explored_total").Add(int64(rep.StateSpace.States))
	reg.Counter("petri_validate_total", "method", rep.Method).Inc()
}
