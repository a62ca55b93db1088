// Reference kernel: the original map-of-maps exploration, retained
// verbatim (modulo the Explore truncation short-circuit, which it
// shares with the packed kernel) for two jobs:
//
//   - fallback when the packed representation cannot hold a marking —
//     a token count above 255 in one slot — so verdicts never depend
//     on the packed range;
//   - ground truth for the differential suite: every optimized path
//     (packed full, stubborn-reduced, structural fast path) is tested
//     for verdict equality against this code.
//
// It is deliberately simple and allocation-heavy; do not optimize it.

package petri

import (
	"context"
	"sort"
)

// refFinal resolves the options' final predicate for the reference
// kernel: an explicit Final wins, otherwise FinalPlaces is interpreted
// as "every listed place is marked", otherwise nil.
func refFinal(opts ExploreOptions) func(Marking) bool {
	if opts.Final != nil {
		return opts.Final
	}
	if len(opts.FinalPlaces) == 0 {
		return nil
	}
	fp := opts.FinalPlaces
	return func(m Marking) bool {
		for _, p := range fp {
			if m.Tokens(p) == 0 {
				return false
			}
		}
		return true
	}
}

// exploreRef is the unpacked Explore.
func (n *Net) exploreRef(ctx context.Context, opts ExploreOptions) (*StateSpace, error) {
	final := refFinal(opts)
	ss := &StateSpace{Bounded: true}
	seen := map[string]bool{}
	fired := make([]bool, len(n.transitions))

	start := n.InitialMarking()
	queue := []Marking{start}
	seen[start.Key()] = true

	for len(queue) > 0 && !ss.Truncated {
		m := queue[0]
		queue = queue[1:]
		ss.States++
		if err := ctxErrEvery(ctx, ss.States); err != nil {
			return nil, err
		}
		for p := range n.places {
			if k := m.Tokens(PlaceID(p)); k > ss.MaxTokens {
				ss.MaxTokens = k
				if k > opts.Bound {
					ss.Bounded = false
				}
			}
		}
		enabled := n.Enabled(m)
		isFinal := final != nil && final(m)
		if isFinal {
			ss.Finals = append(ss.Finals, m)
		}
		if len(enabled) == 0 && !isFinal {
			ss.Deadlocks = append(ss.Deadlocks, m)
		}
		for _, t := range enabled {
			fired[t] = true
			next, err := n.Fire(m, t)
			if err != nil {
				return nil, err
			}
			key := next.Key()
			if !seen[key] {
				if len(seen) >= opts.MaxStates {
					ss.Truncated = true
					break
				}
				seen[key] = true
				queue = append(queue, next)
			}
			ss.Transitions++
		}
	}
	for t, f := range fired {
		if !f {
			ss.DeadTransitions = append(ss.DeadTransitions, TransitionID(t))
		}
	}
	return ss, nil
}

// checkSoundnessRef is the unpacked CheckSoundness: forward BFS with
// successor recording, then backward reachability from the final
// markings.
func (n *Net) checkSoundnessRef(ctx context.Context, opts ExploreOptions) (*SoundnessReport, error) {
	final := refFinal(opts)
	type node struct {
		m     Marking
		succs []int
		final bool
		dead  bool
	}
	var nodes []node
	index := map[string]int{}

	start := n.InitialMarking()
	index[start.Key()] = 0
	nodes = append(nodes, node{m: start})
	truncated := false

	for i := 0; i < len(nodes); i++ {
		if err := ctxErrEvery(ctx, i); err != nil {
			return nil, err
		}
		m := nodes[i].m
		enabled := n.Enabled(m)
		nodes[i].final = final(m)
		nodes[i].dead = len(enabled) == 0
		for _, t := range enabled {
			next, err := n.Fire(m, t)
			if err != nil {
				return nil, err
			}
			key := next.Key()
			j, ok := index[key]
			if !ok {
				if len(nodes) >= opts.MaxStates {
					truncated = true
					continue
				}
				j = len(nodes)
				index[key] = j
				nodes = append(nodes, node{m: next})
			}
			nodes[i].succs = append(nodes[i].succs, j)
		}
	}

	// Backward reachability from final markings.
	preds := make([][]int, len(nodes))
	for i, nd := range nodes {
		for _, j := range nd.succs {
			preds[j] = append(preds[j], i)
		}
	}
	canComplete := make([]bool, len(nodes))
	var stack []int
	for i, nd := range nodes {
		if nd.final {
			canComplete[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range preds[j] {
			if !canComplete[i] {
				canComplete[i] = true
				stack = append(stack, i)
			}
		}
	}

	rep := &SoundnessReport{
		Sound:      true,
		Method:     "reference",
		StateSpace: &StateSpace{States: len(nodes), Bounded: true, Truncated: truncated},
	}
	anyFinal := false
	for i, nd := range nodes {
		if nd.final {
			anyFinal = true
		}
		if nd.dead && !nd.final {
			rep.Sound = false
			rep.Deadlocks = append(rep.Deadlocks, n.describeMarking(nd.m))
		}
		if !canComplete[i] {
			rep.Sound = false
		}
	}
	if !anyFinal {
		rep.Sound = false
		rep.NoCompletion = true
	}
	if truncated {
		// A truncated exploration cannot certify soundness.
		rep.Sound = false
	}
	sort.Strings(rep.Deadlocks)
	return rep, nil
}
