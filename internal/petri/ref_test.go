// Reference kernel: the original map-of-maps interpreter and
// exploration, kept in test code as the ground truth for the
// differential suite. Every production path (packed full,
// stubborn-reduced, structural fast path) is tested for verdict
// equality against this code, and the 1-boundedness property test
// reads its token maxima. It has no packed slot range to overflow.
//
// It is deliberately simple and allocation-heavy; do not optimize it.

package petri

import (
	"fmt"
	"sort"
	"strings"
)

// InitialMarking returns the net's initial marking.
func (n *Net) InitialMarking() Marking {
	m := make(Marking, len(n.places))
	for i, p := range n.places {
		m[i] = map[string]int{}
		for _, c := range p.Initial {
			m[i][c]++
		}
	}
	return m
}

// Clone deep-copies a marking.
func (m Marking) Clone() Marking {
	out := make(Marking, len(m))
	for i, tokens := range m {
		out[i] = make(map[string]int, len(tokens))
		for c, k := range tokens {
			out[i][c] = k
		}
	}
	return out
}

// Has reports whether the place holds at least one token matching the
// color ("" matches any).
func (m Marking) Has(p PlaceID, color string) bool {
	if color == "" {
		return m.Tokens(p) > 0
	}
	return m[p][color] > 0
}

// Key renders a canonical string for state-space hashing.
func (m Marking) Key() string {
	var b strings.Builder
	for i, tokens := range m {
		if len(tokens) == 0 {
			continue
		}
		colors := make([]string, 0, len(tokens))
		for c := range tokens {
			if tokens[c] > 0 {
				colors = append(colors, c)
			}
		}
		if len(colors) == 0 {
			continue
		}
		sort.Strings(colors)
		fmt.Fprintf(&b, "%d:", i)
		for _, c := range colors {
			fmt.Fprintf(&b, "%s*%d,", c, tokens[c])
		}
		b.WriteByte(';')
	}
	return b.String()
}

// enabled reports whether transition t may fire in m. Consuming arcs
// with empty color pick an arbitrary token; multiple consuming arcs on
// the same place require that many tokens.
func (n *Net) enabled(m Marking, t TransitionID) bool {
	need := map[PlaceID]map[string]int{} // exact-color demands
	needAny := map[PlaceID]int{}         // wildcard demands
	for _, a := range n.transitions[t].Arcs {
		switch a.Kind {
		case ArcIn:
			if a.Color == "" {
				needAny[a.Place]++
			} else {
				if need[a.Place] == nil {
					need[a.Place] = map[string]int{}
				}
				need[a.Place][a.Color]++
			}
		case ArcRead:
			if !m.Has(a.Place, a.Color) {
				return false
			}
		}
	}
	for p, colors := range need {
		for c, k := range colors {
			if m[p][c] < k {
				return false
			}
		}
	}
	for p, k := range needAny {
		exact := 0
		if colors, ok := need[p]; ok {
			for _, kk := range colors {
				exact += kk
			}
		}
		if m.Tokens(p)-exact < k {
			return false
		}
	}
	return true
}

// Enabled returns the transitions enabled in m, ascending.
func (n *Net) Enabled(m Marking) []TransitionID {
	var out []TransitionID
	for t := range n.transitions {
		if n.enabled(m, TransitionID(t)) {
			out = append(out, TransitionID(t))
		}
	}
	return out
}

// Fire fires t in m and returns the successor marking. It returns an
// error if t is not enabled. Wildcard consuming arcs remove an
// arbitrary token deterministically (smallest color first) — the nets
// built by this package never rely on which one.
func (n *Net) Fire(m Marking, t TransitionID) (Marking, error) {
	if !n.enabled(m, t) {
		return nil, fmt.Errorf("petri: transition %s not enabled", n.transitions[t].Name)
	}
	out := m.Clone()
	for _, a := range n.transitions[t].Arcs {
		if a.Kind != ArcIn {
			continue
		}
		if a.Color != "" {
			out[a.Place][a.Color]--
			if out[a.Place][a.Color] == 0 {
				delete(out[a.Place], a.Color)
			}
			continue
		}
		colors := make([]string, 0, len(out[a.Place]))
		for c, k := range out[a.Place] {
			if k > 0 {
				colors = append(colors, c)
			}
		}
		if len(colors) == 0 {
			return nil, fmt.Errorf("petri: internal: no token for wildcard arc on %s", n.places[a.Place].Name)
		}
		sort.Strings(colors)
		c := colors[0]
		out[a.Place][c]--
		if out[a.Place][c] == 0 {
			delete(out[a.Place], c)
		}
	}
	for _, a := range n.transitions[t].Arcs {
		if a.Kind == ArcOut {
			out[a.Place][a.Color]++
		}
	}
	return out, nil
}

// refFinal interprets FinalPlaces as "every listed place is marked";
// an empty list makes no marking final.
func refFinal(fp []PlaceID) func(Marking) bool {
	return func(m Marking) bool {
		for _, p := range fp {
			if m.Tokens(p) == 0 {
				return false
			}
		}
		return len(fp) > 0
	}
}

// refStats is the reference explorer's view of the full reachability
// graph.
type refStats struct {
	// States counts distinct reachable markings.
	States int
	// Transitions counts explored firings (edges of the reachability
	// graph).
	Transitions int
	// Deadlocks lists reachable dead markings that are not final.
	Deadlocks []Marking
	// Finals lists reachable final markings.
	Finals []Marking
	// DeadTransitions lists transitions never enabled in any reachable
	// marking.
	DeadTransitions []TransitionID
	// MaxTokens is the largest token count observed in any single
	// place.
	MaxTokens int
	// Truncated is true if maxStates refused a successor; the walk
	// stops there, so every statistic covers only the visited prefix.
	Truncated bool
}

// exploreRef is the full (unreduced) breadth-first exploration.
func (n *Net) exploreRef(maxStates int, fp []PlaceID) *refStats {
	final := refFinal(fp)
	ss := &refStats{}
	seen := map[string]bool{}
	fired := make([]bool, len(n.transitions))

	start := n.InitialMarking()
	queue := []Marking{start}
	seen[start.Key()] = true

	for len(queue) > 0 && !ss.Truncated {
		m := queue[0]
		queue = queue[1:]
		ss.States++
		for p := range n.places {
			if k := m.Tokens(PlaceID(p)); k > ss.MaxTokens {
				ss.MaxTokens = k
			}
		}
		enabled := n.Enabled(m)
		isFinal := final(m)
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
				panic(err) // t is enabled
			}
			key := next.Key()
			if !seen[key] {
				if len(seen) >= maxStates {
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
	return ss
}

// checkSoundnessRef is the unpacked CheckSoundness: forward BFS with
// successor recording, then backward reachability from the final
// markings.
func (n *Net) checkSoundnessRef(fp []PlaceID, maxStates int) *SoundnessReport {
	final := refFinal(fp)
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
		m := nodes[i].m
		enabled := n.Enabled(m)
		nodes[i].final = final(m)
		nodes[i].dead = len(enabled) == 0
		for _, t := range enabled {
			next, err := n.Fire(m, t)
			if err != nil {
				panic(err) // t is enabled
			}
			key := next.Key()
			j, ok := index[key]
			if !ok {
				if len(nodes) >= maxStates {
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
		StateSpace: &StateSpace{States: len(nodes), Truncated: truncated},
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
	return rep
}
