// Karp–Miller coverability, kept in test code: it decides
// boundedness for arbitrary nets, and the 1-boundedness property test
// uses it on purchasing as an independent proof that Build nets stay
// inside the packed kernel's slot range.

package petri

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Omega is the token count representing "unboundedly many" in a
// coverability marking (Karp–Miller acceleration).
const Omega = -1

// covMarking is a marking whose per-color counts may be Omega.
type covMarking []map[string]int

func covFromMarking(m Marking) covMarking {
	out := make(covMarking, len(m))
	for i, tokens := range m {
		out[i] = map[string]int{}
		for c, k := range tokens {
			out[i][c] = k
		}
	}
	return out
}

func (m covMarking) clone() covMarking {
	out := make(covMarking, len(m))
	for i, tokens := range m {
		out[i] = make(map[string]int, len(tokens))
		for c, k := range tokens {
			out[i][c] = k
		}
	}
	return out
}

func (m covMarking) count(p PlaceID, color string) int {
	return m[p][color]
}

// available reports how many tokens of the color are usable (Omega
// behaves as infinity). color "" sums all colors.
func (m covMarking) available(p PlaceID, color string) int {
	if color != "" {
		return normInf(m[p][color])
	}
	total := 0
	for _, k := range m[p] {
		if k == Omega {
			return int(^uint(0) >> 1)
		}
		total += k
	}
	return total
}

func normInf(k int) int {
	if k == Omega {
		return int(^uint(0) >> 1)
	}
	return k
}

func (m covMarking) key() string {
	var b strings.Builder
	for i, tokens := range m {
		if len(tokens) == 0 {
			continue
		}
		colors := make([]string, 0, len(tokens))
		for c, k := range tokens {
			if k != 0 {
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

// geq reports m ≥ o pointwise (Omega dominates).
func (m covMarking) geq(o covMarking) bool {
	for i := range o {
		for c, k := range o[i] {
			if k == 0 {
				continue
			}
			mk := m[i][c]
			if mk == Omega {
				continue
			}
			if k == Omega || mk < k {
				return false
			}
		}
	}
	return true
}

// strictlyAbove reports m ≥ o with strict excess somewhere.
func (m covMarking) strictlyAbove(o covMarking) bool {
	if !m.geq(o) {
		return false
	}
	for i := range m {
		for c, k := range m[i] {
			ok := o[i][c]
			if k == Omega && ok != Omega {
				return true
			}
			if k != Omega && ok != Omega && k > ok {
				return true
			}
		}
	}
	return false
}

// accelerate sets to Omega every (place, color) where m exceeds the
// ancestor o, in place.
func (m covMarking) accelerate(o covMarking) {
	for i := range m {
		for c, k := range m[i] {
			ok := o[i][c]
			if k == Omega || ok == Omega {
				continue
			}
			if k > ok {
				m[i][c] = Omega
			}
		}
	}
}

// covEnabled mirrors Net.enabled over coverability markings.
func (n *Net) covEnabled(m covMarking, t TransitionID) bool {
	need := map[PlaceID]map[string]int{}
	needAny := map[PlaceID]int{}
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
			if m.available(a.Place, a.Color) < 1 {
				return false
			}
		}
	}
	for p, colors := range need {
		for c, k := range colors {
			if m.available(p, c) < k {
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
		if m.available(p, "")-exact < k {
			return false
		}
	}
	return true
}

// covFire fires t over a coverability marking (Omega counts are
// sticky).
func (n *Net) covFire(m covMarking, t TransitionID) covMarking {
	out := m.clone()
	take := func(p PlaceID, c string) {
		if out[p][c] == Omega {
			return
		}
		out[p][c]--
		if out[p][c] == 0 {
			delete(out[p], c)
		}
	}
	for _, a := range n.transitions[t].Arcs {
		if a.Kind != ArcIn {
			continue
		}
		if a.Color != "" {
			take(a.Place, a.Color)
			continue
		}
		colors := make([]string, 0, len(out[a.Place]))
		for c, k := range out[a.Place] {
			if k != 0 {
				colors = append(colors, c)
			}
		}
		sort.Strings(colors)
		take(a.Place, colors[0])
	}
	for _, a := range n.transitions[t].Arcs {
		if a.Kind == ArcOut {
			if out[a.Place][a.Color] != Omega {
				out[a.Place][a.Color]++
			}
		}
	}
	return out
}

// CoverabilityReport is the result of the Karp–Miller construction.
type CoverabilityReport struct {
	// Bounded is definitive unless Inconclusive is set.
	Bounded bool
	// UnboundedPlaces lists places that acquired an ω count.
	UnboundedPlaces []PlaceID
	// Nodes counts coverability-tree nodes explored.
	Nodes int
	// Inconclusive is true when the node limit was hit before the
	// construction closed.
	Inconclusive bool
}

// Coverability runs the Karp–Miller coverability construction: a
// definitive boundedness decision for the net (colored tokens are
// treated per (place, color) pair). maxNodes bounds the tree (default
// 1 << 18). ctx is checked every ctxCheckEvery expanded nodes
// alongside maxNodes; a canceled construction returns ctx.Err().
func (n *Net) Coverability(ctx context.Context, maxNodes int) (*CoverabilityReport, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 18
	}
	type node struct {
		m      covMarking
		parent int
	}
	root := covFromMarking(n.InitialMarking())
	nodes := []node{{m: root, parent: -1}}
	seen := map[string]bool{root.key(): true}
	rep := &CoverabilityReport{Bounded: true}
	omega := map[PlaceID]bool{}

	for i := 0; i < len(nodes); i++ {
		if err := ctxErrEvery(ctx, i); err != nil {
			return nil, err
		}
		cur := nodes[i]
		rep.Nodes++
		for t := range n.transitions {
			if !n.covEnabled(cur.m, TransitionID(t)) {
				continue
			}
			next := n.covFire(cur.m, TransitionID(t))
			// Acceleration against every ancestor.
			for anc := i; anc != -1; anc = nodes[anc].parent {
				if next.strictlyAbove(nodes[anc].m) {
					next.accelerate(nodes[anc].m)
				}
			}
			for p := range next {
				for _, k := range next[p] {
					if k == Omega && !omega[PlaceID(p)] {
						omega[PlaceID(p)] = true
						rep.Bounded = false
					}
				}
			}
			key := next.key()
			if seen[key] {
				continue
			}
			if len(nodes) >= maxNodes {
				rep.Inconclusive = true
				rep.Bounded = false
				break
			}
			seen[key] = true
			nodes = append(nodes, node{m: next, parent: i})
		}
		if rep.Inconclusive {
			break
		}
	}
	for p := range omega {
		rep.UnboundedPlaces = append(rep.UnboundedPlaces, p)
	}
	sort.Slice(rep.UnboundedPlaces, func(a, b int) bool { return rep.UnboundedPlaces[a] < rep.UnboundedPlaces[b] })
	return rep, nil
}
