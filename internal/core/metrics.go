package core

import (
	"dscweaver/internal/graph"
)

// Metrics summarizes the scheduling shape of a constraint set at
// activity granularity: the critical-path length bounds the makespan
// from below (in units of activity executions) and the width bounds
// the achievable parallelism from above. The concurrency benches
// compare the engine's measured makespan and peak parallelism against
// these structural numbers.
type Metrics struct {
	// Activities counts internal activities.
	Activities int
	// Constraints counts HappenBefore constraints.
	Constraints int
	// CriticalPath is the number of activities on the longest
	// happen-before chain (≥ 1 for a nonempty process).
	CriticalPath int
	// Width is the size of the largest set of pairwise-unordered
	// activities (layer-based estimate; exact on layered DAGs).
	Width int
}

// Measure computes the metrics of a translated (activity-level)
// constraint set, ignoring conditions: the critical path of the
// all-branches-taken relaxation.
func Measure(sc *ConstraintSet) (Metrics, error) {
	acts := sc.Proc.Activities()
	idx := make(map[ActivityID]int, len(acts))
	g := graph.New(len(acts))
	for i, a := range acts {
		idx[a.ID] = i
		g.AddNode()
	}
	m := Metrics{Activities: len(acts)}
	for _, c := range sc.constraints {
		if c.Rel != HappenBefore {
			continue
		}
		m.Constraints++
		if c.From.Node.IsService() || c.To.Node.IsService() {
			continue
		}
		u, v := idx[c.From.Node.Activity], idx[c.To.Node.Activity]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	depth, err := g.LongestPathLengths()
	if err != nil {
		return Metrics{}, err
	}
	for _, d := range depth {
		if d+1 > m.CriticalPath {
			m.CriticalPath = d + 1
		}
	}
	w, err := g.AntichainWidth()
	if err != nil {
		return Metrics{}, err
	}
	m.Width = w
	return m, nil
}
