// Package sim estimates process makespan distributions analytically:
// per trial it samples an execution duration for every activity and a
// branch for every decision, dead-path-eliminates the skipped
// activities, and computes the critical path of the remaining
// constraint DAG — the makespan an ideal dependency-driven engine with
// unlimited workers would realize. Thousands of trials take
// milliseconds because nothing executes, which makes the estimator
// suitable for what-if studies: compare constraint sets (minimal vs
// construct baseline), latency models, or branch biases before
// deploying a process.
//
// The estimator understands activity-level F→S constraints (the form
// optimization produces). Sets with state-level constraints are
// rejected: overlapping life spans have no single-duration reading.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/graph"
)

// LatencyModel samples the execution duration of an activity.
type LatencyModel func(r *rand.Rand, id core.ActivityID) time.Duration

// Fixed returns a model where every activity takes d.
func Fixed(d time.Duration) LatencyModel {
	return func(*rand.Rand, core.ActivityID) time.Duration { return d }
}

// Uniform returns a model sampling uniformly from [min, max].
func Uniform(min, max time.Duration) LatencyModel {
	if max < min {
		min, max = max, min
	}
	return func(r *rand.Rand, _ core.ActivityID) time.Duration {
		if max == min {
			return min
		}
		return min + time.Duration(r.Int63n(int64(max-min)+1))
	}
}

// BranchModel samples a decision outcome.
type BranchModel func(r *rand.Rand, dec *core.Activity) string

// UniformBranch samples branches uniformly.
func UniformBranch(r *rand.Rand, dec *core.Activity) string {
	dom := dec.BranchDomain()
	return dom[r.Intn(len(dom))]
}

// Study configures an estimation run.
type Study struct {
	// Trials is the number of samples (default 1000).
	Trials int
	// Seed makes the study deterministic.
	Seed int64
	// Latency samples activity durations (default Fixed(1ms)).
	Latency LatencyModel
	// Branch samples decision outcomes (default UniformBranch).
	Branch BranchModel
	// Guards overrides execution guards (nil derives from the set).
	Guards map[core.Node]cond.Expr
}

// Summary aggregates the sampled makespans.
type Summary struct {
	Trials int
	Mean   time.Duration
	Min    time.Duration
	Max    time.Duration
	P50    time.Duration
	P95    time.Duration
}

// Estimate runs the study against a constraint set.
func Estimate(sc *core.ConstraintSet, study Study) (Summary, error) {
	if study.Trials <= 0 {
		study.Trials = 1000
	}
	if study.Latency == nil {
		study.Latency = Fixed(time.Millisecond)
	}
	if study.Branch == nil {
		study.Branch = UniformBranch
	}
	guards := study.Guards
	if guards == nil {
		g, err := core.DeriveGuards(sc)
		if err != nil {
			return Summary{}, err
		}
		guards = g
	}

	proc := sc.Proc
	acts := proc.Activities()
	idx := make(map[core.ActivityID]int, len(acts))
	for i, a := range acts {
		idx[a.ID] = i
	}
	g := graph.New(len(acts))
	for range acts {
		g.AddNode()
	}
	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		if c.Rel != core.HappenBefore {
			continue
		}
		if c.From.Node.IsService() || c.To.Node.IsService() {
			return Summary{}, fmt.Errorf("sim: external node in %s; translate first", c)
		}
		if c.From.State != core.Finish || c.To.State != core.Start {
			return Summary{}, fmt.Errorf("sim: state-level constraint %s has no single-duration reading", c)
		}
		u, v := idx[c.From.Node.Activity], idx[c.To.Node.Activity]
		if u != v {
			g.AddEdge(u, v)
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		return Summary{}, fmt.Errorf("sim: %w", err)
	}

	r := rand.New(rand.NewSource(study.Seed))
	samples := make([]time.Duration, study.Trials)
	finish := make([]int64, len(acts))
	durs := make([]int64, len(acts))
	skipped := make([]bool, len(acts))

	for trial := 0; trial < study.Trials; trial++ {
		// Sample branches, derive skips from guards.
		outcomes := map[string]string{}
		for _, a := range acts {
			if a.Kind == core.KindDecision {
				outcomes[string(a.ID)] = study.Branch(r, a)
			}
		}
		// Guard evaluation follows topological order so a skipped
		// decision's outcome is cleared before its dependents' guards
		// are read.
		for _, u := range order {
			a := acts[u]
			guard := cond.True()
			if gg, ok := guards[core.ActivityNode(a.ID)]; ok {
				guard = gg
			}
			skipped[u] = !guard.Eval(outcomes)
			if skipped[u] && a.Kind == core.KindDecision {
				outcomes[string(a.ID)] = "" // skipped decision: literals false
			}
			if skipped[u] {
				durs[u] = 0
			} else {
				durs[u] = int64(study.Latency(r, a.ID))
			}
		}
		// Critical path in topo order; skipped activities relay
		// release times with zero duration (dead-path elimination).
		var makespan int64
		for i := range finish {
			finish[i] = 0
		}
		for _, u := range order {
			finish[u] += durs[u]
			if finish[u] > makespan {
				makespan = finish[u]
			}
			for _, v := range g.Succ(u) {
				if finish[u] > finish[v] {
					finish[v] = finish[u]
				}
			}
		}
		samples[trial] = time.Duration(makespan)
	}

	return summarize(samples), nil
}

func summarize(samples []time.Duration) Summary {
	s := Summary{Trials: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	s.Mean = total / time.Duration(len(sorted))
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P50 = sorted[len(sorted)/2]
	s.P95 = sorted[(len(sorted)*95)/100]
	return s
}
