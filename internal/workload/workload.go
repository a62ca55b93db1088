// Package workload generates synthetic business processes for the
// scaling and concurrency benchmarks. The paper evaluates only its
// running example; these generators let the benches substantiate its
// two claimed benefits — higher concurrency and lower maintenance
// cost — across process sizes (see DESIGN.md's per-experiment index).
//
// The base shape is a layered DAG: `layers` ranks of `width` activities
// each, with definition-use data dependencies between adjacent ranks.
// On top of that:
//
//   - WithShortcuts adds transitively-redundant cooperation edges —
//     the fodder the minimal-set algorithm removes;
//   - WithDecisions converts interior activities into decisions whose
//     successors become branch-guarded — exercising the
//     condition-annotated closure;
//   - SequencingBaseline serializes each rank, modeling the
//     over-specification a sequence-construct implementation imposes
//     on logically parallel work (the paper's Figure 2 critique).
//
// All generation is deterministic in the seed.
package workload

import (
	"fmt"
	"math/rand"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// Workload is a generated process plus its dependency catalog.
type Workload struct {
	Proc *core.Process
	Deps *core.DependencySet

	rng    *rand.Rand
	layers [][]core.ActivityID
}

// Layered generates the base layered DAG. Every activity in rank l+1
// receives at least one data dependency from rank l; additional edges
// appear with probability density. Activities are opaque; interior
// ones write one variable each, consumed by their dependents.
func Layered(layers, width int, density float64, seed int64) *Workload {
	if layers < 2 {
		panic("workload: need at least 2 layers")
	}
	if width < 1 {
		panic("workload: need positive width")
	}
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{
		Proc: core.NewProcess(fmt.Sprintf("synthetic_%dx%d", layers, width)),
		Deps: core.NewDependencySet(),
		rng:  rng,
	}
	w.layers = make([][]core.ActivityID, layers)
	for l := 0; l < layers; l++ {
		w.layers[l] = make([]core.ActivityID, width)
		for i := 0; i < width; i++ {
			id := core.ActivityID(fmt.Sprintf("a_%d_%d", l, i))
			w.layers[l][i] = id
			w.Proc.MustAddActivity(&core.Activity{
				ID: id, Kind: core.KindOpaque,
				Writes: []string{"v_" + string(id)},
			})
		}
	}
	for l := 0; l+1 < layers; l++ {
		for _, to := range w.layers[l+1] {
			// Guaranteed parent keeps the DAG connected.
			parent := w.layers[l][rng.Intn(width)]
			w.addData(parent, to)
			for _, from := range w.layers[l] {
				if from != parent && rng.Float64() < density {
					w.addData(from, to)
				}
			}
		}
	}
	return w
}

func (w *Workload) addData(from, to core.ActivityID) {
	w.Deps.Add(core.Dependency{
		From: core.ActivityNode(from), To: core.ActivityNode(to),
		Dim: core.Data, Label: "v_" + string(from),
	})
	if a, ok := w.Proc.Activity(to); ok {
		a.Reads = append(a.Reads, "v_"+string(from))
	}
}

// WithShortcuts adds n cooperation dependencies between randomly
// chosen already-connected (source rank < target rank − 1) pairs.
// Each such edge parallels an existing multi-hop path with high
// probability and is therefore removable by minimization; the benches
// report the realized redundancy rather than assuming it.
func (w *Workload) WithShortcuts(n int) *Workload {
	L := len(w.layers)
	for k := 0; k < n; k++ {
		lFrom := w.rng.Intn(L - 1)
		lTo := lFrom + 2
		if lTo >= L {
			lTo = L - 1
		}
		if lTo <= lFrom {
			continue
		}
		from := w.layers[lFrom][w.rng.Intn(len(w.layers[lFrom]))]
		to := w.layers[lTo][w.rng.Intn(len(w.layers[lTo]))]
		w.Deps.Add(core.Dependency{
			From: core.ActivityNode(from), To: core.ActivityNode(to),
			Dim: core.Cooperation, Label: "shortcut",
		})
	}
	return w
}

// WithDecisions converts up to n interior activities (none in the
// first or last rank) into boolean decisions and adds branch-guarded
// control dependencies from each to next-rank activities it does not
// already feed data, alternating T and F. The resulting guards
// exercise the condition-annotated closure: unconditional edges into
// guarded activities become candidates for guard subsumption.
func (w *Workload) WithDecisions(n int) *Workload {
	converted := 0
	for l := 1; l < len(w.layers)-1 && converted < n; l++ {
		for _, id := range w.layers[l] {
			if converted >= n {
				break
			}
			a, _ := w.Proc.Activity(id)
			if a.Kind == core.KindDecision {
				continue
			}
			dataSucc := map[core.ActivityID]bool{}
			for _, d := range w.Deps.All() {
				if d.Dim == core.Data && d.From.Activity == id {
					dataSucc[d.To.Activity] = true
				}
			}
			a.Kind = core.KindDecision
			a.Branches = []string{"T", "F"}
			branch := "T"
			for _, to := range w.layers[l+1] {
				if dataSucc[to] {
					continue
				}
				w.Deps.Add(core.Dependency{
					From: core.ActivityNode(id), To: core.ActivityNode(to),
					Dim: core.Control, Branch: branch,
				})
				if branch == "T" {
					branch = "F"
				} else {
					branch = "T"
				}
			}
			converted++
		}
	}
	return w
}

// Constraints merges the catalog into a constraint set.
func (w *Workload) Constraints() (*core.ConstraintSet, error) {
	return core.Merge(w.Proc, w.Deps)
}

// SequencingBaseline returns the merged constraints plus a total order
// within every rank — the schedule a sequence-construct implementation
// imposes when a programmer writes each rank as a sequence instead of
// a flow. The extra edges are all redundant with respect to no
// dependency at all: pure over-specification.
func (w *Workload) SequencingBaseline() (*core.ConstraintSet, error) {
	sc, err := w.Constraints()
	if err != nil {
		return nil, err
	}
	for _, rank := range w.layers {
		for i := 0; i+1 < len(rank); i++ {
			sc.Add(core.Constraint{
				Rel:     core.HappenBefore,
				From:    core.PointOf(rank[i], core.Finish),
				To:      core.PointOf(rank[i+1], core.Start),
				Cond:    cond.True(),
				Origins: []core.Dimension{core.Control},
				Labels:  []string{"sequence construct"},
			})
		}
	}
	return sc, nil
}

// WithServices attaches n asynchronous remote services: for each, an
// existing activity of rank r becomes the invoker of the service's
// single port and a fresh receive activity (inserted as an extra
// member of rank r+1, feeding the guaranteed child of its rank) awaits
// the callback, contributing the invCredit_po → Credit.1 → Credit.d →
// recCredit_au shape of Table 1's service block. The resulting sets
// exercise TranslateServices at scale.
func (w *Workload) WithServices(n int) *Workload {
	L := len(w.layers)
	for k := 0; k < n; k++ {
		svcName := fmt.Sprintf("Svc%d", k)
		w.Proc.MustAddService(&core.Service{Name: svcName, Ports: []string{"1"}, Async: true})
		r := w.rng.Intn(L - 1)
		invoker := w.layers[r][w.rng.Intn(len(w.layers[r]))]
		inv, _ := w.Proc.Activity(invoker)
		if inv.Kind != core.KindOpaque {
			continue // keep decisions and prior invokers untouched
		}
		inv.Kind = core.KindInvoke
		inv.Service = svcName
		inv.Port = "1"

		recID := core.ActivityID(fmt.Sprintf("rec_%s", svcName))
		w.Proc.MustAddActivity(&core.Activity{
			ID: recID, Kind: core.KindReceive, Service: svcName, Port: core.DummyPort,
			Writes: []string{"cb_" + svcName},
		})
		w.layers[r+1] = append(w.layers[r+1], recID)

		w.Deps.Add(core.Dependency{From: core.ActivityNode(invoker), To: core.ServiceNode(svcName, "1"), Dim: core.ServiceDim})
		w.Deps.Add(core.Dependency{From: core.ServiceNode(svcName, "1"), To: core.ServiceNode(svcName, core.DummyPort), Dim: core.ServiceDim})
		w.Deps.Add(core.Dependency{From: core.ServiceNode(svcName, core.DummyPort), To: core.ActivityNode(recID), Dim: core.ServiceDim})
		// The callback feeds a consumer downstream so translation
		// produces a live internal constraint.
		if r+2 < L {
			consumer := w.layers[r+2][w.rng.Intn(len(w.layers[r+2]))]
			w.Deps.Add(core.Dependency{From: core.ActivityNode(recID), To: core.ActivityNode(consumer), Dim: core.Data, Label: "cb_" + svcName})
		}
	}
	return w
}

// Fan generates the pathological best case for dependency-driven
// scheduling: one source, n independent workers, one sink — the shape
// of the Purchasing process's three subprocesses generalized.
func Fan(n int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{
		Proc: core.NewProcess(fmt.Sprintf("fan_%d", n)),
		Deps: core.NewDependencySet(),
		rng:  rng,
	}
	src := core.ActivityID("source")
	sink := core.ActivityID("sink")
	w.Proc.MustAddActivity(&core.Activity{ID: src, Kind: core.KindOpaque, Writes: []string{"v"}})
	mid := make([]core.ActivityID, n)
	for i := 0; i < n; i++ {
		mid[i] = core.ActivityID(fmt.Sprintf("worker_%d", i))
		w.Proc.MustAddActivity(&core.Activity{ID: mid[i], Kind: core.KindOpaque, Reads: []string{"v"}, Writes: []string{fmt.Sprintf("r%d", i)}})
	}
	w.Proc.MustAddActivity(&core.Activity{ID: sink, Kind: core.KindOpaque})
	w.layers = [][]core.ActivityID{{src}, mid, {sink}}
	for i := 0; i < n; i++ {
		w.addData(src, mid[i])
		w.Deps.Add(core.Dependency{
			From: core.ActivityNode(mid[i]), To: core.ActivityNode(sink),
			Dim: core.Data, Label: fmt.Sprintf("r%d", i),
		})
	}
	return w
}
