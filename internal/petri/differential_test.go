// Differential property suite: every optimized kernel — packed full,
// stubborn-reduced and the structural fast path — must return exactly
// the verdict of the unpacked reference kernel (Sound, NoCompletion
// and the sorted deadlock diagnostics) on the example corpus and on
// randomized constraint-set nets. Every kernel is sequential and the
// suite runs on one goroutine, so -race has nothing to find here; CI
// runs it under -race only because the package's cancellation tests
// cancel from a second goroutine.
package petri

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/workload"
)

// verdict is the kernel-independent slice of a SoundnessReport.
type verdict struct {
	Sound        bool
	NoCompletion bool
	Deadlocks    []string
}

func verdictOf(rep *SoundnessReport) verdict {
	return verdict{Sound: rep.Sound, NoCompletion: rep.NoCompletion, Deadlocks: rep.Deadlocks}
}

// diffKernels runs every kernel configuration over the net and fails
// the test on any verdict that differs from the reference kernel's.
// It returns the method the default (auto) configuration picked.
func diffKernels(t *testing.T, name string, n *Net, fp []PlaceID) string {
	t.Helper()
	ctx := context.Background()
	base := ExploreOptions{FinalPlaces: fp, MaxStates: 1 << 20}
	ref, err := n.checkSoundnessRef(ctx, base)
	if err != nil {
		t.Fatalf("%s: reference kernel: %v", name, err)
	}
	want := verdictOf(ref)
	configs := []struct {
		label string
		opts  ExploreOptions
	}{
		{"full", ExploreOptions{FinalPlaces: fp, NoFastPath: true, ReductionOff: true}},
		{"reduced", ExploreOptions{FinalPlaces: fp, NoFastPath: true}},
		{"auto", ExploreOptions{FinalPlaces: fp}},
	}
	autoMethod := ""
	for _, cfg := range configs {
		rep, err := n.CheckSoundness(ctx, cfg.opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, cfg.label, err)
		}
		if got := verdictOf(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s (method=%s): verdict = %+v, want %+v", name, cfg.label, rep.Method, got, want)
		}
		if cfg.label == "auto" {
			autoMethod = rep.Method
		}
	}
	return autoMethod
}

// buildFromSet runs the paper pipeline steps (desugar → translate →
// derive guards → build) and returns the net plus its completion
// places.
func buildFromSet(t *testing.T, sc *core.ConstraintSet) (*Net, []PlaceID) {
	t.Helper()
	if err := sc.Desugar(); err != nil {
		t.Fatal(err)
	}
	asc, err := core.TranslateServices(sc)
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	n, m, err := Build(asc, guards)
	if err != nil {
		t.Fatal(err)
	}
	return n, donePlaces(m)
}

func donePlaces(m *Mapping) []PlaceID {
	fp := make([]PlaceID, 0, len(m.Done))
	for _, p := range m.Done {
		fp = append(fp, p)
	}
	sort.Slice(fp, func(i, j int) bool { return fp[i] < fp[j] })
	return fp
}

func TestDifferentialPurchasing(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sc   *core.ConstraintSet
	}{{"asc", asc}, {"minimal", res.Minimal}} {
		n, m, err := Build(tc.sc, guards)
		if err != nil {
			t.Fatal(err)
		}
		method := diffKernels(t, "purchasing/"+tc.name, n, donePlaces(m))
		// Purchasing has decisions (guard variants competing for wait
		// places), so the auto path must be the reduced exploration,
		// not the fast path and not the unreduced graph.
		if method != "reduced" {
			t.Errorf("purchasing/%s: auto method = %q, want reduced", tc.name, method)
		}
	}
}

func TestDifferentialHandcrafted(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Net, []PlaceID)
	}{
		{"line", func() (*Net, []PlaceID) {
			n, ps, _ := lineNet()
			return n, []PlaceID{ps[2]}
		}},
		{"trap", func() (*Net, []PlaceID) {
			n := New()
			p0 := n.AddPlace("p0", "")
			good := n.AddPlace("good")
			stuckPre := n.AddPlace("stuckPre")
			never := n.AddPlace("never")
			done := n.AddPlace("done")
			n.AddTransition("ok", In(p0, ""), Out(good, ""))
			n.AddTransition("trap", In(p0, ""), Out(stuckPre, ""))
			n.AddTransition("finish", In(good, ""), Out(done, ""))
			n.AddTransition("blocked", In(stuckPre, ""), In(never, ""), Out(done, ""))
			return n, []PlaceID{done}
		}},
		{"independent8", func() (*Net, []PlaceID) {
			n := New()
			var done []PlaceID
			for i := 0; i < 8; i++ {
				ready := n.AddPlace("ready", "")
				d := n.AddPlace("done")
				n.AddTransition("run", In(ready, ""), Out(d, ""))
				done = append(done, d)
			}
			return n, done
		}},
		{"colored-choice", func() (*Net, []PlaceID) {
			// Colored tokens + a wildcard consumer on a multi-color
			// place: the reduction gate must refuse this net and the
			// packed kernels must still agree with the reference.
			n := New()
			src := n.AddPlace("src", "b", "a")
			mid := n.AddPlace("mid")
			done := n.AddPlace("done")
			n.AddTransition("take", In(src, ""), Out(mid, ""))
			n.AddTransition("fin", In(mid, ""), In(mid, ""), Out(done, ""))
			return n, []PlaceID{done}
		}},
	}
	for _, tc := range cases {
		n, fp := tc.build()
		diffKernels(t, tc.name, n, fp)
	}
}

func TestDifferentialCyclic(t *testing.T) {
	p := core.NewProcess("cycle")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Before("a", "b", core.Data)
	s.Before("b", "a", core.Data)
	n, m, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffKernels(t, "cyclic", n, donePlaces(m))
}

func TestDifferentialExclusive(t *testing.T) {
	p := core.NewProcess("excl")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "c", Kind: core.KindOpaque})
	s := core.NewConstraintSet(p)
	s.Add(core.Constraint{Rel: core.Exclusive,
		From: core.PointOf("a", core.Run), To: core.PointOf("b", core.Run), Cond: cond.True()})
	n, m, err := Build(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffKernels(t, "exclusive", n, donePlaces(m))
}

// TestDifferentialRandomNets sweeps ≥64 randomized layered workloads
// (varying shape, shortcut edges, decisions and services) through
// every kernel.
func TestDifferentialRandomNets(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 16
	}
	methods := map[string]int{}
	for seed := 0; seed < seeds; seed++ {
		// 3+ layers so WithDecisions has a middle rank to convert.
		layers := 3 + seed%2
		width := 2 + seed%2
		density := 0.25 + 0.1*float64(seed%3)
		w := workload.Layered(layers, width, density, int64(seed))
		if seed%3 == 1 {
			w = w.WithShortcuts(1 + seed%2)
		}
		if seed%4 == 2 || seed%4 == 3 {
			w = w.WithDecisions(1 + seed%2)
		}
		if seed%8 == 5 {
			w = w.WithServices(1)
		}
		sc, err := w.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed%d", seed)
		n, fp := buildFromSet(t, sc)
		methods[diffKernels(t, name, n, fp)]++
		if t.Failed() {
			t.Fatalf("verdict divergence at %s", name)
		}
	}
	// The sweep must exercise both regimes: decision-free workloads
	// are conflict-free and served polynomially; workloads with
	// decisions have competing guard variants and must fall back to
	// the reduced exploration.
	if methods["fastpath"] == 0 {
		t.Error("no random net took the structural fast path")
	}
	if methods["reduced"] == 0 {
		t.Error("no random net took the reduced exploration")
	}
	t.Logf("auto methods over %d random nets: %v", seeds, methods)
}

// TestDifferentialExplore pins the packed Explore statistics to the
// reference kernel's on full (untruncated) explorations.
func TestDifferentialExplore(t *testing.T) {
	nets := []struct {
		name  string
		build func() *Net
	}{
		{"line", func() *Net { n, _, _ := lineNet(); return n }},
		{"independent6", func() *Net {
			n := New()
			for i := 0; i < 6; i++ {
				ready := n.AddPlace("ready", "")
				d := n.AddPlace("done")
				n.AddTransition("run", In(ready, ""), Out(d, ""))
			}
			return n
		}},
		{"colored", func() *Net {
			n := New()
			src := n.AddPlace("src", "b", "a", "a")
			dst := n.AddPlace("dst")
			n.AddTransition("any", In(src, ""), Out(dst, "x"))
			n.AddTransition("exact", In(src, "a"), Out(dst, "y"))
			return n
		}},
	}
	ctx := context.Background()
	for _, tc := range nets {
		n := tc.build()
		opts := ExploreOptions{MaxStates: 1 << 20, Bound: 16}
		ref, err := n.exploreRef(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.Explore(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.States != ref.States || got.Transitions != ref.Transitions ||
			got.MaxTokens != ref.MaxTokens || got.Bounded != ref.Bounded ||
			got.Truncated != ref.Truncated ||
			len(got.Deadlocks) != len(ref.Deadlocks) || len(got.Finals) != len(ref.Finals) ||
			!reflect.DeepEqual(got.DeadTransitions, ref.DeadTransitions) {
			t.Errorf("%s: packed Explore = %+v, reference = %+v", tc.name, got, ref)
		}
		for i := range got.Deadlocks {
			if got.Deadlocks[i].Key() != ref.Deadlocks[i].Key() {
				t.Errorf("%s: deadlock %d differs: %s vs %s", tc.name, i,
					got.Deadlocks[i].Key(), ref.Deadlocks[i].Key())
			}
		}
	}
}

// TestDifferentialTruncation: the packed sequential kernels visit
// states in the same BFS insertion order as the reference, so even a
// MaxStates-truncated full exploration must match state for state.
func TestDifferentialTruncation(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	n, m, err := Build(asc, guards)
	if err != nil {
		t.Fatal(err)
	}
	opts := ExploreOptions{FinalPlaces: donePlaces(m), MaxStates: 100, NoFastPath: true, ReductionOff: true}
	ref, err := n.checkSoundnessRef(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.CheckSoundness(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StateSpace.Truncated || got.StateSpace.States != ref.StateSpace.States ||
		!reflect.DeepEqual(verdictOf(got), verdictOf(ref)) {
		t.Errorf("truncated full = %+v/%+v, reference = %+v/%+v",
			verdictOf(got), got.StateSpace, verdictOf(ref), ref.StateSpace)
	}
}

// TestPackedOverflowFallsBack drives a generator net past the packed
// 255-token slot range: Explore must transparently deliver the
// reference kernel's result and count the states it explored.
func TestPackedOverflowFallsBack(t *testing.T) {
	build := func() *Net {
		n := New()
		seed := n.AddPlace("seed", "")
		sink := n.AddPlace("sink")
		n.AddTransition("gen", Read(seed, ""), Out(sink, ""))
		return n
	}
	opts := ExploreOptions{MaxStates: 400, Bound: 8}
	ref, err := build().exploreRef(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	got, err := build().Explore(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := reg.Counter("petri_states_explored_total").Value(); c != int64(got.States) {
		t.Errorf("petri_states_explored_total = %d, want States = %d", c, got.States)
	}
	if got.States != ref.States || got.Truncated != ref.Truncated || got.Bounded != ref.Bounded ||
		got.MaxTokens != ref.MaxTokens {
		t.Errorf("overflow fallback = %+v, reference = %+v", got, ref)
	}
	if got.MaxTokens <= 255 {
		t.Fatalf("net did not exceed the packed range (MaxTokens=%d)", got.MaxTokens)
	}
}

// TestFastpathMethodSurfaced: a decision-free workload is conflict-
// free + progressive and must be decided polynomially, with the
// classification surfaced on the report.
func TestFastpathMethodSurfaced(t *testing.T) {
	w := workload.Layered(3, 3, 0.4, 7)
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	n, fp := buildFromSet(t, sc)
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: fp})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "fastpath" {
		t.Errorf("method = %q, want fastpath (classification %q)", rep.Method, rep.Classification)
	}
	if !rep.Sound {
		t.Errorf("decision-free workload unsound: %v", rep.Deadlocks)
	}
	ref, err := n.checkSoundnessRef(context.Background(), ExploreOptions{FinalPlaces: fp, MaxStates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(verdictOf(rep), verdictOf(ref)) {
		t.Errorf("fastpath verdict %+v != reference %+v", verdictOf(rep), verdictOf(ref))
	}
}
