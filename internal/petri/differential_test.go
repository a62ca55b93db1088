// Differential property suite: every production kernel — packed full,
// stubborn-reduced and the structural fast path — must return exactly
// the verdict of the unpacked reference kernel in ref_test.go (Sound,
// NoCompletion and the sorted deadlock diagnostics) on the example
// corpus and on randomized constraint-set nets. The same corpus
// carries the 1-boundedness property that keeps Build nets inside the
// packed slot range. Every kernel is sequential and the
// suite runs on one goroutine, so -race has nothing to find here; CI
// runs it under -race only because the package's cancellation tests
// cancel from a second goroutine.
package petri

import (
	"context"
	"errors"
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
// The reduced configuration calls the packed exploration directly, so
// fastpath-eligible nets are explored (and reduced) too. It returns
// the method the default (auto) configuration picked.
func diffKernels(t *testing.T, name string, n *Net, fp []PlaceID) string {
	t.Helper()
	ctx := context.Background()
	ref := n.checkSoundnessRef(fp, 1<<20)
	want := verdictOf(ref)
	c, err := compile(n)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	cfp := c.compileFinalPlaces(fp)
	configs := []struct {
		label string
		run   func() (*SoundnessReport, error)
	}{
		{"full", func() (*SoundnessReport, error) {
			return n.CheckSoundness(ctx, ExploreOptions{FinalPlaces: fp, FullGraph: true})
		}},
		{"reduced", func() (*SoundnessReport, error) {
			return c.explore(ctx, 1<<20, cfp, c.reductionEligible(cfp))
		}},
		{"auto", func() (*SoundnessReport, error) {
			return n.CheckSoundness(ctx, ExploreOptions{FinalPlaces: fp})
		}},
	}
	autoMethod := ""
	for _, cfg := range configs {
		rep, err := cfg.run()
		if err != nil {
			t.Fatalf("%s/%s: %v", name, cfg.label, err)
		}
		if got := verdictOf(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s (method=%s): verdict = %+v, want %+v", name, cfg.label, rep.Method, got, want)
		}
		switch cfg.label {
		case "full":
			if rep.StateSpace.States != ref.StateSpace.States {
				t.Errorf("%s/full: %d states, reference %d", name, rep.StateSpace.States, ref.StateSpace.States)
			}
		case "auto":
			autoMethod = rep.Method
		}
	}
	return autoMethod
}

// buildFromSet runs the paper pipeline steps (desugar → translate →
// derive guards → build) and returns the net plus its mapping.
func buildFromSet(t *testing.T, sc *core.ConstraintSet) (*Net, *Mapping) {
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
	return n, m
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

// netCase is a corpus net with its final places.
type netCase struct {
	name string
	n    *Net
	fp   []PlaceID
}

// handcraftedNets are the traps of the differential corpus: a line, a
// choice with a dead branch, independent concurrency, a colored choice
// the reduction gate must refuse, colored consumers competing for one
// place and a final place that is emptied again.
func handcraftedNets() []netCase {
	var out []netCase
	{
		n, ps, _ := lineNet()
		out = append(out, netCase{"line", n, []PlaceID{ps[2]}})
	}
	{
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
		out = append(out, netCase{"trap", n, []PlaceID{done}})
	}
	{
		n := New()
		var done []PlaceID
		for i := 0; i < 8; i++ {
			ready := n.AddPlace("ready", "")
			d := n.AddPlace("done")
			n.AddTransition("run", In(ready, ""), Out(d, ""))
			done = append(done, d)
		}
		out = append(out, netCase{"independent8", n, done})
	}
	{
		// Colored tokens + a wildcard consumer on a multi-color
		// place: the reduction gate must refuse this net and the
		// packed kernels must still agree with the reference.
		n := New()
		src := n.AddPlace("src", "b", "a")
		mid := n.AddPlace("mid")
		done := n.AddPlace("done")
		n.AddTransition("take", In(src, ""), Out(mid, ""))
		n.AddTransition("fin", In(mid, ""), In(mid, ""), Out(done, ""))
		out = append(out, netCase{"colored-choice", n, []PlaceID{done}})
	}
	{
		// A wildcard and an exact-color consumer compete for a
		// two-color place.
		n := New()
		src := n.AddPlace("src", "b", "a", "a")
		dst := n.AddPlace("dst")
		n.AddTransition("any", In(src, ""), Out(dst, "x"))
		n.AddTransition("exact", In(src, "a"), Out(dst, "y"))
		out = append(out, netCase{"colored", n, []PlaceID{dst}})
	}
	{
		// A final place a later transition empties again: the
		// explorer's derived final count must fall as well as rise.
		n := New()
		p0 := n.AddPlace("p0", "")
		done := n.AddPlace("done")
		other := n.AddPlace("other", "")
		after := n.AddPlace("after")
		n.AddTransition("finish", In(p0, ""), Out(done, ""))
		n.AddTransition("undo", In(done, ""), In(other, ""), Out(after, ""))
		out = append(out, netCase{"final-consumed", n, []PlaceID{done, other, done}})
	}
	return out
}

func TestDifferentialHandcrafted(t *testing.T) {
	for _, tc := range handcraftedNets() {
		diffKernels(t, tc.name, tc.n, tc.fp)
	}
}

func TestDifferentialCyclic(t *testing.T) {
	n, m, err := Build(cyclicSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	diffKernels(t, "cyclic", n, donePlaces(m))
}

func TestDifferentialExclusive(t *testing.T) {
	n, m, err := Build(exclusiveSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	diffKernels(t, "exclusive", n, donePlaces(m))
}

// randomWorkloadSet is the constraint set of the seed-th randomized
// layered workload (varying shape, shortcut edges, decisions and
// services).
func randomWorkloadSet(t *testing.T, seed int) *core.ConstraintSet {
	t.Helper()
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
	return sc
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
		name := fmt.Sprintf("seed%d", seed)
		n, m := buildFromSet(t, randomWorkloadSet(t, seed))
		methods[diffKernels(t, name, n, donePlaces(m))]++
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

// TestDifferentialExplore pins the full packed graph to the reference
// explorer's: the same reachable markings, firings and dead markings
// on untruncated explorations.
func TestDifferentialExplore(t *testing.T) {
	nets := []struct {
		name  string
		build func() *Net
	}{
		{"line", func() *Net { n, _, _ := lineNet(); return n }},
		{"independent6", func() *Net { n, _ := independentNet(6); return n }},
		{"colored", func() *Net {
			n := New()
			src := n.AddPlace("src", "b", "a", "a")
			dst := n.AddPlace("dst")
			n.AddTransition("any", In(src, ""), Out(dst, "x"))
			n.AddTransition("exact", In(src, "a"), Out(dst, "y"))
			return n
		}},
	}
	for _, tc := range nets {
		n := tc.build()
		ref := n.exploreRef(1<<20, nil)
		c, err := compile(n)
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.exploreGraph(context.Background(), 1<<20, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		dead := 0
		for _, d := range g.dead {
			if d {
				dead++
			}
		}
		if g.n != ref.States || len(g.edgeTo) != ref.Transitions || dead != len(ref.Deadlocks) || g.truncated || ref.Truncated {
			t.Errorf("%s: full graph %d states/%d edges/%d dead, reference %+v", tc.name, g.n, len(g.edgeTo), dead, ref)
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
	fp := donePlaces(m)
	ref := n.checkSoundnessRef(fp, 100)
	got, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: fp, MaxStates: 100, FullGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.StateSpace.Truncated || got.StateSpace.States != ref.StateSpace.States ||
		!reflect.DeepEqual(verdictOf(got), verdictOf(ref)) {
		t.Errorf("truncated full = %+v/%+v, reference = %+v/%+v",
			verdictOf(got), got.StateSpace, verdictOf(ref), ref.StateSpace)
	}
}

// TestPackedOverflowIsTypedError drives nets past the packed 255-token
// slot range on every kernel path — exploration, fast path and
// compile — and asserts an *OverflowError comes back instead of a
// verdict.
func TestPackedOverflowIsTypedError(t *testing.T) {
	// gen reads its seed and grows sink without bound; not progressive,
	// so it is explored.
	generator := New()
	seed := generator.AddPlace("seed", "")
	sink := generator.AddPlace("sink")
	generator.AddTransition("gen", Read(seed, ""), Out(sink, ""))
	if ss := generator.exploreRef(400, nil); ss.MaxTokens <= 255 {
		t.Fatalf("generator did not exceed the packed range (MaxTokens=%d)", ss.MaxTokens)
	}

	// burst fires once and produces 256 tokens: fastpath-eligible.
	burst := New()
	start := burst.AddPlace("start", "")
	heap := burst.AddPlace("heap")
	arcs := []Arc{In(start, "")}
	for i := 0; i < 256; i++ {
		arcs = append(arcs, Out(heap, ""))
	}
	burst.AddTransition("burst", arcs...)

	// full starts with 256 tokens in one place: compile refuses it.
	full := New()
	tokens := make([]string, 256)
	pile := full.AddPlace("pile", tokens...)
	drained := full.AddPlace("drained")
	full.AddTransition("drain", In(pile, ""), Out(drained, ""))

	for _, tc := range []struct {
		name      string
		n         *Net
		fp        []PlaceID
		fullGraph bool
		place     string
	}{
		{"explored", generator, []PlaceID{sink}, false, "sink"},
		{"fastpath", burst, []PlaceID{heap}, false, "heap"},
		{"burst/full", burst, []PlaceID{heap}, true, "heap"},
		{"compile", full, []PlaceID{drained}, false, "pile"},
	} {
		reg := obs.NewRegistry()
		rep, err := tc.n.CheckSoundness(context.Background(), ExploreOptions{
			FinalPlaces: tc.fp, MaxStates: 400, FullGraph: tc.fullGraph, Metrics: reg})
		var oe *OverflowError
		if rep != nil || !errors.As(err, &oe) || oe.Place != tc.place {
			t.Errorf("%s: CheckSoundness = (%+v, %v), want an *OverflowError in %s", tc.name, rep, err, tc.place)
			continue
		}
		if c := reg.Counter("petri_states_explored_total").Value(); c != 0 {
			t.Errorf("%s: petri_states_explored_total = %d after an overflow, want 0", tc.name, c)
		}
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
	n, m := buildFromSet(t, sc)
	fp := donePlaces(m)
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: fp})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "fastpath" {
		t.Errorf("method = %q, want fastpath", rep.Method)
	}
	if !rep.Sound {
		t.Errorf("decision-free workload unsound: %v", rep.Deadlocks)
	}
	ref := n.checkSoundnessRef(fp, 1<<20)
	if !reflect.DeepEqual(verdictOf(rep), verdictOf(ref)) {
		t.Errorf("fastpath verdict %+v != reference %+v", verdictOf(rep), verdictOf(ref))
	}
}

// TestBuildNetsAreOneBounded is the property the packed kernel's slot
// range rests on: no place of a Build net ever holds more than one
// token, so the 255-token overflow is unreachable in production. Over
// the Build nets of the differential corpus — purchasing (ASC and
// minimal set), the handcrafted sets, and the random layered
// workloads with decisions and services — the reference explorer must
// finish untruncated with at most one token in any place, and Farkas
// must find wait + running + done = 1 for every activity. Karp–Miller
// confirms purchasing bounded independently of any state budget.
func TestBuildNetsAreOneBounded(t *testing.T) {
	corpus := buildCorpus(t)
	for _, tc := range corpus[:2] { // purchasing ASC and minimal set
		cov, err := tc.n.Coverability(context.Background(), 1<<19)
		if err != nil {
			t.Fatal(err)
		}
		if !cov.Bounded || cov.Inconclusive {
			t.Errorf("%s: coverability %+v", tc.name, cov)
		}
	}
	states := 0
	for _, tc := range corpus {
		ss := tc.n.exploreRef(1<<20, nil)
		states += ss.States
		if ss.Truncated || ss.MaxTokens > 1 {
			t.Errorf("%s: %d states, truncated=%v, max %d tokens in a place; want untruncated and at most 1",
				tc.name, ss.States, ss.Truncated, ss.MaxTokens)
		}
		invs, err := tc.n.PlaceInvariants(0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for id, wait := range tc.m.Wait {
			want := map[PlaceID]int64{wait: 1, tc.m.Running[id]: 1, tc.m.Done[id]: 1}
			found := false
			for _, inv := range invs {
				if inv.Constant == 1 && reflect.DeepEqual(inv.Weights, want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no invariant wait+running+done = 1 for %s", tc.name, id)
			}
		}
	}
	t.Logf("%d Build nets, %d reachable states, none with a place above 1 token", len(corpus), states)
}

// buildNet is a Build net of the differential corpus with its mapping.
type buildNet struct {
	name string
	n    *Net
	m    *Mapping
}

// buildCorpus builds the differential corpus's Build nets: purchasing
// (ASC and minimal set), the handcrafted constraint sets, and the
// random layered workloads with decisions and services (16 under
// -short, else 64).
func buildCorpus(t *testing.T) []buildNet {
	t.Helper()
	var corpus []buildNet
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
	}{{"purchasing/asc", asc}, {"purchasing/minimal", res.Minimal}} {
		n, m, err := Build(tc.sc, guards)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, buildNet{tc.name, n, m})
	}
	for _, tc := range []struct {
		name    string
		sc      *core.ConstraintSet
		guarded bool // cyclic sets have no guards to derive
	}{
		{"cyclic", cyclicSet(), false}, {"exclusive", exclusiveSet(), false},
		{"overlap", overlapSet(), false}, {"dpe", dpeSet(), true}, {"nested", nestedDecisionSet(), true},
	} {
		var g map[core.Node]cond.Expr
		if tc.guarded {
			g = buildGuards(t, tc.sc)
		}
		n, m, err := Build(tc.sc, g)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, buildNet{tc.name, n, m})
	}
	seeds := 64
	if testing.Short() {
		seeds = 16
	}
	for seed := 0; seed < seeds; seed++ {
		n, m := buildFromSet(t, randomWorkloadSet(t, seed))
		corpus = append(corpus, buildNet{fmt.Sprintf("seed%d", seed), n, m})
	}
	return corpus
}
