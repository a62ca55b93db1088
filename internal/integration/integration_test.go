// Package integration exercises the whole system end to end: the four
// input front ends (seqlang/PDG, WSCL, analyst rules, DSCL), the
// optimization pipeline, both validators (Petri net + trace), both
// code generators (flat and structured BPEL), the decentral placement,
// the analytic estimator and the live engine with simulated services —
// all against the paper's running example, cross-checking that every
// path lands on the same Figure 9 result and that all executions agree.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/bpel"
	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/dscl"
	"dscweaver/internal/obs"
	"dscweaver/internal/pdg"
	"dscweaver/internal/petri"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/schedule"
	"dscweaver/internal/services"
	"dscweaver/internal/sim"
	"dscweaver/internal/weave"
	"dscweaver/internal/wscl"
)

// minimalEdgeSet renders a constraint set's happen-before pairs.
func minimalEdgeSet(sc *core.ConstraintSet) []string {
	var out []string
	for _, c := range sc.Constraints() {
		if c.Rel != core.HappenBefore {
			continue
		}
		out = append(out, fmt.Sprintf("%s→%s", c.From.Node, c.To.Node))
	}
	sort.Strings(out)
	return out
}

// TestAllFrontEndsAgreeOnFigure9 assembles the purchasing catalog
// through three independent routes and checks they minimize to the
// same 17 constraints:
//
//  1. the hand-written fixture (internal/purchasing);
//  2. the DSCL document (internal/dscl/testdata);
//  3. PDG extraction from the Figure 2 seqlang source + WSCL service
//     inference + the analyst's cooperation rules.
func TestAllFrontEndsAgreeOnFigure9(t *testing.T) {
	// Route 1: fixture.
	_, _, res1, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	want := minimalEdgeSet(res1.Minimal)
	if len(want) != 17 {
		t.Fatalf("fixture minimal = %d edges", len(want))
	}

	// Route 2: DSCL document.
	src := readFile(t, "../dscl/testdata/purchasing.dscl")
	doc, err := dscl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := weave.Run(context.Background(), weave.Input{Parsed: doc.Parsed()}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := minimalEdgeSet(res2.Minimize.Minimal); !equalStrings(got, want) {
		t.Errorf("DSCL route differs:\n%v\nvs\n%v", got, want)
	}

	// Route 3: PDG + WSCL + analyst rules.
	ex, err := pdg.Extract(pdg.PurchasingSeqlang)
	if err != nil {
		t.Fatal(err)
	}
	convs, err := wscl.PurchasingConversations()
	if err != nil {
		t.Fatal(err)
	}
	svcDeps, err := wscl.DependenciesAll(ex.Proc, convs...)
	if err != nil {
		t.Fatal(err)
	}
	coop := core.NewDependencySet()
	for _, d := range purchasing.Dependencies().ByDimension(core.Cooperation) {
		coop.Add(d)
	}
	merged, err := core.MergeSets(ex.Proc, ex.Deps, svcDeps, coop)
	if err != nil {
		t.Fatal(err)
	}
	asc, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := core.Minimize(asc)
	if err != nil {
		t.Fatal(err)
	}
	if got := minimalEdgeSet(res3.Minimal); !equalStrings(got, want) {
		t.Errorf("composed route differs:\n%v\nvs\n%v", got, want)
	}
}

// TestEveryBackEndAcceptsTheMinimalSet pushes the minimal set through
// every consumer and cross-checks their headline numbers.
func TestEveryBackEndAcceptsTheMinimalSet(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}

	// Petri validation.
	rep, err := petri.Validate(context.Background(), res.Minimal, guards)
	if err != nil || !rep.Sound {
		t.Fatalf("petri: %v %+v", err, rep)
	}

	// Lifecycle invariants and boundedness of the purchasing nets are
	// petri's TestBuildNetsAreOneBounded.

	// Both BPEL generators emit valid documents conserving the 17
	// orderings.
	flat, err := bpel.Generate(res.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if err := bpel.Validate(flat); err != nil {
		t.Fatal(err)
	}
	structured, err := bpel.GenerateStructured(res.Minimal, guards)
	if err != nil {
		t.Fatal(err)
	}
	if err := bpel.Validate(structured); err != nil {
		t.Fatal(err)
	}
	fs, ss := bpel.Summarize(flat), bpel.Summarize(structured)
	if fs.Links != 17 || ss.Links+ss.Implicit != 17 {
		t.Errorf("ordering not conserved: flat %+v structured %+v", fs, ss)
	}

	// Decentral placement accounts for all 17 constraints.
	plan, err := decentral.Place(res.Minimal, decentral.Pin(res.Minimal.Proc))
	if err != nil {
		t.Fatal(err)
	}
	if plan.LocalEdges+plan.CrossEdges != 17 {
		t.Errorf("decentral: %d+%d != 17", plan.LocalEdges, plan.CrossEdges)
	}

	// Analytic estimate: under unit latencies and the T branch, the
	// critical-path prediction equals Measure's critical path.
	est, err := sim.Estimate(res.Minimal, sim.Study{
		Trials: 1, Seed: 1, Guards: guards,
		Latency: sim.Fixed(time.Millisecond),
		Branch:  func(_ *rand.Rand, _ *core.Activity) string { return "T" },
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := core.Measure(res.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != time.Duration(metrics.CriticalPath)*time.Millisecond {
		t.Errorf("estimator mean %v vs critical path %d ms", est.Mean, metrics.CriticalPath)
	}

	// Live execution against the simulated services, validated against
	// the full ASC.
	bus := services.NewBus(0)
	if err := services.RegisterPurchasing(bus, 0, true); err != nil {
		t.Fatal(err)
	}
	binding := schedule.NewBinding(bus)
	eng, err := schedule.New(res.Minimal, binding.Executors(asc.Proc, 0), schedule.Options{
		Guards: guards, Inputs: map[string]any{"po": "po-9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("%v\n%s", err, tr)
	}
	bus.Close()
	binding.Close()
	if err := tr.Validate(asc, guards); err != nil {
		t.Fatal(err)
	}
	if len(tr.Executed()) != 13 {
		t.Errorf("executed = %d, want 13", len(tr.Executed()))
	}
}

// TestObservabilityRoundTripPurchasing runs the purchasing example live
// with all three layers instrumented into one registry and one JSONL
// event log, then replays the log from disk: the rebuilt trace must
// validate against the full ASC and guard set, and the exposition must
// carry families from minimizer, bus and engine.
func TestObservabilityRoundTripPurchasing(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewJSONLWriter(f)

	// Minimizer layer: re-minimize the ASC with instrumentation on.
	if _, err := core.MinimizeOpt(context.Background(), asc, core.MinimizeOptions{Metrics: reg, Events: log}); err != nil {
		t.Fatal(err)
	}

	// Bus + engine layers: the live run.
	bus := services.NewBus(0).Observe(reg, log)
	if err := services.RegisterPurchasing(bus, 0, true); err != nil {
		t.Fatal(err)
	}
	binding := schedule.NewBinding(bus)
	eng, err := schedule.New(res.Minimal, binding.Executors(asc.Proc, 0), schedule.Options{
		Guards: guards, Inputs: map[string]any{"po": "po-9"},
		Metrics: reg, Events: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("%v\n%s", err, live)
	}
	bus.Close()
	binding.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: the JSONL stream alone must reconstruct a valid trace.
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	events, err := obs.ReadJSONL(rf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := schedule.TraceFromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayed.Validate(asc, guards); err != nil {
		t.Errorf("replayed trace invalid: %v", err)
	}
	if got, want := len(replayed.Executed()), len(live.Executed()); got != want {
		t.Errorf("replayed %d executed activities, live %d", got, want)
	}

	// One registry spans all three layers.
	expo := reg.String()
	for _, family := range []string{"minimize_runs_total", "bus_invocations_total", "schedule_runs_total"} {
		if !strings.Contains(expo, family) {
			t.Errorf("exposition missing %s:\n%s", family, expo)
		}
	}
	layers := map[string]bool{}
	for _, e := range events {
		layers[e.Layer] = true
	}
	for _, l := range []string{obs.LayerMinimize, obs.LayerBus, obs.LayerEngine} {
		if !layers[l] {
			t.Errorf("event log missing layer %s (got %v)", l, layers)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
