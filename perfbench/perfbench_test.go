package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"dscweaver/internal/obs"
	"dscweaver/internal/server"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
)

// The repository root, seen from the package directory.
const root = ".."

func TestSourcesByteIdenticalForSeed(t *testing.T) {
	for _, name := range []string{"serve-mixed", "execute"} {
		a, err := pool(name, 7, root)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := pool(name, 7, root)
		c, _ := pool(name, 8, root)
		differs := false
		for i := range a {
			if a[i].text != b[i].text {
				t.Errorf("%s source %d differs between two generations with seed 7", name, i)
			}
			differs = differs || a[i].text != c[i].text
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same pool", name)
		}
	}
	if heavySource(7, 1, 3) != heavySource(7, 1, 3) {
		t.Error("weave-heavy source differs between two generations")
	}
	if heavySource(7, 1, 3) == heavySource(7, 1, 4) || heavySource(7, 0, 3) == heavySource(7, 1, 3) {
		t.Error("weave-heavy sources repeat across requests")
	}
}

func TestTailRuleKeepsTenBeyondP95(t *testing.T) {
	for _, n := range []int{minTail, minTail + 1, minTail + 19, 1000} {
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		p95 := percentile(sorted, 0.95)
		after := 0
		for _, v := range sorted {
			if v > p95 {
				after++
			}
		}
		if after < 10 || after != beyond(n, 0.95) {
			t.Errorf("n=%d: %d samples beyond p95 (beyond() says %d), want >= 10", n, after, beyond(n, 0.95))
		}
	}
	spec, _ := lookupWorkload("execute")
	d := newLoadgen(spec, 1, nil, "", "", nil, nil)
	d.done[opIndex(opSimulate)].Store(minTail)
	d.done[opIndex(opEnact)].Store(minTail - 1)
	if d.tailMet() {
		t.Error("tail rule met with an operation short of samples")
	}
	d.done[opIndex(opEnact)].Add(1)
	if !d.tailMet() {
		t.Error("tail rule not met with every operation at minTail")
	}
}

func TestCheckWeaveRejectsCorruptedMinimalSet(t *testing.T) {
	sources, err := pool("serve-mixed", 1, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sources[:2] { // purchasing and one generated process
		if err := src.prepare(); err != nil {
			t.Fatal(err)
		}
		res, err := weave.Run(context.Background(), weave.Input{Source: src.text}, weave.Options{Frontend: front.DSCL, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		sound := res.Soundness.Sound
		good := server.WeaveResponse{
			MinimalConstraints: res.Minimize.Minimal.Len(),
			Removed:            len(res.Minimize.Removed),
			Minimal:            render(res.Minimize.Minimal),
			Sound:              &sound,
			States:             res.Soundness.StateSpace.States,
			ValidateMethod:     res.Soundness.Method,
		}
		if err := checkWeave(&good, src); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", src.name, err)
		}
		bad := good
		bad.Minimal = append([]string(nil), good.Minimal[1:]...)
		if checkWeave(&bad, src) == nil {
			t.Errorf("%s: minimal set missing a constraint accepted", src.name)
		}
		bad = good
		bad.Minimal = append([]string(nil), good.Minimal...)
		bad.Minimal[0], bad.Minimal[1] = bad.Minimal[1], bad.Minimal[0]
		if checkWeave(&bad, src) == nil {
			t.Errorf("%s: reordered minimal set accepted", src.name)
		}
		if src.purchasing {
			bad = good
			bad.States++
			if checkWeave(&bad, src) == nil {
				t.Error("purchasing with a wrong state count accepted")
			}
		}
	}
}

func TestCheckTraceRejectsInvalidTrace(t *testing.T) {
	sources, _ := pool("serve-mixed", 1, root)
	src := sources[2]
	if err := src.prepare(); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	body, _ := json.Marshal(map[string]any{"source": src.text})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body)))
	var resp server.SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || checkSimulate(&resp) != nil {
		t.Fatalf("simulate: %v %+v", err, resp)
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs/"+resp.RunID+"/events", nil))
	if err := checkEvents(rec.Body.Bytes(), false, opSimulate, src); err != nil {
		t.Fatalf("valid event log rejected: %v", err)
	}
	evs, err := obs.ReadJSONL(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the engine's commit order: every constraint now runs
	// backwards.
	var maxSeq int
	for _, e := range evs {
		maxSeq = max(maxSeq, e.Seq)
	}
	for i := range evs {
		if evs[i].Layer == obs.LayerEngine && evs[i].Seq > 0 {
			evs[i].Seq = maxSeq + 1 - evs[i].Seq
		}
	}
	if checkTrace(evs, src) == nil {
		t.Error("trace with reversed commit order accepted")
	}
	if checkEvents(rec.Body.Bytes(), true, opSimulate, src) == nil {
		t.Error("truncated replay accepted")
	}
}

func TestCheckEnactRejectsWrongEdgeCount(t *testing.T) {
	ok := server.EnactResponse{Valid: true, EdgeMessages: 4, PredictedCrossEdges: 4}
	if err := checkEnact(&ok); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.EdgeMessages = 3
	if checkEnact(&bad) == nil {
		t.Error("edge messages below the predicted cross edges accepted")
	}
	bad = ok
	bad.Valid = false
	if checkEnact(&bad) == nil {
		t.Error("invalid enactment accepted")
	}
}

func TestCheckRunsRejectsMisorderedList(t *testing.T) {
	now := time.Now()
	list := []server.RunSummary{{ID: "weave-000002", Began: now}, {ID: "weave-000001", Began: now.Add(-time.Millisecond)}}
	known := func(id string) bool { return id == "weave-000002" }
	unknown, err := checkRuns(list, known)
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 1 || unknown[0] != "weave-000001" {
		t.Errorf("unknown ids %v, want [weave-000001]", unknown)
	}
	list[0], list[1] = list[1], list[0]
	if _, err := checkRuns(list, known); err == nil {
		t.Error("oldest-first listing accepted")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, name: "root", start: at(0), end: at(100)},
		{id: 2, parent: 1, name: "a", start: at(10), end: at(30)},
		{id: 3, parent: 1, name: "b", start: at(20), end: at(50)},  // overlaps a
		{id: 4, parent: 1, name: "c", start: at(90), end: at(120)}, // runs past root
		{id: 5, parent: 3, name: "d", start: at(25), end: at(35)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond,
		2: 20 * time.Millisecond,
		3: 30*time.Millisecond - 10*time.Millisecond,
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

// TestSelfTestLeavesNothingBehind runs short workloads, untraced and
// traced, and requires run's own hygiene check to pass: no listener,
// goroutine, temp dir or child process left over.
func TestSelfTestLeavesNothingBehind(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"serve-mixed", false}, {"execute", true}} {
		tmp := t.TempDir()
		baseline := runtime.NumGoroutine()
		rep, res, err := run(config{workload: tc.workload, seed: 3, seconds: 0.3, trace: tc.trace, root: root, tmp: tmp}, baseline)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", tc.workload, res.Correct, res.Attempted, res.Failed, rep.Errors)
		}
		want := endToEndCatalog
		if tc.trace {
			want = perLayerCatalog
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", tc.workload, len(res.Metrics), len(want))
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%s: %d entries left in the temp dir", tc.workload, len(left))
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.workload, n, baseline)
		}
	}
}

func TestCatalogsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []catalogEntry) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the code", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndCatalog)
	same("per_layer", b.PerLayer, perLayerCatalog)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the code", i, b.Workloads[i].Name, w.name)
		}
	}
}
