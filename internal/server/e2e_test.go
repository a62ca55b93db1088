package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/obs"
	"dscweaver/internal/pdg"
	"dscweaver/internal/schedule"
	"dscweaver/internal/server"
	"dscweaver/internal/store"
)

// purchasingSource reads the paper's running-example DSCL document.
func purchasingSource(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "dscl", "testdata", "purchasing.dscl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %T from %s: %v", out, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestServerEndToEnd drives the full service loop: weave the
// purchasing document, simulate both decision branches, scrape
// /metrics, then fetch the simulation's event log and replay it into
// a trace that must validate against the *unminimized* constraint set
// — the externally observable face of Definition 5 equivalence.
func TestServerEndToEnd(t *testing.T) {
	src := purchasingSource(t)
	storeDir := t.TempDir()
	s, err := server.New(server.Config{
		StoreDir: storeDir,
		Buckets:  map[string][]float64{"server_request_seconds": {0.01, 0.1, 1, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 1. Weave with BPEL generation.
	var wv server.WeaveResponse
	code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src, BPEL: true, Structured: true}, &wv)
	if code != http.StatusOK {
		t.Fatalf("weave: %d %s", code, raw)
	}
	if wv.Process != "Purchasing" || wv.Activities != 14 {
		t.Errorf("weave summary: %+v", wv)
	}
	if wv.Sound == nil || !*wv.Sound {
		t.Errorf("minimal set not sound: %+v", wv)
	}
	if wv.MinimalConstraints >= wv.TranslatedConstraints || wv.Removed == 0 {
		t.Errorf("minimization did not shrink the set: %+v", wv)
	}
	if !strings.Contains(wv.BPEL, "<process") || !strings.Contains(wv.BPEL, "sequence") {
		t.Errorf("structured BPEL missing: %q", wv.BPEL)
	}
	// The body is compact JSON, and the BPEL's markup is not escaped to
	// \u003c/\u003e.
	if strings.Count(raw, "\n") != 1 || !strings.Contains(raw, `"bpel":"<?xml`) || strings.Contains(raw, `\u003c`) {
		t.Errorf("weave body is not compact, unescaped JSON: %.200s", raw)
	}

	// 2. Weave via the seqlang front end.
	var sv server.WeaveResponse
	code, raw = postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: pdg.PurchasingSeqlang, Lang: "seqlang"}, &sv)
	if code != http.StatusOK {
		t.Fatalf("seqlang weave: %d %s", code, raw)
	}
	if sv.Sound == nil || !*sv.Sound {
		t.Errorf("seqlang minimal set not sound: %+v", sv)
	}

	// 3. Simulate the approved branch: the full purchasing conversation
	// runs; set_oi (the F-branch fallback) is skipped.
	var simT server.SimulateResponse
	code, raw = postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"source":   src,
		"branches": map[string]string{"if_au": "T"},
	}, &simT)
	if code != http.StatusOK {
		t.Fatalf("simulate T: %d %s", code, raw)
	}
	if !simT.Valid || simT.Error != "" {
		t.Fatalf("simulate T invalid: %+v", simT)
	}
	executed := strings.Join(simT.Executed, ",")
	for _, want := range []string{"invPurchase_si", "recShip_ss", "invProduction_ss", "replyClient_oi"} {
		if !strings.Contains(executed, want) {
			t.Errorf("T branch did not execute %s (executed %s)", want, executed)
		}
	}
	if !strings.Contains(strings.Join(simT.Skipped, ","), "set_oi") {
		t.Errorf("T branch should skip set_oi, skipped %v", simT.Skipped)
	}

	// 4. Simulate the rejected branch: only Credit is consulted.
	var simF server.SimulateResponse
	code, raw = postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"source":   src,
		"branches": map[string]string{"if_au": "F"},
	}, &simF)
	if code != http.StatusOK {
		t.Fatalf("simulate F: %d %s", code, raw)
	}
	if !simF.Valid || simF.Error != "" {
		t.Fatalf("simulate F invalid: %+v", simF)
	}
	if !strings.Contains(strings.Join(simF.Executed, ","), "set_oi") {
		t.Errorf("F branch did not execute set_oi: %v", simF.Executed)
	}
	for _, skip := range []string{"invShip_po", "invPurchase_po", "invProduction_po"} {
		if !strings.Contains(strings.Join(simF.Skipped, ","), skip) {
			t.Errorf("F branch should skip %s, skipped %v", skip, simF.Skipped)
		}
	}

	// 5. Scrape /metrics: all three pipeline layers plus the server's
	// own families must be present, and the configured bucket override
	// must be in force.
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, fam := range []string{
		"minimize_runs_total", "minimize_equivalence_checks_total",
		"schedule_runs_total", "schedule_activities_started_total",
		"bus_invocations_total", "bus_callbacks_total",
		"server_requests_total", "server_request_seconds",
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("metrics missing family %s", fam)
		}
	}
	if !strings.Contains(metrics, `server_request_seconds_bucket{route="weave",le="0.01"}`) {
		t.Errorf("bucket override not applied:\n%s", metrics)
	}

	// 6. Run listing: newest first, all finished.
	code, runsRaw := getBody(t, ts.URL+"/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("runs: %d", code)
	}
	var runs []server.RunSummary
	if err := json.Unmarshal([]byte(runsRaw), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("want 4 runs, got %d: %s", len(runs), runsRaw)
	}
	if runs[0].ID != simF.RunID || runs[0].Kind != "simulate" {
		t.Errorf("newest run = %+v, want %s", runs[0], simF.RunID)
	}
	for _, r := range runs {
		if r.Status != "ok" {
			t.Errorf("run %s status %s (%s)", r.ID, r.Status, r.Error)
		}
	}

	// 7. Replay the T-branch simulation's event log into a trace and
	// validate it against the full pre-minimization constraint set.
	code, eventsRaw := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, simT.RunID))
	if code != http.StatusOK {
		t.Fatalf("run events: %d", code)
	}
	events, err := obs.ReadJSONL(strings.NewReader(eventsRaw))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event log")
	}
	tr, err := schedule.TraceFromEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := dscl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := doc.ConstraintSet()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Desugar(); err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(sc)
	if err != nil {
		t.Fatal(err)
	}
	asc, err := core.TranslateServices(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(asc, guards); err != nil {
		t.Errorf("replayed trace violates the full constraint set: %v", err)
	}
	if len(tr.Executed()) != len(simT.Executed) {
		t.Errorf("replayed %d executed, response says %d", len(tr.Executed()), len(simT.Executed))
	}

	// 8. Error paths.
	if code, _ := postJSON(t, ts.URL+"/v1/weave", map[string]any{"source": src, "typo": true}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", code)
	}
	// Removed engine knobs are unknown fields now: the speculative
	// minimizer, the parallel soundness explorer, the full-graph escape
	// hatch, the naive minimizer and the minimizer worker count are no
	// longer selectable per request.
	for field, val := range map[string]any{"no_speculation": true, "validate_parallel": 2, "no_reduction": true, "no_cache": true, "parallelism": 4} {
		if code, body := postJSON(t, ts.URL+"/v1/weave", map[string]any{"source": src, field: val}, nil); code != http.StatusBadRequest || !strings.Contains(body, "unknown field") {
			t.Errorf("removed %s field: %d %s, want the unknown-field 400", field, code, body)
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/weave", map[string]any{"source": src, "lang": "xml"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad lang: %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/weave", map[string]any{"source": "process Broken {"}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("parse failure: %d, want 422", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/runs/nope/events"); code != http.StatusNotFound {
		t.Errorf("unknown run: %d, want 404", code)
	}
	huge := map[string]any{"source": strings.Repeat("x", 2<<20)}
	if code, _ := postJSON(t, ts.URL+"/v1/weave", huge, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", code)
	}

	// 9. Shutdown drains and closes the run store; reopened, the store
	// replays the simulation's events byte for byte as they were served.
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("weave after shutdown: %d, want 503", code)
	}
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored, err := st.Events(simT.RunID)
	if err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	for _, raw := range stored {
		replay.Write(raw)
		replay.WriteByte('\n')
	}
	if replay.String() != eventsRaw {
		t.Errorf("stored events of %s differ from the served log:\nstored %d bytes, %d events\nserved %d bytes, %d events",
			simT.RunID, replay.Len(), len(stored), len(eventsRaw), len(events))
	}
}

// TestPipelineRouteContract pins the strict decoding all four pipeline
// routes share: an unknown field or trailing data answers 400 and an
// oversized body 413, before admission, so no run is tracked.
func TestPipelineRouteContract(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()

	src, err := json.Marshal(purchasingSource(t))
	if err != nil {
		t.Fatal(err)
	}
	fields := `"source": ` + string(src)
	join := fields + `, "run_id": "contract", "hosts": ["coord"], "partition": {"recPO_oi": "coord"}`
	huge := `{"source": "` + strings.Repeat("x", 2<<20) + `"}`
	for _, rt := range []struct{ route, fields string }{
		{"weave", fields},
		{"simulate", fields},
		{"enact", fields},
		{"enact/join", join},
	} {
		for _, tc := range []struct {
			name, body string
			code       int
			want       string
		}{
			{"unknown-field", "{" + rt.fields + `, "typo": true}`, http.StatusBadRequest, "unknown field"},
			{"trailing-data", "{" + rt.fields + "} {}", http.StatusBadRequest, "trailing data"},
			{"oversized", huge, http.StatusRequestEntityTooLarge, "too large"},
		} {
			t.Run(strings.ReplaceAll(rt.route, "/", "_")+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+"/v1/"+rt.route, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.code || !strings.Contains(string(raw), tc.want) {
					t.Errorf("%d %s, want %d naming %q", resp.StatusCode, raw, tc.code, tc.want)
				}
			})
		}
	}
	if runs := listRuns(t, ts.URL); len(runs) != 0 {
		t.Errorf("rejected bodies tracked runs: %+v", runs)
	}
}

// TestServerHealthz covers the trivial liveness contract.
func TestServerHealthz(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
