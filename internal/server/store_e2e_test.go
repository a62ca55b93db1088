// Server-level contract of the persistent run store: /v1/runs answers
// ids beyond the in-memory ring cap, /v1/runs/{id}/events replays
// evicted and pre-restart runs byte-identically, and the id sequence
// resumes past the store's high-water mark after a restart.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/obs"
	"dscweaver/internal/server"
	"dscweaver/internal/store"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
	"dscweaver/internal/workload"
)

func TestServerStoreBeyondRingAndRestart(t *testing.T) {
	src := purchasingSource(t)
	dir := t.TempDir()
	cfg := server.Config{
		StoreDir:   dir,
		RunHistory: 2, // tiny ring: most runs must be answered by the store
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const total = 6
	eventLogs := map[string]string{} // run id -> JSONL served while still in the ring
	var ids []string
	for i := 0; i < total; i++ {
		var wv server.WeaveResponse
		code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv)
		if code != http.StatusOK {
			t.Fatalf("weave %d: %d %s", i, code, raw)
		}
		ids = append(ids, wv.RunID)
		code, events := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, wv.RunID))
		if code != http.StatusOK {
			t.Fatalf("events for live run %s: %d", wv.RunID, code)
		}
		eventLogs[wv.RunID] = events
	}

	// The ring caps at 2, but the listing reaches the store: all runs
	// answer, newest first, every one finished.
	code, runsRaw := getBody(t, ts.URL+"/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("runs: %d", code)
	}
	var runs []server.RunSummary
	if err := json.Unmarshal([]byte(runsRaw), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != total {
		t.Fatalf("listed %d runs, want %d (ring cap is 2): %s", len(runs), total, runsRaw)
	}
	for i, r := range runs {
		if want := ids[total-1-i]; r.ID != want {
			t.Errorf("run %d = %s, want %s (newest first)", i, r.ID, want)
		}
		if r.Status != "ok" || r.Events == 0 {
			t.Errorf("run %s: status %s, %d events", r.ID, r.Status, r.Events)
		}
	}

	// limit= and from= are honored.
	code, limitedRaw := getBody(t, ts.URL+"/v1/runs?limit=3")
	if code != http.StatusOK {
		t.Fatalf("runs?limit: %d", code)
	}
	var limited []server.RunSummary
	if err := json.Unmarshal([]byte(limitedRaw), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited) != 3 || limited[0].ID != ids[total-1] {
		t.Errorf("limit=3 returned %d runs starting %v", len(limited), limited)
	}
	future := time.Now().Add(time.Hour).UTC().Format(time.RFC3339)
	if code, raw := getBody(t, ts.URL+"/v1/runs?from="+future); code != http.StatusOK || raw != "[]\n" {
		t.Errorf("future from=: %d %q, want empty list", code, raw)
	}
	if code, _ := getBody(t, ts.URL+"/v1/runs?limit=x"); code != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", code)
	}

	// Evicted runs replay from the store byte-identically.
	for _, id := range ids[:total-2] {
		code, events := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, id))
		if code != http.StatusOK {
			t.Fatalf("events for evicted run %s: %d", id, code)
		}
		if events != eventLogs[id] {
			t.Errorf("run %s replay differs from the live log (%d vs %d bytes)",
				id, len(events), len(eventLogs[id]))
		}
	}

	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	// Restart over the same directory: history survives, replays stay
	// byte-identical, and new run ids continue past the stored sequence.
	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	code, runsRaw = getBody(t, ts2.URL+"/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("runs after restart: %d", code)
	}
	runs = nil
	if err := json.Unmarshal([]byte(runsRaw), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != total {
		t.Fatalf("restart lists %d runs, want %d: %s", len(runs), total, runsRaw)
	}
	for _, id := range ids {
		code, events := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts2.URL, id))
		if code != http.StatusOK {
			t.Fatalf("events for %s after restart: %d", id, code)
		}
		if events != eventLogs[id] {
			t.Errorf("run %s replay changed across restart (%d vs %d bytes)",
				id, len(events), len(eventLogs[id]))
		}
	}

	var wv server.WeaveResponse
	code, raw := postJSON(t, ts2.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv)
	if code != http.StatusOK {
		t.Fatalf("weave after restart: %d %s", code, raw)
	}
	if want := fmt.Sprintf("weave-%06d", total+1); wv.RunID != want {
		t.Errorf("post-restart run id %s, want %s (sequence must continue)", wv.RunID, want)
	}
	if err := s2.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestServerStoredWeaveLogStaysSmall: a weave's stored log grows with
// the answer, not with the candidates. A 16x16 process decides over a
// thousand candidates, yet its run holds a few pipeline events and one
// minimize_end whose decision record lists the removed constraints in
// the order the minimizer removed them.
func TestServerStoredWeaveLogStaysSmall(t *testing.T) {
	w := workload.Layered(16, 16, 0.3, 1).WithShortcuts(16).WithDecisions(1)
	src := dscl.PrintDocument(&dscl.Document{Proc: w.Proc, Deps: w.Deps, Extra: core.NewConstraintSet(w.Proc)})
	dir := t.TempDir()
	s, err := server.New(server.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var wv server.WeaveResponse
	code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv)
	if code != http.StatusOK {
		t.Fatalf("weave: %d %s", code, raw)
	}
	code, served := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, wv.RunID))
	if code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stored, err := st.Events(wv.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) > 32 {
		t.Errorf("stored log holds %d events, want at most 32", len(stored))
	}
	var replay bytes.Buffer
	for _, line := range stored {
		replay.Write(line)
		replay.WriteByte('\n')
	}
	if replay.String() != served {
		t.Errorf("stored log differs from the served one (%d vs %d bytes)", replay.Len(), len(served))
	}

	evs, err := obs.ReadJSONL(&replay)
	if err != nil {
		t.Fatal(err)
	}
	var decision *obs.Decision
	for _, e := range evs {
		if e.Kind == obs.EvMinimizeEnd {
			decision = e.Decision
		}
	}
	if decision == nil {
		t.Fatal("no minimize_end decision record in the stored log")
	}
	ref, err := weave.Run(context.Background(), weave.Input{Source: src}, weave.Options{Frontend: front.DSCL})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MinimizeOpt(context.Background(), ref.Translated, core.MinimizeOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantRemoved []string
	for _, c := range want.Removed {
		wantRemoved = append(wantRemoved, c.String())
	}
	if len(wantRemoved) == 0 || !slices.Equal(decision.Removed, wantRemoved) {
		t.Errorf("decision removed %q, want %q", decision.Removed, wantRemoved)
	}
	if decision.Candidates != want.EquivalenceChecks {
		t.Errorf("decision covers %d candidates, the reference run checked %d", decision.Candidates, want.EquivalenceChecks)
	}
	t.Logf("%d candidates, %d removed, %d stored events (%d bytes)", decision.Candidates, len(decision.Removed), len(stored), len(served))
}

// TestServerRunsLimitNewestFirstWithLargeRing: with a store attached
// and every run still resident in the in-memory ring, ?limit=N must
// return the N newest runs. A previous merge classified ring entries
// by absence from the limit-capped store listing, so any limit below
// the ring population returned the oldest runs instead — exactly the
// queries a client paging recent history issues (?limit=50, ?limit=1).
func TestServerRunsLimitNewestFirstWithLargeRing(t *testing.T) {
	src := purchasingSource(t)
	cfg := server.Config{StoreDir: t.TempDir()} // default ring (128) keeps every run
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()

	const total = 5
	var ids []string
	for i := 0; i < total; i++ {
		var wv server.WeaveResponse
		code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv)
		if code != http.StatusOK {
			t.Fatalf("weave %d: %d %s", i, code, raw)
		}
		ids = append(ids, wv.RunID)
	}
	for _, limit := range []int{1, 3} {
		code, raw := getBody(t, fmt.Sprintf("%s/v1/runs?limit=%d", ts.URL, limit))
		if code != http.StatusOK {
			t.Fatalf("limit=%d: %d", limit, code)
		}
		var runs []server.RunSummary
		if err := json.Unmarshal([]byte(raw), &runs); err != nil {
			t.Fatal(err)
		}
		if len(runs) != limit {
			t.Fatalf("limit=%d returned %d runs: %s", limit, len(runs), raw)
		}
		for i, r := range runs {
			if want := ids[total-1-i]; r.ID != want {
				t.Errorf("limit=%d run %d = %s, want %s (newest first)", limit, i, r.ID, want)
			}
		}
	}
}

// TestRunEventsCorruptionFlagsTruncation: a sealed segment corrupted
// in place (size unchanged, so its sidecar index stays trusted) must
// not serve a silently truncated event log — the replay returns the
// valid prefix with 200 plus an X-Dscweaver-Truncated header.
func TestRunEventsCorruptionFlagsTruncation(t *testing.T) {
	src := purchasingSource(t)
	dir := t.TempDir()
	cfg := server.Config{
		StoreDir:          dir,
		StoreSegmentBytes: 512, // force the run across several segments
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var wv server.WeaveResponse
	if code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv); code != http.StatusOK {
		t.Fatalf("weave: %d %s", code, raw)
	}
	_, full := getBody(t, fmt.Sprintf("%s/v1/runs/%s/events", ts.URL, wv.RunID))
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Zero a byte midway through the FIRST segment: it is sealed (not
	// the crash-recovery tail), so Open trusts its sidecar and the
	// corruption is only discovered by the replay read itself.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] = 0x00
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Shutdown()
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/events", ts2.URL, wv.RunID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupted replay: %d, want 200 with the valid prefix", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Dscweaver-Truncated"); got != "true" {
		t.Fatalf("X-Dscweaver-Truncated = %q, want \"true\"", got)
	}
	if len(body) >= len(full) || !strings.HasPrefix(full, string(body)) {
		t.Fatalf("corrupted replay served %d bytes, want a strict prefix of the %d-byte log", len(body), len(full))
	}
}
