// Hardening tests: queue-wait load shedding (429 + Retry-After),
// readiness reporting, the simulate breaker knob, and the new config
// file fields. Run with -race: the shed tests saturate the pool with a
// live weave.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/server"
)

// occupyPool starts a multi-second weave on ts and blocks until it
// holds a pool slot. The returned cancel drops the client connection,
// aborting the weave and freeing the slot.
func occupyPool(t *testing.T, ts *httptest.Server) (cancel func()) {
	t.Helper()
	body, err := json.Marshal(slowWeaveRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/weave", bytes.NewReader(body))
	if err != nil {
		stop()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitForRunningWeave(t, ts.URL)
	return func() {
		stop()
		<-done
	}
}

// TestAdmitShedsWith429RetryAfter: with the single pool slot held by a
// live weave, a request on any of the four pipeline routes that
// outwaits QueueWait is shed with 429, a Retry-After hint, and a
// server_shed_total increment — instead of camping on the slot until
// the request timeout.
func TestAdmitShedsWith429RetryAfter(t *testing.T) {
	s, err := server.New(server.Config{
		WeaveConcurrency: 1,
		QueueWait:        150 * time.Millisecond,
		RequestTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	server.UseNaiveMinimizer(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()

	release := occupyPool(t, ts)
	defer release()

	sim := server.SimulateRequest{WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)}}
	cases := []struct {
		route string
		body  any
	}{
		{"weave", sim.WeaveRequest},
		{"simulate", sim},
		{"enact", server.EnactRequest{SimulateRequest: sim}},
		// Decode runs before admission, so the join body must be valid.
		{"enact/join", server.EnactJoinRequest{
			SimulateRequest: sim,
			RunID:           "shed-join",
			Hosts:           []string{"coord"},
			Partition:       map[string]string{"recPO_oi": "coord"},
		}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.route, "/", "_"), func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			shed := s.Registry().Counter("server_shed_total").Value()
			began := time.Now()
			resp, err := http.Post(ts.URL+"/v1/"+tc.route, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("saturated %s returned %d %s, want 429", tc.route, resp.StatusCode, raw)
			}
			if got := resp.Header.Get("Retry-After"); got != "1" {
				t.Errorf("Retry-After = %q, want %q", got, "1")
			}
			if !strings.Contains(string(raw), "saturated") {
				t.Errorf("shed error = %s, want the saturation surfaced", raw)
			}
			// Shed at the queue-wait bound, not the 30s request timeout.
			if elapsed := time.Since(began); elapsed > 5*time.Second {
				t.Errorf("shed took %v, want ~QueueWait", elapsed)
			}
			if got := s.Registry().Counter("server_shed_total").Value(); got != shed+1 {
				t.Errorf("server_shed_total = %d, want %d", got, shed+1)
			}
		})
	}
}

// TestReadyzSaturatedAndDraining: /readyz flips to 503 "saturated"
// while the pool is full with a request queued behind it, and to 503
// "draining" once Shutdown begins; /healthz stays a pure liveness
// probe through saturation.
func TestReadyzSaturatedAndDraining(t *testing.T) {
	s, err := server.New(server.Config{
		WeaveConcurrency: 1,
		QueueWait:        10 * time.Second, // keep the waiter queued, not shed
		RequestTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	server.UseNaiveMinimizer(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, raw := getBody(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(raw, "ready") {
		t.Fatalf("idle readyz: %d %s, want 200 ready", code, raw)
	}

	release := occupyPool(t, ts)
	defer release()

	// Queue a second request behind the held slot.
	body, err := json.Marshal(server.WeaveRequest{Source: purchasingSource(t)})
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	qreq, err := http.NewRequestWithContext(qctx, http.MethodPost, ts.URL+"/v1/weave", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		resp, err := http.DefaultClient.Do(qreq)
		if err == nil {
			resp.Body.Close()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		code, raw := getBody(t, ts.URL+"/readyz")
		if code == http.StatusServiceUnavailable && strings.Contains(raw, "saturated") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported saturation: last %d %s", code, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, raw := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz under saturation: %d %s, want 200 (liveness, not readiness)", code, raw)
	}

	qcancel()
	<-queued
	release()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code, raw := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(raw, "draining") {
		t.Errorf("draining readyz: %d %s, want 503 draining", code, raw)
	}
}

// TestSimulateBreakerProfile: arming the breaker for a simulated run
// with a permanently failing port trips it on the first fault
// (threshold 1) — the trip counter and open-state gauge land in the
// server registry, and the run still fails in-band with the injected
// message.
func TestSimulateBreakerProfile(t *testing.T) {
	s, ts := newTestServer(t)
	var resp server.SimulateResponse
	code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"source":   purchasingSource(t),
		"branches": map[string]string{"if_au": "T"},
		"services": map[string]any{
			"Credit": map[string]any{"fail_on": map[string]string{"1": "credit check down"}},
		},
		"breaker": map[string]any{"threshold": 1, "cooldown_ms": 60000},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("simulate: %d %s", code, raw)
	}
	if resp.Valid || !strings.Contains(resp.Error, "credit check down") {
		t.Fatalf("breaker run: %+v, want the injected fault in-band", resp)
	}
	reg := s.Registry()
	if got := reg.Counter("bus_breaker_trips_total", "service", "Credit", "port", "1").Value(); got < 1 {
		t.Errorf("bus_breaker_trips_total{Credit,1} = %d, want >= 1", got)
	}
	if got := reg.Gauge("bus_breaker_state", "service", "Credit", "port", "1").Value(); got != 2 {
		t.Errorf("bus_breaker_state{Credit,1} = %d, want 2 (open)", got)
	}
}

// TestSimulateBreakerValidation: malformed breaker knobs are rejected
// at decode time.
func TestSimulateBreakerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name    string
		breaker map[string]any
		want    string
	}{
		{"negative-threshold", map[string]any{"threshold": -1}, "negative threshold"},
		{"negative-cooldown", map[string]any{"cooldown_ms": -5}, "negative cooldown_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
				"source":  purchasingSource(t),
				"breaker": tc.breaker,
			}, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("simulate: %d %s, want 400", code, raw)
			}
			if !strings.Contains(raw, tc.want) {
				t.Errorf("error = %s, want %q", raw, tc.want)
			}
		})
	}
}

// TestLoadConfigHardeningKnobs: the new listener and shed knobs round-
// trip through the JSON config file.
func TestLoadConfigHardeningKnobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{
		"queue_wait": "3s",
		"read_timeout": "9s",
		"write_timeout": "11s",
		"idle_timeout": "45s",
		"max_header_bytes": 1234,
		"verdict_cache_size": 17
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := server.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueueWait != 3*time.Second || cfg.ReadTimeout != 9*time.Second ||
		cfg.WriteTimeout != 11*time.Second || cfg.IdleTimeout != 45*time.Second ||
		cfg.MaxHeaderBytes != 1234 || cfg.VerdictCacheSize != 17 {
		t.Errorf("LoadConfig = %+v, want the hardening knobs parsed", cfg)
	}
}

// TestLoadConfigRejectsRemovedKeys: a config file that still sets a
// removed key fails to load instead of being silently ignored.
// validate_parallel went with the parallel soundness explorer; the
// events_path and log_* keys went with the rotating event log, whose
// job the run store (store_dir) does.
func TestLoadConfigRejectsRemovedKeys(t *testing.T) {
	for _, tc := range []struct{ key, body string }{
		{"validate_parallel", `{"validate_parallel": 2}`},
		{"events_path", `{"events_path": "/tmp/events.jsonl"}`},
		{"log_max_bytes", `{"log_max_bytes": 4096}`},
		{"log_max_age", `{"log_max_age": "1h"}`},
		{"log_max_files", `{"log_max_files": 3}`},
	} {
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := server.LoadConfig(path)
		if err == nil || !strings.Contains(err.Error(), "unknown field") || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("LoadConfig with %s: err = %v, want an unknown-field error naming it", tc.key, err)
		}
	}
}

// TestWeaveVerdictCacheAcrossRequests: the server shares one verdict
// cache across requests — the second weave of the same source replays
// the recorded removal sequence (identical response, verdict_cache_hit
// set, the obs counters moving).
func TestWeaveVerdictCacheAcrossRequests(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()

	src := purchasingSource(t)
	var cold, warm server.WeaveResponse
	if code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &cold); code != http.StatusOK {
		t.Fatalf("cold weave: %d %s", code, raw)
	}
	if cold.VerdictCacheHit {
		t.Error("first weave of the source reported verdict_cache_hit")
	}
	if code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &warm); code != http.StatusOK {
		t.Fatalf("warm weave: %d %s", code, raw)
	}
	if !warm.VerdictCacheHit {
		t.Error("repeat weave of the same source missed the verdict cache")
	}
	if warm.EquivalenceChecks != 0 {
		t.Errorf("replayed weave reports %d equivalence checks, want 0", warm.EquivalenceChecks)
	}
	if warm.MinimalConstraints != cold.MinimalConstraints || warm.Removed != cold.Removed ||
		strings.Join(warm.Minimal, "\n") != strings.Join(cold.Minimal, "\n") {
		t.Errorf("replayed weave differs from the cold one:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if got := s.Registry().Counter("minimize_verdict_cache_hits_total").Value(); got != 1 {
		t.Errorf("minimize_verdict_cache_hits_total = %d, want 1", got)
	}
	if got := s.Registry().Counter("minimize_verdict_cache_misses_total").Value(); got != 1 {
		t.Errorf("minimize_verdict_cache_misses_total = %d, want 1", got)
	}
}

// TestWeaveVerdictCacheDisabled: a negative verdict_cache_size turns
// the shared cache off — repeat weaves re-run Def. 6 work.
func TestWeaveVerdictCacheDisabled(t *testing.T) {
	s, err := server.New(server.Config{VerdictCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()

	src := purchasingSource(t)
	for i := 0; i < 2; i++ {
		var wv server.WeaveResponse
		if code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv); code != http.StatusOK {
			t.Fatalf("weave %d: %d %s", i, code, raw)
		}
		if wv.VerdictCacheHit {
			t.Errorf("weave %d hit a disabled verdict cache", i)
		}
		if wv.EquivalenceChecks == 0 {
			t.Errorf("weave %d ran no equivalence checks with the cache disabled", i)
		}
	}
}
