// End-to-end tests for /v1/simulate per-service profiles: latency
// shaping and fault injection mirroring services.Config, per the
// ROADMAP item on configurable latency/fault models.
package server_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/server"
)

func newTestServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown()
	})
	return s, ts
}

// TestSimulateServiceLatencyProfile slows one service down and checks
// the makespan reflects it: the Credit conversation sits on the
// critical path, so its injected latency is a lower bound on the run.
func TestSimulateServiceLatencyProfile(t *testing.T) {
	_, ts := newTestServer(t)
	src := purchasingSource(t)

	var base server.SimulateResponse
	code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"source":   src,
		"branches": map[string]string{"if_au": "T"},
	}, &base)
	if code != http.StatusOK || !base.Valid {
		t.Fatalf("baseline simulate: %d %s", code, raw)
	}

	const creditLatency = 75 * time.Millisecond
	var slow server.SimulateResponse
	code, raw = postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"source":   src,
		"branches": map[string]string{"if_au": "T"},
		"services": map[string]any{
			"Credit": map[string]any{"latency_us": int(creditLatency / time.Microsecond)},
		},
	}, &slow)
	if code != http.StatusOK {
		t.Fatalf("profiled simulate: %d %s", code, raw)
	}
	if !slow.Valid || slow.Error != "" {
		t.Fatalf("profiled simulate invalid: %+v", slow)
	}
	if got := time.Duration(slow.MakespanNS); got < creditLatency {
		t.Errorf("makespan %v under the injected %v Credit latency", got, creditLatency)
	}
}

// TestSimulatePortLatencyProfile: the per-port override beats the
// service-level latency.
func TestSimulatePortLatencyProfile(t *testing.T) {
	_, ts := newTestServer(t)
	const portLatency = 60 * time.Millisecond
	var resp server.SimulateResponse
	code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"source":   purchasingSource(t),
		"branches": map[string]string{"if_au": "F"},
		"services": map[string]any{
			"Credit": map[string]any{
				"port_latency_us": map[string]int{"1": int(portLatency / time.Microsecond)},
			},
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("simulate: %d %s", code, raw)
	}
	if !resp.Valid || resp.Error != "" {
		t.Fatalf("simulate invalid: %+v", resp)
	}
	if got := time.Duration(resp.MakespanNS); got < portLatency {
		t.Errorf("makespan %v under the injected %v port latency", got, portLatency)
	}
}

// TestSimulateFaultInjection covers both fault knobs: a permanent
// fail_on fault and a transient fail_first fault each fail the run
// in-band (200 with Error and the partial trace — the diagnostic
// artifacts), carrying the injected message.
func TestSimulateFaultInjection(t *testing.T) {
	_, ts := newTestServer(t)
	src := purchasingSource(t)
	cases := []struct {
		name    string
		profile map[string]any
		want    string
	}{
		{"fail-on", map[string]any{"fail_on": map[string]string{"1": "credit check down"}}, "credit check down"},
		{"fail-first", map[string]any{"fail_first": map[string]int{"1": 1}}, "transient service fault"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp server.SimulateResponse
			code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
				"source":   src,
				"branches": map[string]string{"if_au": "T"},
				"services": map[string]any{"Credit": tc.profile},
			}, &resp)
			if code != http.StatusOK {
				t.Fatalf("simulate: %d %s", code, raw)
			}
			if resp.Valid || resp.Error == "" {
				t.Fatalf("injected fault did not fail the run: %+v", resp)
			}
			if !strings.Contains(resp.Error, tc.want) {
				t.Errorf("error = %q, want the injected fault %q", resp.Error, tc.want)
			}
			if len(resp.Trace) == 0 {
				t.Error("failed run returned no partial trace")
			}
		})
	}
}

// TestSimulateProfileValidation: bad profiles are rejected before any
// work runs — unknown names and ports as unprocessable requests,
// negative durations at decode time.
func TestSimulateProfileValidation(t *testing.T) {
	_, ts := newTestServer(t)
	src := purchasingSource(t)
	cases := []struct {
		name     string
		services map[string]any
		code     int
		want     string
	}{
		{"unknown-service", map[string]any{"Nope": map[string]any{"latency_us": 5}},
			http.StatusUnprocessableEntity, `no such service`},
		{"unknown-port", map[string]any{"Credit": map[string]any{"fail_on": map[string]string{"9": "x"}}},
			http.StatusUnprocessableEntity, `no such port`},
		{"negative-latency", map[string]any{"Credit": map[string]any{"latency_us": -1}},
			http.StatusBadRequest, "negative latency"},
		{"negative-fail-first", map[string]any{"Credit": map[string]any{"fail_first": map[string]int{"1": -2}}},
			http.StatusBadRequest, "negative fail_first"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
				"source":   src,
				"services": tc.services,
			}, nil)
			if code != tc.code {
				t.Fatalf("simulate: %d %s, want %d", code, raw, tc.code)
			}
			if !strings.Contains(raw, tc.want) {
				t.Errorf("error = %s, want %q", raw, tc.want)
			}
		})
	}
}
