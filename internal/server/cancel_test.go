// End-to-end cancellation tests: a dropped client connection must
// abort the weave mid-minimize and free its pool slot, and Shutdown's
// drain escalation must abort stuck weaves within the grace window
// instead of waiting them out. Run with -race: both tests cancel while
// the minimizer is mid-sweep.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/server"
	"dscweaver/internal/store"
)

// slowSource renders a layered DSCL process sized so its conditional
// minimization runs for many seconds: ranks of opaque activities
// chained by data dependencies, two decisions whose branch-guarded
// control dependencies put the whole downstream DAG behind guards
// (the expensive condition-annotated closure), and transitively
// redundant cooperation shortcuts for the minimizer to chew through.
// The shape mirrors workload.Layered(...).WithShortcuts(...).With-
// Decisions(2). The tests submit it via slowWeaveRequest to a server
// pinned to the paper-naive engine (UseNaiveMinimizer): ~256
// activities take seconds there, and the tests cancel long before
// completion. (The default engine's local pair test finishes the same
// fixture in milliseconds, far too fast to observe a running weave.)
func slowSource(layers, width int) string {
	var b strings.Builder
	name := func(l, i int) string { return fmt.Sprintf("a_%d_%d", l, i) }
	fmt.Fprintf(&b, "process Slow_%dx%d {\n", layers, width)

	type dep struct{ from, to, kind, arg string }
	var deps []dep
	// reads collects each activity's reads() list as data deps land.
	reads := map[string][]string{}
	addData := func(from, to string) {
		deps = append(deps, dep{from, to, "data", "w_" + from})
		reads[to] = append(reads[to], "w_"+from)
	}
	decisions := map[string]bool{}
	if width < 2 || layers < 3 {
		panic("slowSource: need width >= 2 and layers >= 3")
	}
	// Ranks 1's first two activities become decisions, each predicated
	// on a rank-0 variable.
	decisions[name(1, 0)] = true
	decisions[name(1, 1)] = true
	addData(name(0, 0), name(1, 0))
	addData(name(0, 1), name(1, 1))

	// Data dependencies between adjacent ranks: a guaranteed parent
	// plus extra edges at ~30% density, all deterministic (decisions
	// write nothing, so only opaque parents feed data).
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			to := name(l, i)
			if decisions[to] {
				continue
			}
			var parents []string
			for j := 0; j < width; j++ {
				if from := name(l-1, j); !decisions[from] {
					parents = append(parents, from)
				}
			}
			addData(parents[i%len(parents)], to)
			for j, from := range parents {
				if j != i%len(parents) && (i*31+j*17+l*13)%10 < 3 {
					addData(from, to)
				}
			}
		}
	}
	// Branch-guarded control dependencies from the decisions into rank
	// 2, alternating branches: every later rank inherits the guards.
	for d, decision := 0, []string{name(1, 0), name(1, 1)}; d < len(decision); d++ {
		branch := []string{"T", "F"}[d]
		for i := 0; i < width; i++ {
			deps = append(deps, dep{decision[d], name(2, i), "control", branch})
			branch = map[string]string{"T": "F", "F": "T"}[branch]
		}
	}
	// Cooperation shortcuts parallel to two-hop data paths — the
	// redundancy the minimizer removes, one equivalence check each.
	for l := 0; l+2 < layers; l++ {
		for i := 0; i < width; i += 2 {
			from, to := name(l, i), name(l+2, (i*3+1)%width)
			if !decisions[from] && !decisions[to] {
				deps = append(deps, dep{from, to, "cooperation", "shortcut"})
			}
		}
	}

	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			id := name(l, i)
			if decisions[id] {
				fmt.Fprintf(&b, "\tactivity %s decision reads(%s) branches(T, F)\n", id, reads[id][0])
				continue
			}
			fmt.Fprintf(&b, "\tactivity %s opaque writes(w_%s)", id, id)
			if len(reads[id]) > 0 {
				fmt.Fprintf(&b, " reads(%s)", strings.Join(reads[id], ", "))
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("\tdependencies {\n")
	for _, d := range deps {
		switch d.kind {
		case "data":
			fmt.Fprintf(&b, "\t\tdata %s -> %s var(%s)\n", d.from, d.to, d.arg)
		case "control":
			fmt.Fprintf(&b, "\t\tcontrol %s ->[%s] %s\n", d.from, d.arg, d.to)
		case "cooperation":
			fmt.Fprintf(&b, "\t\tcooperation %s -> %s why(%q)\n", d.from, d.to, d.arg)
		}
	}
	b.WriteString("\t}\n}\n")
	return b.String()
}

// slowWeaveRequest wraps slowSource in a request; on a server under
// UseNaiveMinimizer it runs the multi-second minimize these tests
// cancel into.
func slowWeaveRequest() server.WeaveRequest {
	return server.WeaveRequest{Source: slowSource(64, 4)}
}

// waitForRunningWeave polls the run store until a weave run is live,
// then gives the pipeline a beat to get past the cheap stages and into
// the minimizer (parse through translate are sub-millisecond at these
// sizes; minimization is seconds).
func waitForRunningWeave(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, raw := getBody(t, url+"/v1/runs")
		if code == http.StatusOK {
			var runs []server.RunSummary
			if err := json.Unmarshal([]byte(raw), &runs); err == nil {
				for _, rn := range runs {
					if rn.Status == "running" {
						time.Sleep(300 * time.Millisecond)
						return
					}
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no weave started within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWeaveClientDisconnectFreesSlot: with a one-slot pool, a client
// dropping its connection mid-minimize must abort the weave — a
// follow-up request gets the slot instead of queueing behind a
// doomed multi-second run.
func TestWeaveClientDisconnectFreesSlot(t *testing.T) {
	s, err := server.New(server.Config{
		WeaveConcurrency: 1,
		RequestTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	server.UseNaiveMinimizer(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()

	body, err := json.Marshal(slowWeaveRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/weave", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		dropped <- err
	}()
	waitForRunningWeave(t, ts.URL)
	cancel() // drop the client connection mid-minimize
	if err := <-dropped; err == nil {
		t.Fatal("slow weave finished before the disconnect — fixture too small")
	}

	// The slot must free within the second request's admission window,
	// and the follow-up weave must run normally.
	began := time.Now()
	var wv server.WeaveResponse
	code, raw := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: purchasingSource(t)}, &wv)
	if code != http.StatusOK {
		t.Fatalf("weave after disconnect: %d %s", code, raw)
	}
	if wv.Process != "Purchasing" {
		t.Errorf("weave after disconnect: %+v", wv)
	}
	if elapsed := time.Since(began); elapsed > 8*time.Second {
		t.Errorf("slot took %v to free after the disconnect", elapsed)
	}
	if got := s.Registry().Counter("weave_canceled_total").Value(); got < 1 {
		t.Errorf("weave_canceled_total = %d, want >= 1", got)
	}
}

// TestShutdownAbortsStuckWeave: when the drain grace expires with a
// weave still inside the minimizer, Shutdown cancels the in-flight
// pipeline contexts and completes within the abort beat rather than
// waiting out a multi-second kernel. The aborted run still writes its
// finish record before the run store closes.
func TestShutdownAbortsStuckWeave(t *testing.T) {
	storeDir := t.TempDir()
	s, err := server.New(server.Config{
		ShutdownGrace:  200 * time.Millisecond,
		RequestTimeout: 60 * time.Second,
		StoreDir:       storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	server.UseNaiveMinimizer(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		raw  string
	}
	resc := make(chan result, 1)
	go func() {
		code, raw := postJSON(t, ts.URL+"/v1/weave", slowWeaveRequest(), nil)
		resc <- result{code, raw}
	}()
	waitForRunningWeave(t, ts.URL)

	began := time.Now()
	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown after abort escalation: %v", err)
	}
	elapsed := time.Since(began)
	// Budget: the 200ms grace, the 1s abort beat, and scheduler slack —
	// far below the seconds the weave had left.
	if elapsed > 5*time.Second {
		t.Errorf("Shutdown took %v, want the grace + abort beat", elapsed)
	}
	if elapsed < 200*time.Millisecond {
		t.Errorf("Shutdown returned in %v, before the drain grace", elapsed)
	}

	res := <-resc
	if res.code != http.StatusServiceUnavailable {
		t.Errorf("aborted weave returned %d %s, want 503", res.code, res.raw)
	}
	if !strings.Contains(res.raw, "canceled") {
		t.Errorf("aborted weave error = %s, want the cancellation surfaced", res.raw)
	}
	if got := s.Registry().Counter("weave_canceled_total").Value(); got < 1 {
		t.Errorf("weave_canceled_total = %d, want >= 1", got)
	}

	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	metas := st.ListRange(time.Time{}, time.Time{}, 0)
	if len(metas) != 1 {
		t.Fatalf("store lists %d runs, want the one aborted weave: %+v", len(metas), metas)
	}
	if m := metas[0]; m.Kind != "weave" || !m.Done || m.OK || !strings.Contains(m.Err, "canceled") {
		t.Errorf("aborted weave stored as %+v, want done with a cancellation error", m)
	}
}
