package server_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dscweaver/internal/chaos/leak"
	"dscweaver/internal/server"
	"dscweaver/internal/store"
)

// TestShutdownDrainStress races concurrent weave and simulate traffic
// against a drain: every request must either complete normally (200)
// or be rejected cleanly (503) — never hang, panic or corrupt a
// response — and Shutdown must return once in-flight work finishes,
// with every admitted run's finish record in the run store. Run under
// -race in CI.
func TestShutdownDrainStress(t *testing.T) {
	// Registered before the client cleanup so the leak poll (cleanups run
	// LIFO) sees keep-alive transport goroutines already torn down.
	leak.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	src := purchasingSource(t)
	storeDir := t.TempDir()
	s, err := server.New(server.Config{
		WeaveConcurrency: 2,
		RequestTimeout:   10 * time.Second,
		ShutdownGrace:    20 * time.Second,
		StoreDir:         storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		wg       sync.WaitGroup
		ok       atomic.Int64
		rejected atomic.Int64
		stop     = make(chan struct{})
	)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var (
					code int
					body string
				)
				if i%2 == 0 {
					var wv server.WeaveResponse
					code, body = postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, &wv)
					if code == http.StatusOK && (wv.Sound == nil || !*wv.Sound) {
						t.Errorf("drained weave returned unsound result: %+v", wv)
					}
				} else {
					var sv server.SimulateResponse
					code, body = postJSON(t, ts.URL+"/v1/simulate", map[string]any{
						"source":   src,
						"branches": map[string]string{"if_au": "T"},
					}, &sv)
					if code == http.StatusOK && !sv.Valid {
						t.Errorf("drained simulation invalid: %+v", sv)
					}
				}
				switch code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1) // shed under queue pressure; retryable
				case http.StatusServiceUnavailable:
					rejected.Add(1)
					if !strings.Contains(body, "draining") && !strings.Contains(body, "congested") {
						t.Errorf("503 body: %s", body)
					}
					return // server is going away; stop this worker
				default:
					t.Errorf("unexpected status %d: %s", code, body)
					return
				}
			}
		}()
	}

	// Let traffic build, then pull the plug mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for ok.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Error("no request completed before the drain")
	}
	// The drained server deterministically rejects fresh work.
	if code, body := postJSON(t, ts.URL+"/v1/weave", server.WeaveRequest{Source: src}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain weave: %d %s", code, body)
	}
	t.Logf("completed=%d rejected=%d", ok.Load(), rejected.Load())

	// Idempotent: a second drain is a no-op, not a deadlock.
	if err := s.Shutdown(); err != nil {
		t.Errorf("second shutdown: %v", err)
	}

	// The store closed after the drain: reopened, it holds a finish
	// record for every run, so none reads as interrupted.
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	metas := st.ListRange(time.Time{}, time.Time{}, 0)
	if int64(len(metas)) < ok.Load() {
		t.Errorf("store lists %d runs, want >= %d completed requests", len(metas), ok.Load())
	}
	for _, m := range metas {
		if !m.Done {
			t.Errorf("run %s (%s) left interrupted by the drain", m.ID, m.Kind)
		}
	}
}
