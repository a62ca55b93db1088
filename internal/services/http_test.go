package services

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// serveTransport mounts a transport's Deliver behind an httptest
// server, mapping a run mismatch to 409 (the warm-up signal a sender
// retries through) and unknown services to 404.
func serveTransport(t *testing.T, tr *HTTPTransport) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var f Frame
		if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := tr.Deliver(f)
		switch {
		case errors.Is(err, ErrRunMismatch):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusNotFound)
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(res)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func fastRetry() HTTPRetry {
	return HTTPRetry{MaxAttempts: 6, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

func TestHTTPDeliverIdempotent(t *testing.T) {
	var calls atomic.Int64
	tr := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "b"})
	tr.RegisterLocal("svc", func(c *Call) ([]Emit, error) {
		calls.Add(1)
		return []Emit{{Tag: "out", Payload: c.Seq}}, nil
	})
	f := Frame{V: 1, Run: "r1", Seq: 7, From: "a", Service: "svc", Port: "p",
		Payload: json.RawMessage(`"x"`)}
	first, err := tr.Deliver(f)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := tr.Deliver(f)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times for a retransmitted frame, want 1", calls.Load())
	}
	b1, _ := json.Marshal(first)
	b2, _ := json.Marshal(replay)
	if string(b1) != string(b2) {
		t.Fatalf("replayed result differs: %s vs %s", b1, b2)
	}
	// A different sender with the same seq is a distinct invocation.
	f2 := f
	f2.From = "c"
	if _, err := tr.Deliver(f2); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times across two senders, want 2", calls.Load())
	}
}

func TestHTTPDeliverRunMismatch(t *testing.T) {
	tr := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "b"})
	tr.RegisterLocal("svc", nil)
	_, err := tr.Deliver(Frame{Run: "other", Seq: 1, From: "a", Service: "svc"})
	if !errors.Is(err, ErrRunMismatch) {
		t.Fatalf("err = %v, want ErrRunMismatch", err)
	}
}

func TestHTTPRetryThroughWarmup(t *testing.T) {
	// The peer 404s while "registration is pending", then serves: the
	// sender must retry through the window and still deliver.
	remote := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "b"})
	remote.RegisterLocal("late", func(c *Call) ([]Emit, error) {
		return []Emit{{Tag: "out", Payload: "ok"}}, nil
	})
	var hits atomic.Int64
	inner := serveTransport(t, remote)
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "run not registered", http.StatusNotFound)
			return
		}
		inner.Config.Handler.ServeHTTP(w, r)
	}))
	defer gate.Close()

	local := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a", Routes: map[string]string{"late": gate.URL}, Retry: fastRetry(),
	})
	if err := local.Call("late", "p", nil); err != nil {
		t.Fatalf("call failed after warm-up: %v", err)
	}
	if local.Retries() < 2 {
		t.Fatalf("Retries() = %d, want >= 2", local.Retries())
	}
	local.Close()
	remote.Close()
}

func TestHTTPPermanentStatusDoesNotRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "malformed frame", http.StatusBadRequest)
	}))
	defer srv.Close()
	local := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a", Routes: map[string]string{"svc": srv.URL}, Retry: fastRetry(),
	})
	if err := local.Call("svc", "p", nil); !errors.Is(err, ErrPermanent) {
		t.Fatalf("call err = %v, want permanent", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("a 4xx response was retried: %d attempts", hits.Load())
	}
	local.Close()
}

func TestHTTPCallSynchronous(t *testing.T) {
	remote := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "b"})
	var got any
	remote.RegisterLocal("note", func(c *Call) ([]Emit, error) {
		got = c.Payload
		return nil, nil
	})
	remote.RegisterLocal("bad", func(c *Call) ([]Emit, error) {
		return nil, fmt.Errorf("rejected")
	})
	srv := serveTransport(t, remote)
	local := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a",
		Routes: map[string]string{"note": srv.URL, "bad": srv.URL},
		Retry:  fastRetry(),
	})
	if err := local.Call("note", "p", map[string]any{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	m, ok := got.(map[string]any)
	if !ok || m["k"] != "v" {
		t.Fatalf("remote saw %#v, want decoded map", got)
	}
	if err := local.Call("bad", "p", nil); err == nil {
		t.Fatal("Call to a failing handler returned nil")
	}
	local.Close()
	remote.Close()
}

func TestHTTPInvokeStructuralErrors(t *testing.T) {
	tr := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "a"})
	if err := tr.Call("nowhere", "p", nil); err == nil {
		t.Error("unroutable service accepted")
	}
	if err := tr.Call("nowhere", "p", func() {}); err == nil {
		t.Error("unmarshalable payload accepted")
	}
	tr.Close()
	if err := tr.Call("nowhere", "p", nil); !errors.Is(err, ErrBusClosed) {
		t.Errorf("call on closed transport: %v, want ErrBusClosed", err)
	}
	if err := tr.RegisterLocal("x", nil); !errors.Is(err, ErrBusClosed) {
		t.Errorf("register on closed transport: %v, want ErrBusClosed", err)
	}
}

// TestHTTPWaitLocal: WaitLocal returns true once the named receiver
// registers (another registration does not end the wait), false when
// its context ends first, and false at once after Close. Deliver names
// a receiver it lacks with ErrUnknownService.
func TestHTTPWaitLocal(t *testing.T) {
	tr := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "a"})
	if _, err := tr.Deliver(Frame{Run: "r1", Service: "svc"}); !errors.Is(err, ErrUnknownService) {
		t.Errorf("deliver to an unregistered service: %v, want ErrUnknownService", err)
	}
	got := make(chan bool, 1)
	go func() { got <- tr.WaitLocal(context.Background(), "svc") }()
	if err := tr.RegisterLocal("other", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-got:
		t.Fatalf("WaitLocal returned %v after an unrelated registration", ok)
	case <-time.After(20 * time.Millisecond):
	}
	if err := tr.RegisterLocal("svc", nil); err != nil {
		t.Fatal(err)
	}
	if !<-got {
		t.Error("WaitLocal = false after the receiver registered")
	}
	if !tr.WaitLocal(context.Background(), "svc") {
		t.Error("WaitLocal on a registered receiver = false")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if tr.WaitLocal(ctx, "never") {
		t.Error("WaitLocal = true for a receiver that never registered")
	}

	go func() { got <- tr.WaitLocal(context.Background(), "never") }()
	time.Sleep(5 * time.Millisecond)
	tr.Close()
	if <-got {
		t.Error("WaitLocal = true after Close")
	}
	tr.Close() // idempotent
	if tr.WaitLocal(context.Background(), "never") {
		t.Error("WaitLocal on a closed transport = true")
	}
}

// TestHTTPFlappingLinkTransientToPermanent: a link that flaps from
// transient faults (503) to a permanent refusal (400) mid-send must
// retry through the transient phase and stop dead at the permanent
// answer — exactly one attempt sees the 400, none follow it.
func TestHTTPFlappingLinkTransientToPermanent(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "link down", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "malformed frame", http.StatusBadRequest)
	}))
	defer srv.Close()
	local := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a", Routes: map[string]string{"svc": srv.URL}, Retry: fastRetry(),
	})
	err := local.Call("svc", "p", nil)
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("call err = %v, want permanent after the flap", err)
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("permanent refusal misclassified as budget exhaustion: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server saw %d attempts, want exactly 3 (2 transient + 1 permanent)", hits.Load())
	}
	if local.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", local.Retries())
	}
	local.Close()
}

// TestHTTPRetryBudgetExhaustedTyped: both exhaustion paths — the
// attempt cap and the MaxElapsed budget — must wrap
// ErrBudgetExhausted, the typed signal the enactment layer maps to a
// PartitionedPeerError.
func TestHTTPRetryBudgetExhaustedTyped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "peer down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	byAttempts := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a", Routes: map[string]string{"svc": srv.URL},
		Retry: HTTPRetry{MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	err := byAttempts.Call("svc", "p", nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("attempt-cap exhaustion: err = %v, want ErrBudgetExhausted", err)
	}
	byAttempts.Close()

	byElapsed := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a", Routes: map[string]string{"svc": srv.URL},
		Retry: HTTPRetry{MaxAttempts: 1000, Backoff: 5 * time.Millisecond,
			MaxBackoff: 5 * time.Millisecond, MaxElapsed: 15 * time.Millisecond},
	})
	err = byElapsed.Call("svc", "p", nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("elapsed-budget exhaustion: err = %v, want ErrBudgetExhausted", err)
	}
	byElapsed.Close()
}

// TestHTTPBackoffBounds: the attempt'th delay is exponential with
// half-jitter — always within [base/2, base] for base =
// min(Backoff·Multiplier^(attempt−1), MaxBackoff).
func TestHTTPBackoffBounds(t *testing.T) {
	tr := NewHTTPTransport(HTTPConfig{Retry: HTTPRetry{
		Backoff: 10 * time.Millisecond, Multiplier: 2,
		MaxBackoff: 80 * time.Millisecond, Seed: 3,
	}})
	defer tr.Close()
	for attempt := 1; attempt <= 8; attempt++ {
		base := float64(10 * time.Millisecond)
		for i := 1; i < attempt; i++ {
			base *= 2
			if base >= float64(80*time.Millisecond) {
				base = float64(80 * time.Millisecond)
				break
			}
		}
		for trial := 0; trial < 4; trial++ {
			d := tr.backoff(attempt)
			if float64(d) < base/2 || float64(d) > base {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]",
					attempt, d, time.Duration(base/2), time.Duration(base))
			}
		}
	}
}

// TestHTTPTokenBearerAuth: a configured token rides every frame as a
// bearer header; a peer rejecting it with 401 is a permanent refusal —
// one attempt, no retry storm.
func TestHTTPTokenBearerAuth(t *testing.T) {
	remote := NewHTTPTransport(HTTPConfig{Run: "r1", Node: "b"})
	remote.RegisterLocal("svc", func(c *Call) ([]Emit, error) {
		return []Emit{{Tag: "out", Payload: "ok"}}, nil
	})
	inner := serveTransport(t, remote)
	var hits atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.Header.Get("Authorization") != "Bearer s3cret" {
			http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
			return
		}
		inner.Config.Handler.ServeHTTP(w, r)
	}))
	defer gate.Close()

	good := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "a", Routes: map[string]string{"svc": gate.URL},
		Retry: fastRetry(), Token: "s3cret",
	})
	if err := good.Call("svc", "p", nil); err != nil {
		t.Fatalf("authorized call failed: %v", err)
	}
	good.Close()

	hits.Store(0)
	bad := NewHTTPTransport(HTTPConfig{
		Run: "r1", Node: "c", Routes: map[string]string{"svc": gate.URL},
		Retry: fastRetry(),
	})
	err := bad.Call("svc", "p", nil)
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("tokenless call: err = %v, want permanent 401", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("401 was retried: %d attempts, want 1", hits.Load())
	}
	bad.Close()
	remote.Close()
}
