package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dscweaver/internal/services"
)

// postFrame delivers one frame to s's transport endpoint and returns
// the status code. Safe to call off the test goroutine.
func postFrame(t *testing.T, s *Server, f services.Frame) int {
	t.Helper()
	body, err := json.Marshal(f)
	if err != nil {
		t.Error(err)
		return 0
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, services.DefaultInvokePath, bytes.NewReader(body)))
	return rec.Code
}

// refused reads transport_invoke_refused_total for one reason.
func refused(s *Server, reason string) int64 {
	return s.Registry().Counter("transport_invoke_refused_total", "reason", reason).Value()
}

// parked reads transport_invoke_parked_total for one reason.
func parked(s *Server, reason string) int64 {
	return s.Registry().Counter("transport_invoke_parked_total", "reason", reason).Value()
}

// parkedEntries counts the run ids frames are parked on.
func parkedEntries(s *Server) int {
	s.enactMu.Lock()
	defer s.enactMu.Unlock()
	return len(s.enactParked)
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func newInvokeServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{StoreReprobe: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s
}

// newNodeTransport builds a run's transport, registered on s or not,
// and returns it with a count of the notes its receivers applied.
func newNodeTransport(t *testing.T, run string) (*services.HTTPTransport, *atomic.Int64) {
	t.Helper()
	tr := services.NewHTTPTransport(services.HTTPConfig{Run: run, Node: "self"})
	t.Cleanup(tr.Close)
	return tr, new(atomic.Int64)
}

func registerReceiver(t *testing.T, tr *services.HTTPTransport, name string, applied *atomic.Int64) {
	t.Helper()
	if err := tr.RegisterLocal(name, func(*services.Call) ([]services.Emit, error) {
		applied.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTransportInvokeRefusesUnregisteredRunAfterBound: a frame for a
// run that never registers answers 404, counted as no_run, once the
// park bound passes; a frame for a finished run is acknowledged at once
// and neither parked nor refused.
func TestTransportInvokeRefusesUnregisteredRunAfterBound(t *testing.T) {
	s := newInvokeServer(t)

	began := time.Now()
	if code := postFrame(t, s, services.Frame{V: 1, Run: "ghost", Seq: 1, From: "peer", Service: "node:h", Port: "note"}); code != http.StatusNotFound {
		t.Fatalf("frame for an unregistered run: %d, want 404", code)
	}
	if waited := time.Since(began); waited < framePark || waited > framePark+time.Second {
		t.Errorf("refusal after %v, want the %v park bound", waited, framePark)
	}
	if got := refused(s, "no_run"); got != 1 {
		t.Errorf("no_run refusals = %d, want 1", got)
	}
	if n := parkedEntries(s); n != 0 {
		t.Errorf("%d parked entries left after the bound", n)
	}

	s.dropEnactTransport("done")
	began = time.Now()
	if code := postFrame(t, s, services.Frame{V: 1, Run: "done", Seq: 1, From: "peer", Service: "node:h", Port: "note"}); code != http.StatusOK {
		t.Fatalf("frame for a finished run: %d, want 200", code)
	}
	if waited := time.Since(began); waited > framePark/2 {
		t.Errorf("finished run acknowledged after %v, want at once", waited)
	}
	if got, other := refused(s, "no_run"), refused(s, "no_receiver"); got != 1 || other != 0 {
		t.Errorf("refusals no_run/no_receiver = %d/%d, want 1/0", got, other)
	}
	if got := parked(s, "no_run"); got != 1 {
		t.Errorf("no_run parks = %d, want 1 (the ghost frame only)", got)
	}
}

// TestTransportInvokeParksUntilReceiverRegisters: a frame for a live
// run whose transport has no receiver for the frame's service yet waits
// inside the transport and is delivered once the receiver registers,
// with no refusal counted. A receiver wait the run's close ends answers
// 404 no_receiver at once, not after the bound.
func TestTransportInvokeParksUntilReceiverRegisters(t *testing.T) {
	s := newInvokeServer(t)
	tr, applied := newNodeTransport(t, "r1")
	if err := s.registerEnactTransport("r1", tr); err != nil {
		t.Fatal(err)
	}
	defer s.dropEnactTransport("r1")

	code := make(chan int, 1)
	go func() {
		code <- postFrame(t, s, services.Frame{V: 1, Run: "r1", Seq: 1, From: "peer", Service: "node:h", Port: "note"})
	}()
	waitFor(t, "the frame to park", func() bool { return parked(s, "no_receiver") == 1 })
	registerReceiver(t, tr, "node:other", applied) // not the frame's receiver
	select {
	case c := <-code:
		t.Fatalf("parked frame answered %d before its receiver registered", c)
	case <-time.After(20 * time.Millisecond):
	}
	registerReceiver(t, tr, "node:h", applied)
	if c := <-code; c != http.StatusOK {
		t.Fatalf("parked frame after its receiver registered: %d, want 200", c)
	}
	if applied.Load() != 1 {
		t.Errorf("receivers applied %d notes, want 1", applied.Load())
	}
	if got, other := refused(s, "no_receiver"), refused(s, "no_run"); got != 0 || other != 0 {
		t.Errorf("refusals no_receiver/no_run = %d/%d, want 0/0", got, other)
	}

	tr2, _ := newNodeTransport(t, "r2")
	if err := s.registerEnactTransport("r2", tr2); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	go func() {
		code <- postFrame(t, s, services.Frame{V: 1, Run: "r2", Seq: 1, From: "peer", Service: "node:h", Port: "note"})
	}()
	waitFor(t, "the second frame to park", func() bool { return parked(s, "no_receiver") == 2 })
	s.dropEnactTransport("r2")
	tr2.Close()
	if c := <-code; c != http.StatusNotFound {
		t.Fatalf("frame whose run closed without its receiver: %d, want 404", c)
	}
	if waited := time.Since(began); waited >= framePark {
		t.Errorf("closed run refused its frame after %v, want before the %v bound", waited, framePark)
	}
	if got := refused(s, "no_receiver"); got != 1 {
		t.Errorf("no_receiver refusals = %d, want 1", got)
	}
}

// TestTransportInvokeParkedFramesShareOneRendezvous: many frames park
// on one run this server has not registered yet. One registration
// wakes every one of them, none answers before it, and each is
// delivered with 200 and no refusal counted; if the run never
// registers, each frame is refused after its own bound — a waiter
// giving up never wakes the others — and no parked entry outlives the
// requests either way.
func TestTransportInvokeParkedFramesShareOneRendezvous(t *testing.T) {
	const frames = 32
	frame := func(run string, i int) services.Frame {
		return services.Frame{V: 1, Run: run, Seq: int64(i + 1), From: "peer", Service: "node:h", Port: "note"}
	}

	t.Run("registered", func(t *testing.T) {
		s := newInvokeServer(t)
		tr, applied := newNodeTransport(t, "r1")
		registerReceiver(t, tr, "node:h", applied)
		var answered atomic.Int64
		codes := make([]int, frames)
		var wg sync.WaitGroup
		for i := 0; i < frames; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				codes[i] = postFrame(t, s, frame("r1", i))
				answered.Add(1)
			}(i)
		}
		waitFor(t, "every frame to park", func() bool { return parked(s, "no_run") == frames })
		time.Sleep(20 * time.Millisecond)
		if n := answered.Load(); n != 0 {
			t.Fatalf("%d frames answered before their run registered", n)
		}
		if err := s.registerEnactTransport("r1", tr); err != nil {
			t.Fatal(err)
		}
		defer s.dropEnactTransport("r1")
		wg.Wait()
		for i, c := range codes {
			if c != http.StatusOK {
				t.Errorf("frame %d: %d, want 200", i, c)
			}
		}
		if applied.Load() != frames {
			t.Errorf("receiver applied %d notes, want %d", applied.Load(), frames)
		}
		if got := refused(s, "no_run"); got != 0 {
			t.Errorf("no_run refusals = %d, want 0", got)
		}
		if n := parkedEntries(s); n != 0 {
			t.Errorf("%d parked entries left after registration", n)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		s := newInvokeServer(t)
		var wg sync.WaitGroup
		errs := make(chan string, frames)
		post := func(i int) {
			defer wg.Done()
			began := time.Now()
			code := postFrame(t, s, frame("ghost", i))
			if waited := time.Since(began); code != http.StatusNotFound || waited < framePark {
				errs <- fmt.Sprintf("frame %d: %d after %v, want 404 after the %v bound", i, code, waited, framePark)
			}
		}
		// Two waves, so the first wave's timeouts land while the second
		// is still parked.
		for i := 0; i < frames; i++ {
			if i == frames/2 {
				waitFor(t, "the first wave to park", func() bool { return parked(s, "no_run") == frames/2 })
				time.Sleep(framePark / 2)
			}
			wg.Add(1)
			go post(i)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if got := refused(s, "no_run"); got != frames {
			t.Errorf("no_run refusals = %d, want %d", got, frames)
		}
		if n := parkedEntries(s); n != 0 {
			t.Errorf("%d parked entries left after every frame timed out", n)
		}
	})
}

// TestTransportInvokeFailedJoinReleasesFrames: a join that fails
// before its run registers (here: a source that does not parse)
// retires the run id, so frames parked on it are acknowledged at once
// instead of holding their senders for the park bound.
func TestTransportInvokeFailedJoinReleasesFrames(t *testing.T) {
	s := newInvokeServer(t)
	type answer struct {
		code   int
		waited time.Duration
	}
	done := make(chan answer, 1)
	began := time.Now()
	go func() {
		c := postFrame(t, s, services.Frame{V: 1, Run: "j1", Seq: 1, From: "coord", Service: "node:h", Port: "note"})
		done <- answer{c, time.Since(began)}
	}()
	waitFor(t, "the frame to park", func() bool { return parked(s, "no_run") == 1 })

	join, err := json.Marshal(EnactJoinRequest{
		SimulateRequest: SimulateRequest{WeaveRequest: WeaveRequest{Source: "process broken {"}},
		RunID:           "j1",
		Hosts:           []string{"h"},
		Partition:       map[string]string{"a": "h"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/enact/join", bytes.NewReader(join)))
	if rec.Code == http.StatusOK {
		t.Fatalf("join of an unparsable source succeeded: %s", rec.Body)
	}
	a := <-done
	if a.code != http.StatusOK {
		t.Errorf("frame parked on a failed join: %d, want 200 (acknowledged)", a.code)
	}
	if a.waited >= framePark {
		t.Errorf("failed join released its frame after %v, want before the %v bound", a.waited, framePark)
	}
	if n := parkedEntries(s); n != 0 {
		t.Errorf("%d parked entries left after the failed join", n)
	}
}

// TestShutdownNotHeldByParkedFrame: a frame parked on a run that never
// registers holds a server's drain for at most the park bound.
func TestShutdownNotHeldByParkedFrame(t *testing.T) {
	s, err := New(Config{StoreReprobe: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	body, _ := json.Marshal(services.Frame{V: 1, Run: "ghost", Seq: 1, From: "peer", Service: "node:h", Port: "note"})
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+services.DefaultInvokePath, "application/json", bytes.NewReader(body))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "the frame to park", func() bool { return parked(s, "no_run") == 1 })
	began := time.Now()
	ts.Close()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(began); waited > framePark+time.Second {
		t.Errorf("drain took %v with a parked frame, want at most the %v bound", waited, framePark)
	}
	if c := <-done; c != http.StatusNotFound {
		t.Errorf("parked frame during drain: %d, want 404", c)
	}
	if n := parkedEntries(s); n != 0 {
		t.Errorf("%d parked entries left after the drain", n)
	}
}
