package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dscweaver/internal/services"
)

// postFrame delivers one frame to s's transport endpoint and returns
// the status code.
func postFrame(t *testing.T, s *Server, f services.Frame) int {
	t.Helper()
	body, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, services.DefaultInvokePath, bytes.NewReader(body)))
	return rec.Code
}

// refused reads transport_invoke_refused_total for one reason.
func refused(s *Server, reason string) int64 {
	return s.Registry().Counter("transport_invoke_refused_total", "reason", reason).Value()
}

// TestTransportInvokeRefusedNoRun: a frame for a run with no registered
// transport answers 404 and counts as reason no_run; a frame for a
// finished run is acknowledged and not counted.
func TestTransportInvokeRefusedNoRun(t *testing.T) {
	s, err := New(Config{StoreReprobe: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	if code := postFrame(t, s, services.Frame{V: 1, Run: "ghost", Seq: 1, From: "peer", Service: "node:h", Port: "note"}); code != http.StatusNotFound {
		t.Fatalf("frame for an unregistered run: %d, want 404", code)
	}
	if got := refused(s, "no_run"); got != 1 {
		t.Errorf("no_run refusals = %d, want 1", got)
	}
	s.dropEnactTransport("done")
	if code := postFrame(t, s, services.Frame{V: 1, Run: "done", Seq: 1, From: "peer", Service: "node:h", Port: "note"}); code != http.StatusOK {
		t.Fatalf("frame for a finished run: %d, want 200", code)
	}
	if got, other := refused(s, "no_run"), refused(s, "no_receiver"); got != 1 || other != 0 {
		t.Errorf("refusals no_run/no_receiver = %d/%d, want 1/0", got, other)
	}
}

// TestTransportInvokeRefusedNoReceiver: a frame for a registered run
// whose transport does not host the frame's service yet answers 404 and
// counts as reason no_receiver; once the receiver registers, the same
// frame is delivered and not counted.
func TestTransportInvokeRefusedNoReceiver(t *testing.T) {
	s, err := New(Config{StoreReprobe: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	tr := services.NewHTTPTransport(services.HTTPConfig{Run: "r1", Node: "self"})
	defer tr.Close()
	if err := s.registerEnactTransport("r1", tr); err != nil {
		t.Fatal(err)
	}
	defer s.dropEnactTransport("r1")
	frame := services.Frame{V: 1, Run: "r1", Seq: 1, From: "peer", Service: "node:h", Port: "note"}
	if code := postFrame(t, s, frame); code != http.StatusNotFound {
		t.Fatalf("frame before its receiver registered: %d, want 404", code)
	}
	if got, other := refused(s, "no_receiver"), refused(s, "no_run"); got != 1 || other != 0 {
		t.Errorf("refusals no_receiver/no_run = %d/%d, want 1/0", got, other)
	}
	if err := tr.RegisterLocal("node:h", func(*services.Call) ([]services.Emit, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if code := postFrame(t, s, frame); code != http.StatusOK {
		t.Fatalf("frame after its receiver registered: %d, want 200", code)
	}
	if got := refused(s, "no_receiver"); got != 1 {
		t.Errorf("no_receiver refusals = %d after delivery, want 1", got)
	}
}
