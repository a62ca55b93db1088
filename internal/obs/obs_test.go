package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "service", "Credit")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "service", "Credit"); again != c {
		t.Fatal("lookup did not return the same counter")
	}
	other := r.Counter("requests_total", "service", "Ship")
	if other == c {
		t.Fatal("distinct labels shared a counter")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	g.SetMax(2)
	if g.Value() != 4 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatal("SetMax did not raise the gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.001, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.561; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	text := r.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 2`, // 0.001 and the boundary value 0.01
		`latency_seconds_bucket{le="0.1"} 3`,
		`latency_seconds_bucket{le="1"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_current").Set(1)
	r.Counter("b_total", "k", "v").Inc()
	text := r.String()
	// Families sorted by name, one TYPE header per family.
	if strings.Index(text, "# TYPE a_current gauge") > strings.Index(text, "# TYPE b_total counter") {
		t.Errorf("families not sorted:\n%s", text)
	}
	if strings.Count(text, "# TYPE b_total") != 1 {
		t.Errorf("duplicate TYPE header:\n%s", text)
	}
	if !strings.Contains(text, `b_total{k="v"} 1`) {
		t.Errorf("labeled sample missing:\n%s", text)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hits_total").Inc()
				r.Histogram("lat", DurationBuckets).Observe(0.001)
				r.Gauge("g").SetMax(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
	if got := r.Histogram("lat", DurationBuckets).Count(); got != 8000 {
		t.Fatalf("observations = %d, want 8000", got)
	}
}

func TestStampMonotonic(t *testing.T) {
	a := Stamp(Event{Layer: LayerEngine, Kind: EvRunBegin})
	time.Sleep(time.Millisecond)
	b := Stamp(Event{Layer: LayerEngine, Kind: EvRunEnd})
	if b.Mono <= a.Mono {
		t.Fatalf("mono not increasing: %v then %v", a.Mono, b.Mono)
	}
	if a.Wall.IsZero() || b.Wall.IsZero() {
		t.Fatal("wall clock not stamped")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	in := []Event{
		Stamp(Event{Layer: LayerEngine, Kind: EvActivityStart, Activity: "a1", Seq: 3}),
		Stamp(Event{Layer: LayerBus, Kind: EvFault, Service: "Ship", Port: "1", Err: "boom"}),
		Stamp(Event{Layer: LayerMinimize, Kind: EvMinimizeEnd, Detail: "P", Value: 1,
			Decision: &Decision{Candidates: 3, Checks: 3, Pairs: 12, Removed: []string{"F(a)→S(b)"}}}),
	}
	for _, e := range in {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The decision record's wire shape is the /v1/runs/{id}/events
	// contract for minimize_end.
	const decision = `"decision":{"candidates":3,"checks":3,"pairs":12,"removed":["F(a)→S(b)"]}`
	if !strings.Contains(buf.String(), decision) {
		t.Errorf("encoded log lacks %s:\n%s", decision, buf.String())
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || out[i].Layer != in[i].Layer ||
			out[i].Activity != in[i].Activity || out[i].Seq != in[i].Seq ||
			out[i].Err != in[i].Err || out[i].Detail != in[i].Detail ||
			out[i].Mono != in[i].Mono || out[i].Value != in[i].Value ||
			!reflect.DeepEqual(out[i].Decision, in[i].Decision) {
			t.Errorf("event %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestMultiSinkAndMemSink(t *testing.T) {
	var a, b MemSink
	s := MultiSink(&a, nil, &b)
	s.Emit(Event{Kind: EvInvoke})
	s.Emit(Event{Kind: EvCallback})
	if len(a.Events()) != 2 || len(b.Events()) != 2 {
		t.Fatalf("fan-out lost events: %d / %d", len(a.Events()), len(b.Events()))
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("Len disagrees with Events: %d / %d", a.Len(), b.Len())
	}
}

// TestReadJSONLMalformedLine is the regression test for the typed
// reader error: a corrupted line must surface a *LineError naming the
// line while the valid prefix is still returned.
func TestReadJSONLMalformedLine(t *testing.T) {
	log := `{"layer":"engine","kind":"run_begin"}
{"layer":"engine","kind":"activity_start","activity":"a","seq":1}
{not json at all
{"layer":"engine","kind":"run_end"}
`
	events, err := ReadJSONL(strings.NewReader(log))
	if err == nil {
		t.Fatal("corrupted log read without error")
	}
	var le *LineError
	if !errors.As(err, &le) {
		t.Fatalf("error %T is not a *LineError: %v", err, err)
	}
	if le.Line != 3 {
		t.Errorf("LineError.Line = %d, want 3", le.Line)
	}
	if !strings.Contains(le.Excerpt, "not json") {
		t.Errorf("LineError.Excerpt = %q, want offending input", le.Excerpt)
	}
	if le.Unwrap() == nil {
		t.Error("LineError.Unwrap() = nil, want underlying decode error")
	}
	if len(events) != 2 {
		t.Errorf("valid prefix = %d events, want 2", len(events))
	}
	if len(events) == 2 && events[1].Kind != EvActivityStart {
		t.Errorf("prefix content wrong: %+v", events)
	}
}

func TestReadJSONLOversizedLine(t *testing.T) {
	// A line past the scanner's 4 MiB cap is a scan error, which must
	// also arrive typed with a line number.
	big := `{"detail":"` + strings.Repeat("x", 5<<20) + `"}`
	log := "{\"kind\":\"run_begin\"}\n" + big + "\n"
	events, err := ReadJSONL(strings.NewReader(log))
	var le *LineError
	if !errors.As(err, &le) {
		t.Fatalf("error %T is not a *LineError: %v", err, err)
	}
	if le.Line != 2 {
		t.Errorf("LineError.Line = %d, want 2", le.Line)
	}
	if len(events) != 1 {
		t.Errorf("valid prefix = %d events, want 1", len(events))
	}
}

func TestOverrideBuckets(t *testing.T) {
	r := NewRegistry()
	if err := r.OverrideBuckets("weave_seconds", []float64{0.5, 1, 2}); err != nil {
		t.Fatal(err)
	}
	h := r.Histogram("weave_seconds", DurationBuckets)
	h.Observe(0.7)
	expo := r.String()
	if !strings.Contains(expo, `weave_seconds_bucket{le="0.5"} 0`) ||
		!strings.Contains(expo, `weave_seconds_bucket{le="1"} 1`) {
		t.Errorf("override not applied:\n%s", expo)
	}
	if strings.Contains(expo, `le="1e-05"`) {
		t.Errorf("default DurationBuckets leaked through the override:\n%s", expo)
	}

	// Too late: the family exists.
	if err := r.OverrideBuckets("weave_seconds", []float64{1}); err == nil {
		t.Error("overriding a registered family must fail")
	}
	// Invalid bounds.
	if err := r.OverrideBuckets("other", nil); err == nil {
		t.Error("empty override must fail")
	}
	if err := r.OverrideBuckets("other", []float64{2, 1}); err == nil {
		t.Error("unsorted override must fail")
	}
}
