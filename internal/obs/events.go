package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one typed lifecycle event. Mono is a monotonic offset from
// a per-process origin (first use of Stamp), so events merged from
// several layers of one process order correctly even across wall-clock
// adjustments; Wall is the human-readable counterpart.
type Event struct {
	Mono time.Duration `json:"mono_ns"`
	Wall time.Time     `json:"wall,omitempty"`
	// Layer identifies the emitting subsystem: LayerEngine, LayerBus
	// or LayerMinimize.
	Layer string `json:"layer"`
	// Kind is one of the Ev* constants.
	Kind     string `json:"kind"`
	Activity string `json:"activity,omitempty"`
	Service  string `json:"service,omitempty"`
	Port     string `json:"port,omitempty"`
	// Seq is the engine's global event sequence number (scheduler
	// events only); TraceFromEvents rebuilds traces from it.
	Seq     int    `json:"seq,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Branch  string `json:"branch,omitempty"`
	Err     string `json:"err,omitempty"`
	// Detail carries free-form context (process name, stage name).
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
	DurNS  int64   `json:"dur_ns,omitempty"`
	// Decision is the minimizer's decision record; only minimize_end
	// carries one.
	Decision *Decision `json:"decision,omitempty"`
}

// Decision records what one minimization run decided: how many
// candidates it had, the equivalence checks and pair comparisons it
// ran (both 0 when the verdict cache served the run), and the removed
// constraints in removal order. Every field is a function of the input
// and the engine configuration: two runs that decide the same set
// record the same Decision. On a canceled run it covers the candidates
// decided before the abort.
type Decision struct {
	Candidates int      `json:"candidates"`
	Checks     int      `json:"checks"`
	Pairs      int      `json:"pairs"`
	Removed    []string `json:"removed"`
}

// Layers.
const (
	LayerEngine   = "engine"
	LayerBus      = "bus"
	LayerMinimize = "minimize"
	LayerWeave    = "weave"
	// LayerTransport marks events from non-local transports (the HTTP
	// transport's invoke/callback/breaker lifecycle).
	LayerTransport = "transport"
)

// Event kinds.
const (
	// Engine lifecycle (§4.1's start/run/finish states: a start event
	// covers the S→R transition, which the engine performs atomically;
	// finish covers F).
	EvRunBegin       = "run_begin"
	EvRunEnd         = "run_end"
	EvActivityStart  = "activity_start"
	EvActivityFinish = "activity_finish"
	EvActivitySkip   = "activity_skip"
	EvActivityRetry  = "activity_retry"
	EvActivityFail   = "activity_fail"

	// Bus lifecycle.
	EvInvoke    = "invoke"
	EvCallback  = "callback"
	EvFault     = "fault"
	EvServiceUp = "service_up"
	EvBusClosed = "bus_closed"

	// Per-port circuit breaker transitions (Service/Port name the
	// port; Value carries the consecutive-fault count at the trip).
	EvBreakerOpen     = "breaker_open"
	EvBreakerHalfOpen = "breaker_half_open"
	EvBreakerClose    = "breaker_close"

	// Minimizer lifecycle (minimize_end carries the run's Decision).
	EvMinimizeBegin = "minimize_begin"
	EvMinimizeEnd   = "minimize_end"

	// Weave pipeline lifecycle (Detail = stage name for stage events,
	// process name for weave_end; Err carries the abort cause).
	EvWeaveBegin = "weave_begin"
	EvWeaveEnd   = "weave_end"
	EvStageBegin = "stage_begin"
	EvStageEnd   = "stage_end"

	// Inter-node fabric faults (Service names the peer host).
	// retransmit: the receiver absorbed a duplicate frame via the
	// (from, seq) idempotency cache. partition: a note send exhausted
	// its retry budget against an unreachable peer and failed the run.
	EvRetransmit = "retransmit"
	EvPartition  = "partition"
)

var (
	originOnce sync.Once
	origin     time.Time
)

// Stamp fills an event's clocks: Wall from the system clock, Mono as
// the offset from the process-wide origin (established on first use).
func Stamp(e Event) Event {
	originOnce.Do(func() { origin = time.Now() })
	now := time.Now()
	e.Wall = now
	e.Mono = now.Sub(origin) // uses the monotonic reading of both
	return e
}

// Sink receives lifecycle events. Implementations must be safe for
// concurrent use; Emit should not block the caller for long (the
// engine emits outside its scheduling lock, but executors wait on the
// same goroutines).
type Sink interface {
	Emit(Event)
}

// NopSink discards events; it exists so benches can price the
// event-construction overhead separately from serialization.
type NopSink struct{}

// Emit discards the event.
func (NopSink) Emit(Event) {}

// MultiSink fans an event out to several sinks.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		if s != nil {
			s.Emit(e)
		}
	}
}

// MemSink collects events in memory (tests, replay).
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (m *MemSink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events copies the collected events.
func (m *MemSink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Len reports the number of collected events without copying them —
// counting a large run's log must not clone it.
func (m *MemSink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// JSONLWriter streams events as one JSON object per line. The zero
// value is not usable; construct with NewJSONLWriter. Emit never
// fails the caller: the first write error is latched and later emits
// are dropped (observability must not take the process down).
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Emit writes one line.
func (j *JSONLWriter) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		j.err = err
	}
}

// Close flushes the buffer and returns the first error seen.
func (j *JSONLWriter) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// LineError reports a malformed line in a JSONL event log: the
// 1-based line number, a bounded excerpt of the offending bytes, and
// the underlying decode or scan error. Callers that tolerate partial
// logs (a reader racing a writer, a truncated rotation) can detect it
// with errors.As and keep the valid prefix ReadJSONL returns alongside
// it.
type LineError struct {
	// Line is the 1-based number of the malformed line (the line the
	// scanner was on, for scanner-level errors such as an oversized
	// line).
	Line int
	// Excerpt is the offending input, truncated to excerptLimit bytes.
	Excerpt string
	// Err is the underlying error.
	Err error
}

const excerptLimit = 128

func (e *LineError) Error() string {
	return fmt.Sprintf("obs: event log line %d: %v (input %q)", e.Line, e.Err, e.Excerpt)
}

// Unwrap exposes the underlying decode/scan error to errors.Is/As.
func (e *LineError) Unwrap() error { return e.Err }

func excerpt(b []byte) string {
	if len(b) > excerptLimit {
		b = b[:excerptLimit]
	}
	return string(b)
}

// ReadJSONL parses a JSONL event log back into events, preserving
// line order. On malformed input it returns the events decoded before
// the bad line together with a *LineError naming the line — a reader
// hitting a half-written tail keeps the valid prefix instead of
// losing the whole log.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return out, &LineError{Line: line, Excerpt: excerpt(sc.Bytes()), Err: err}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, &LineError{Line: line + 1, Err: err}
	}
	return out, nil
}
