// The note RPC between dscweaverd processes: one synchronous Call per
// enactment note, carried as a JSON-framed HTTP POST to a peer's
// invoke endpoint and answered in the response body. Each frame is
// correlated by run id (a frame for another run is refused) and a
// per-sender sequence number, which makes retried POSTs idempotent:
// the receiver caches the result of each (from, seq) and replays it
// when a lost response causes a retransmit. Faults classify via
// ErrTransient / ErrPermanent, and retries back off exponentially with
// seeded jitter inside an optional elapsed budget.
package services

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/obs"
)

// DefaultInvokePath is the endpoint peers mount for incoming frames.
const DefaultInvokePath = "/v1/transport/invoke"

// ErrRunMismatch is returned by Deliver for a frame correlated to a
// different run than the transport serves.
var ErrRunMismatch = errors.New("transport: frame for different run")

// ErrUnknownService is returned by Deliver for a frame whose service
// is not registered on this node.
var ErrUnknownService = errors.New("unknown service")

// ErrBudgetExhausted wraps every send failure caused by running out of
// retries — the attempt cap or the MaxElapsed budget — against a peer
// that never answered successfully. Callers classify it as "the peer
// is unreachable" (the enactment layer maps it to a typed
// PartitionedPeerError), distinct from a permanent refusal.
var ErrBudgetExhausted = errors.New("transport: retry budget exhausted")

// Frame is one invocation on the wire.
type Frame struct {
	V       int             `json:"v"`
	Run     string          `json:"run"`
	Seq     int64           `json:"seq"`
	From    string          `json:"from"`
	Service string          `json:"service"`
	Port    string          `json:"port"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// CallbackFrame is one callback on the wire. Permanent preserves the
// retry classification across the process boundary.
type CallbackFrame struct {
	Service   string          `json:"service"`
	Tag       string          `json:"tag"`
	Payload   json.RawMessage `json:"payload,omitempty"`
	Err       string          `json:"err,omitempty"`
	Permanent bool            `json:"permanent,omitempty"`
}

// DeliverResult is the response body of one delivered frame: the
// callbacks the invocation produced, carried back synchronously so no
// separate reply channel is needed.
type DeliverResult struct {
	Callbacks []CallbackFrame `json:"callbacks,omitempty"`
}

// HTTPRetry tunes the transport's send retries (covering network
// faults, 5xx responses, and the 404/409 a peer answers when the run
// or its receiver has not registered there in time).
type HTTPRetry struct {
	MaxAttempts int           // default 10
	Backoff     time.Duration // first delay, default 25ms
	Multiplier  float64       // default 2
	MaxBackoff  time.Duration // default 1s
	// MaxElapsed caps the total time one frame spends retrying (0 = no
	// cap). Callers racing a deadline — the enactment fabric under the
	// engine timeout — set it below that deadline so an unreachable
	// peer surfaces as a send error instead of a generic timeout.
	MaxElapsed time.Duration
	Seed       int64 // jitter seed
}

func (r HTTPRetry) normalize() HTTPRetry {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 10
	}
	if r.Backoff <= 0 {
		r.Backoff = 25 * time.Millisecond
	}
	if r.Multiplier < 1 {
		r.Multiplier = 2
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = time.Second
	}
	return r
}

// HTTPConfig builds one HTTP transport.
type HTTPConfig struct {
	// Run is the correlation id stamped on every frame; Deliver refuses
	// frames for any other run.
	Run string
	// Node names this process; stamped as Frame.From, it keys the
	// receiver-side idempotency cache.
	Node string
	// Routes maps service names to peer base URLs (scheme://host:port).
	// Services not routed must be registered locally.
	Routes map[string]string
	// Client is the HTTP client (http.DefaultClient when nil).
	Client *http.Client
	// Retry tunes send retries.
	Retry HTTPRetry
	// Token, when set, is sent as a bearer token on every outgoing
	// frame; peers requiring one answer 401 (permanent — a bad secret
	// must not retry-storm).
	Token string
	// Metrics / Events instrument the transport (either may be nil).
	Metrics *obs.Registry
	Events  obs.Sink
}

// localService hosts one handler on this node. Calls are serialized
// per service, with private state and a 1-based arrival index — the
// bus's conversation semantics. Payloads are decoded from the wire to
// plain JSON values before the handler runs.
type localService struct {
	name  string
	h     Handler
	mu    sync.Mutex
	state map[string]any
	seq   int
}

// HTTPTransport sends notes to peers with Call and serves theirs
// with Deliver.
type HTTPTransport struct {
	cfg    HTTPConfig
	client *http.Client
	retry  HTTPRetry

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	closed bool
	locals map[string]*localService
	// registered is closed and replaced whenever a local service
	// registers, and closed for good by Close: WaitLocal blocks on it.
	registered chan struct{}
	seq        atomic.Int64

	inflight sync.WaitGroup // accepted calls not yet resolved

	seenMu sync.Mutex
	seen   map[string]DeliverResult // from\x00seq → replayed result
}

// NewHTTPTransport builds a transport. Register local services with
// RegisterLocal before traffic flows; mount Deliver behind the peer's
// invoke endpoint.
func NewHTTPTransport(cfg HTTPConfig) *HTTPTransport {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPTransport{
		cfg:    cfg,
		client: client,
		retry:  cfg.Retry.normalize(),
		rng:    rand.New(rand.NewSource(cfg.Retry.Seed + 1)),
		locals: map[string]*localService{},
		seen:   map[string]DeliverResult{},

		registered: make(chan struct{}),
	}
}

// RegisterLocal hosts a handler on this node, reachable both from
// peers (via Deliver) and from this node's own Call. The handler's
// Call.Payload is the frame's payload as it arrived, a json.RawMessage
// (nil when the frame carries none), so the handler decodes it once,
// into its own type.
func (t *HTTPTransport) RegisterLocal(name string, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: register %s: %w", name, ErrBusClosed)
	}
	if _, dup := t.locals[name]; dup {
		return fmt.Errorf("transport: register %s: duplicate service", name)
	}
	t.locals[name] = &localService{name: name, h: h, state: map[string]any{}}
	close(t.registered)
	t.registered = make(chan struct{})
	return nil
}

// WaitLocal blocks until name is registered locally (true), or the
// transport closes or ctx ends first (false). A peer's frame can
// outrun this node's RegisterLocal; the invoke endpoint parks it here
// instead of refusing it into the sender's backoff.
func (t *HTTPTransport) WaitLocal(ctx context.Context, name string) bool {
	for {
		t.mu.Lock()
		_, ok := t.locals[name]
		closed, registered := t.closed, t.registered
		t.mu.Unlock()
		if ok {
			return true
		}
		if closed {
			return false
		}
		select {
		case <-registered:
		case <-ctx.Done():
			return false
		}
	}
}

func (t *HTTPTransport) emit(ev obs.Event) {
	if t.cfg.Events == nil {
		return
	}
	ev.Layer = obs.LayerTransport
	t.cfg.Events.Emit(obs.Stamp(ev))
}

func (t *HTTPTransport) counter(name, service, port string) *obs.Counter {
	if t.cfg.Metrics == nil {
		return nil
	}
	return t.cfg.Metrics.Counter(name, "service", service, "port", port)
}

// Call sends one frame synchronously and returns its error — the
// enactment fabric's primitive for cross-node notes, where the caller
// needs completion, not a callback. Retries cover transient faults and
// a peer that has not registered the run in time; no breaker applies
// (a note must eventually land or the run fails).
func (t *HTTPTransport) Call(serviceName, port string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("transport: call %s.%s: %w", serviceName, port, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport: call %s.%s: %w", serviceName, port, ErrBusClosed)
	}
	_, local := t.locals[serviceName]
	url := t.cfg.Routes[serviceName]
	if !local && url == "" {
		t.mu.Unlock()
		return fmt.Errorf("transport: call %s.%s: unknown service", serviceName, port)
	}
	t.inflight.Add(1)
	t.mu.Unlock()
	defer t.inflight.Done()

	f := Frame{V: 1, Run: t.cfg.Run, Seq: t.seq.Add(1), From: t.cfg.Node,
		Service: serviceName, Port: port, Payload: raw}
	var res DeliverResult
	if url == "" {
		res, err = t.Deliver(f)
	} else {
		res, err = t.post(url, f)
	}
	if err != nil {
		return fmt.Errorf("transport: call %s.%s: %w", serviceName, port, err)
	}
	for _, cf := range res.Callbacks {
		if cf.Err != "" {
			return fmt.Errorf("transport: call %s.%s: %s", serviceName, port, cf.Err)
		}
	}
	return nil
}

// post sends one frame with retries. Network faults, 5xx, and a
// 404/409 (the peer has not registered the run) classify transient;
// other 4xx are permanent.
func (t *HTTPTransport) post(url string, f Frame) (DeliverResult, error) {
	body, err := json.Marshal(f)
	if err != nil {
		return DeliverResult{}, Permanent(err)
	}
	endpoint := url + DefaultInvokePath
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < t.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := t.backoff(attempt)
			if t.retry.MaxElapsed > 0 && time.Since(start)+delay > t.retry.MaxElapsed {
				return DeliverResult{}, fmt.Errorf("%w: %v elapsed budget after %d attempts: %v",
					ErrBudgetExhausted, t.retry.MaxElapsed, attempt, lastErr)
			}
			if c := t.counter("transport_retries_total", f.Service, f.Port); c != nil {
				c.Inc()
			}
			time.Sleep(delay)
		}
		req, rqerr := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
		if rqerr != nil {
			return DeliverResult{}, Permanent(rqerr)
		}
		req.Header.Set("Content-Type", "application/json")
		if t.cfg.Token != "" {
			req.Header.Set("Authorization", "Bearer "+t.cfg.Token)
		}
		resp, err := t.client.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("%v: %w", err, ErrTransient)
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			if rerr != nil {
				lastErr = fmt.Errorf("%v: %w", rerr, ErrTransient)
				continue
			}
			var res DeliverResult
			if err := json.Unmarshal(data, &res); err != nil {
				lastErr = fmt.Errorf("%v: %w", err, ErrTransient)
				continue
			}
			return res, nil
		case resp.StatusCode == http.StatusNotFound,
			resp.StatusCode == http.StatusConflict,
			resp.StatusCode >= http.StatusInternalServerError:
			lastErr = fmt.Errorf("peer %s: %w", resp.Status, ErrTransient)
			continue
		default:
			return DeliverResult{}, Permanent(fmt.Errorf("peer %s: %s", resp.Status, bytes.TrimSpace(data)))
		}
	}
	return DeliverResult{}, fmt.Errorf("%w: %d attempts: %v", ErrBudgetExhausted, t.retry.MaxAttempts, lastErr)
}

// backoff computes the delay before the attempt'th retry: exponential,
// capped, with seeded half-jitter.
func (t *HTTPTransport) backoff(attempt int) time.Duration {
	d := float64(t.retry.Backoff)
	for i := 1; i < attempt; i++ {
		d *= t.retry.Multiplier
		if d >= float64(t.retry.MaxBackoff) {
			d = float64(t.retry.MaxBackoff)
			break
		}
	}
	t.rngMu.Lock()
	frac := 0.5 + 0.5*t.rng.Float64()
	t.rngMu.Unlock()
	return time.Duration(d * frac)
}

// Deliver processes one incoming frame against this node's local
// services — the server mounts it behind the invoke endpoint. A
// (from, seq) pair already processed replays its cached result, making
// retransmits after lost responses idempotent.
func (t *HTTPTransport) Deliver(f Frame) (DeliverResult, error) {
	if f.Run != t.cfg.Run {
		return DeliverResult{}, fmt.Errorf("%w: got %q, serving %q", ErrRunMismatch, f.Run, t.cfg.Run)
	}
	t.mu.Lock()
	ls := t.locals[f.Service]
	t.mu.Unlock()
	if ls == nil {
		return DeliverResult{}, fmt.Errorf("transport: deliver %s.%s: %w", f.Service, f.Port, ErrUnknownService)
	}
	key := f.From + "\x00" + strconv.FormatInt(f.Seq, 10)
	t.seenMu.Lock()
	if res, ok := t.seen[key]; ok {
		t.seenMu.Unlock()
		// A replayed (from, seq): the sender retransmitted after a lost
		// response, or the network duplicated the frame. Either way the
		// effect already happened — count the absorption and answer the
		// cached result.
		if c := t.counter("transport_retransmit_total", f.Service, f.Port); c != nil {
			c.Inc()
		}
		t.emit(obs.Event{Kind: obs.EvRetransmit, Service: f.Service, Port: f.Port, Detail: f.From})
		return res, nil
	}
	t.seenMu.Unlock()

	res := t.runLocal(ls, f)
	t.seenMu.Lock()
	t.seen[key] = res
	t.seenMu.Unlock()
	return res, nil
}

// runLocal executes one call on a hosted service, serialized per
// service with bus conversation semantics.
func (t *HTTPTransport) runLocal(ls *localService, f Frame) DeliverResult {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.seq++
	if ls.h == nil {
		return DeliverResult{}
	}
	var payload any // nil, not a nil json.RawMessage, for an empty payload
	if len(f.Payload) > 0 {
		payload = f.Payload
	}
	emits, err := ls.h(&Call{Port: f.Port, Payload: payload, State: ls.state, Seq: ls.seq})
	if err != nil {
		return DeliverResult{Callbacks: []CallbackFrame{{
			Service: ls.name, Tag: f.Port, Err: err.Error(),
			Permanent: errors.Is(err, ErrPermanent),
		}}}
	}
	var cbs []CallbackFrame
	for _, e := range emits {
		raw, merr := json.Marshal(e.Payload)
		if merr != nil {
			cbs = append(cbs, CallbackFrame{Service: ls.name, Tag: e.Tag,
				Err: fmt.Sprintf("marshal emit: %v", merr), Permanent: true})
			continue
		}
		cbs = append(cbs, CallbackFrame{Service: ls.name, Tag: e.Tag, Payload: raw})
	}
	return DeliverResult{Callbacks: cbs}
}

// Close stops new calls, releases every WaitLocal and waits for
// in-flight calls to resolve.
func (t *HTTPTransport) Close() {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.registered)
	}
	t.mu.Unlock()
	t.inflight.Wait()
}
