// Package server implements dscweaverd, the weave-as-a-service HTTP
// front end. Four POST routes run the pipeline through one request
// path (serve):
//
//   - /v1/weave runs the full §5 pipeline (parse → merge → desugar →
//     translate → minimize → Petri-net verdict → optional BPEL);
//   - /v1/simulate executes the minimal set on the scheduling engine
//     against simulated services;
//   - /v1/enact executes it decentralized, one engine per partition,
//     in this process or across peer dscweaverd processes;
//   - /v1/enact/join runs one peer's partition slice of a coordinated
//     enactment.
//
// POST /v1/transport/invoke carries enactment notes between peers.
// GET /healthz and /readyz report liveness and readiness, /metrics
// exposes the shared obs registry, /v1/runs lists recent runs and
// /v1/runs/{id}/events replays any run's event log as JSONL.
//
// Hardening: request bodies are size-capped, requests carry a server
// timeout, pipeline requests run through a bounded worker pool, and
// Shutdown drains in-flight requests before closing the run store.
// Every weave runs under its request context: a dropped client
// connection or the request timeout aborts the minimizer and the
// Petri exploration mid-flight (freeing the pool slot), and Shutdown
// escalates from a graceful drain to aborting the survivors once the
// drain deadline passes (see DESIGN.md, "Drain protocol").
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/services"
	"dscweaver/internal/store"
)

// Config tunes one server instance. The zero value is usable:
// Normalize fills every field with a production-ready default.
type Config struct {
	// Addr is the listen address (default ":8421").
	Addr string
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds one request end to end: pool admission,
	// simulation runs and response writing (default 30s).
	RequestTimeout time.Duration
	// ShutdownGrace bounds Shutdown's drain of in-flight requests
	// (default 10s).
	ShutdownGrace time.Duration
	// WeaveConcurrency bounds concurrently running pipeline requests
	// (weave, simulate, enact, enact_join) — the worker pool (default
	// GOMAXPROCS).
	WeaveConcurrency int
	// VerdictCacheSize caps the server-wide cross-run minimize verdict
	// cache: repeated weaves of an already-decided constraint set replay
	// the recorded removal sequence instead of re-running Definition 6.
	// 0 takes the core default (256 entries); negative disables the
	// cache.
	VerdictCacheSize int
	// QueueWait bounds how long an admitted request may sit waiting for
	// a weave pool slot before the server sheds it with 429 +
	// Retry-After (default 2s; always capped by the request timeout).
	QueueWait time.Duration
	// ReadTimeout / WriteTimeout / IdleTimeout / MaxHeaderBytes harden
	// the HTTP listener against slow-loris clients pinning connections
	// (defaults 30s / RequestTimeout+10s / 2m / 64 KiB).
	ReadTimeout    time.Duration
	WriteTimeout   time.Duration
	IdleTimeout    time.Duration
	MaxHeaderBytes int
	// RunHistory is how many recent runs keep their event logs cached
	// in memory (default 128). With StoreDir set this is a cache size,
	// not a history limit: evicted runs stay queryable from the store.
	RunHistory int
	// StoreDir, when set, backs /v1/runs and /v1/runs/{id}/events with
	// the persistent segmented run store at this directory: run history
	// survives restarts and outgrows the in-memory ring.
	StoreDir string
	// StoreSegmentBytes / StoreMaxSegments / StoreFsync tune the store
	// (zero values take the store.Options defaults: 8 MiB segments,
	// 64 retained, no fsync).
	StoreSegmentBytes int64
	StoreMaxSegments  int
	StoreFsync        bool
	// StoreOpenFile substitutes the store's file layer (chaos fault
	// injection and tests; nil = the real filesystem).
	StoreOpenFile func(path string) (store.File, error)
	// StoreReprobe is the interval at which a degraded store is
	// re-probed in the background: when the disk heals, the store
	// reopens in place and finished memory-only runs backfill from the
	// ring, so a write fault no longer requires a restart to recover
	// from (default 15s; negative disables).
	StoreReprobe time.Duration
	// FabricToken, when set, guards the inter-node enactment surface
	// (POST /v1/transport/invoke and /v1/enact/join) with a shared
	// bearer secret: requests without it answer 401, and this server
	// sends it on every outgoing frame and join. Every member of a
	// multi-process enactment must agree on the token.
	FabricToken string
	// FabricWrap, when set, wraps the HTTP round tripper used for
	// outgoing enactment frames, keyed by this process's node name —
	// the chaos seam for network-fault injection on the live fabric
	// (see chaos.Net.RoundTripper). Nil uses the default transport.
	FabricWrap func(node string, inner http.RoundTripper) http.RoundTripper
	// Buckets overrides histogram bucket bounds per metric family
	// name, applied to the registry before any instrument registers.
	Buckets map[string][]float64
}

// Normalize fills defaults in place and returns the config.
func (c Config) Normalize() Config {
	if c.Addr == "" {
		c.Addr = ":8421"
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.WeaveConcurrency <= 0 {
		c.WeaveConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.RunHistory <= 0 {
		c.RunHistory = 128
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		// Responses must outlive the slowest admitted request: the
		// request timeout plus headroom for serializing large traces.
		c.WriteTimeout = c.RequestTimeout + 10*time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 64 << 10
	}
	if c.StoreReprobe == 0 {
		c.StoreReprobe = 15 * time.Second
	}
	return c
}

// fileConfig is the JSON shape of a config file: durations are strings
// ("30s", "1h30m") so files stay human-editable.
type fileConfig struct {
	Addr             string               `json:"addr"`
	MaxBodyBytes     int64                `json:"max_body_bytes"`
	RequestTimeout   string               `json:"request_timeout"`
	ShutdownGrace    string               `json:"shutdown_grace"`
	WeaveConcurrency int                  `json:"weave_concurrency"`
	VerdictCacheSize int                  `json:"verdict_cache_size"`
	QueueWait        string               `json:"queue_wait"`
	ReadTimeout      string               `json:"read_timeout"`
	WriteTimeout     string               `json:"write_timeout"`
	IdleTimeout      string               `json:"idle_timeout"`
	MaxHeaderBytes   int                  `json:"max_header_bytes"`
	RunHistory       int                  `json:"run_history"`
	StoreDir         string               `json:"store_dir"`
	StoreSegBytes    int64                `json:"store_segment_bytes"`
	StoreMaxSegments int                  `json:"store_max_segments"`
	StoreFsync       bool                 `json:"store_fsync"`
	StoreReprobe     string               `json:"store_reprobe"`
	FabricToken      string               `json:"fabric_token"`
	Buckets          map[string][]float64 `json:"buckets"`
}

// LoadConfig reads a JSON config file. Unknown fields are errors.
func LoadConfig(path string) (Config, error) {
	var c Config
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return c, fmt.Errorf("config %s: %w", path, err)
	}
	c = Config{
		Addr:              fc.Addr,
		MaxBodyBytes:      fc.MaxBodyBytes,
		WeaveConcurrency:  fc.WeaveConcurrency,
		VerdictCacheSize:  fc.VerdictCacheSize,
		MaxHeaderBytes:    fc.MaxHeaderBytes,
		RunHistory:        fc.RunHistory,
		StoreDir:          fc.StoreDir,
		StoreSegmentBytes: fc.StoreSegBytes,
		StoreMaxSegments:  fc.StoreMaxSegments,
		StoreFsync:        fc.StoreFsync,
		FabricToken:       fc.FabricToken,
		Buckets:           fc.Buckets,
	}
	for _, d := range []struct {
		raw string
		dst *time.Duration
	}{
		{fc.RequestTimeout, &c.RequestTimeout},
		{fc.ShutdownGrace, &c.ShutdownGrace},
		{fc.QueueWait, &c.QueueWait},
		{fc.ReadTimeout, &c.ReadTimeout},
		{fc.WriteTimeout, &c.WriteTimeout},
		{fc.IdleTimeout, &c.IdleTimeout},
		{fc.StoreReprobe, &c.StoreReprobe},
	} {
		if d.raw == "" {
			continue
		}
		v, err := time.ParseDuration(d.raw)
		if err != nil {
			return c, fmt.Errorf("config %s: %w", path, err)
		}
		*d.dst = v
	}
	return c, nil
}

// Server is one dscweaverd instance.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	runs   *runStore
	store  *store.Store       // nil unless StoreDir configured
	vcache *core.VerdictCache // shared cross-run minimize verdict cache (nil when disabled)
	// naiveMinimize runs every weave on the paper-naive minimizer with
	// no verdict cache. Only tests set it (export_test.go), to get a
	// weave slow enough to cancel into.
	naiveMinimize bool

	weaveSem chan struct{}  // bounded weave worker pool
	wg       sync.WaitGroup // in-flight requests on the four pipeline routes
	// drainMu orders admit's closed-check + wg.Add against Shutdown's
	// closed-flip: a wg.Add may otherwise start concurrently with
	// wg.Wait after the counter hit zero, which the WaitGroup contract
	// forbids. admit holds the read side only across the check + Add.
	drainMu sync.RWMutex
	closed  atomic.Bool  // draining: reject new work
	queued  atomic.Int64 // requests waiting on a pool slot

	// enactTransports resolves incoming transport frames to the live
	// decentralized enactment they belong to, keyed by run id.
	enactMu         sync.Mutex
	enactTransports map[string]*services.HTTPTransport
	// enactDone tombstones recently finished enactments: late frames
	// for them are acknowledged (a completed partition provably needs
	// no more notes) instead of stalling the sender in 404 retries.
	// The maintenance ticker sweeps entries older than enactTTL.
	enactDone map[string]time.Time
	enactTTL  time.Duration
	// enactParked holds frames that named a run before it registered
	// here, one rendezvous per run id: registration, or a join that
	// fails before registering, wakes them (see handleTransportInvoke).
	enactParked map[string]*parkedRun

	// abortCtx is canceled when Shutdown's drain deadline passes: every
	// in-flight weave context is derived from the request context AND
	// this signal, so a stubborn drain aborts the heavy kernels instead
	// of waiting them out.
	abortCtx context.Context
	abortAll context.CancelFunc

	mux     *http.ServeMux
	httpSrv *http.Server

	reqTotal   func(route string, code int) // instrumentation shortcuts
	reqSeconds func(route string, d time.Duration)
	queueDepth *obs.Gauge   // server_queue_depth
	shedTotal  *obs.Counter // server_shed_total
	// eventsTruncated counts /v1/runs/{id}/events replays that hit
	// store corruption and served only the valid prefix.
	eventsTruncated *obs.Counter // server_run_events_truncated_total
	// backfilled counts ring runs re-appended to the store after a
	// degrade heal (memory-only runs made durable again).
	backfilled *obs.Counter // server_store_backfill_runs_total

	// maintStop/maintDone bound the background maintenance loop:
	// enactment tombstone sweeps plus, with a store attached, degraded
	// store re-probing (nil when StoreReprobe disables the ticker).
	maintStop chan struct{}
	maintDone chan struct{}
}

// New builds a server from cfg. Histogram bucket overrides are applied
// before any metric family registers, so they bind every family the
// pipeline later creates (weave, engine, bus and server metrics alike).
func New(cfg Config) (*Server, error) {
	cfg = cfg.Normalize()
	reg := obs.NewRegistry()
	for name, bounds := range cfg.Buckets {
		if err := reg.OverrideBuckets(name, bounds); err != nil {
			return nil, fmt.Errorf("bucket override %s: %w", name, err)
		}
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(cfg.StoreDir, store.Options{
			SegmentBytes: cfg.StoreSegmentBytes,
			MaxSegments:  cfg.StoreMaxSegments,
			Fsync:        cfg.StoreFsync,
			OpenFile:     cfg.StoreOpenFile,
			Metrics:      reg,
		})
		if err != nil {
			return nil, fmt.Errorf("run store: %w", err)
		}
	}
	s := &Server{
		cfg:             cfg,
		reg:             reg,
		runs:            newRunStore(cfg.RunHistory, st),
		store:           st,
		weaveSem:        make(chan struct{}, cfg.WeaveConcurrency),
		enactTransports: map[string]*services.HTTPTransport{},
		enactDone:       map[string]time.Time{},
		enactTTL:        enactDoneTTL,
		enactParked:     map[string]*parkedRun{},
	}
	if cfg.VerdictCacheSize >= 0 {
		s.vcache = core.NewVerdictCache(cfg.VerdictCacheSize)
	}
	s.abortCtx, s.abortAll = context.WithCancel(context.Background())
	requests := func(route string, code int) *obs.Counter {
		return reg.Counter("server_requests_total", "route", route, "code", strconv.Itoa(code))
	}
	seconds := func(route string) *obs.Histogram {
		return reg.Histogram("server_request_seconds",
			[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}, "route", route)
	}
	s.reqTotal = func(route string, code int) { requests(route, code).Inc() }
	s.reqSeconds = func(route string, d time.Duration) { seconds(route).Observe(d.Seconds()) }
	s.queueDepth = reg.Gauge("server_queue_depth")
	s.shedTotal = reg.Counter("server_shed_total")
	s.eventsTruncated = reg.Counter("server_run_events_truncated_total")
	s.backfilled = reg.Counter("server_store_backfill_runs_total")
	if cfg.StoreReprobe > 0 {
		s.maintStop = make(chan struct{})
		s.maintDone = make(chan struct{})
		go s.maintenanceLoop(cfg.StoreReprobe)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/runs", s.instrument("runs", s.handleRuns))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.instrument("run_events", s.handleRunEvents))
	mux.HandleFunc("POST /v1/weave", s.instrument("weave", serve(s, "weave", s.weaveRoute)))
	mux.HandleFunc("POST /v1/simulate", s.instrument("simulate", serve(s, "simulate", s.runSimulation)))
	mux.HandleFunc("POST /v1/enact", s.instrument("enact", serve(s, "enact", s.runEnactment)))
	mux.HandleFunc("POST /v1/enact/join",
		s.instrument("enact_join", s.fabricOnly(serve(s, "enact_join", s.runEnactJoin))))
	mux.HandleFunc("POST "+services.DefaultInvokePath,
		s.instrument("transport_invoke", s.fabricOnly(s.handleTransportInvoke)))
	s.mux = mux
	return s, nil
}

// Registry exposes the server's metric registry (tests scrape it
// directly; /metrics serves it over HTTP).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the routed handler — usable with httptest without
// binding a socket.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with body-size limiting, the per-request
// timeout and the server request metrics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		}
		h(sw, r)
		s.reqTotal(route, sw.code)
		s.reqSeconds(route, time.Since(began))
	}
}

// writeJSON renders v with a status code as compact JSON. HTML
// escaping is off: a weave response carries BPEL, and escaping would
// turn every < and > of it into a six-byte \u003c or \u003e.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError renders {"error": ...}. Oversized bodies surface as 413.
func writeError(w http.ResponseWriter, code int, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the instance can take load right now:
// 503 while draining, 503 when the weave pool is full with requests
// already queued behind it, 200 otherwise. Liveness (/healthz) stays
// green through saturation; readiness is what load balancers should
// rotate on.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	inUse := len(s.weaveSem)
	queued := s.queued.Load()
	body := map[string]any{
		"pool_in_use": inUse,
		"pool_size":   cap(s.weaveSem),
		"queued":      queued,
	}
	if inUse >= cap(s.weaveSem) && queued > 0 {
		body["status"] = "saturated"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

// handleRuns lists run summaries, newest first. Optional query
// parameters: limit=N caps the result, from=/to= (RFC 3339) bound the
// run begin time — the store's per-segment index answers time-range
// queries without scanning segments. With a persistent store the list
// reaches past the in-memory ring; live ring entries override their
// stored counterparts (their event counts are fresher).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	var from, to time.Time
	for _, p := range []struct {
		name string
		dst  *time.Time
	}{{"from", &from}, {"to", &to}} {
		if v := q.Get(p.name); v != "" {
			ts, err := time.Parse(time.RFC3339, v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: %w", p.name, v, err))
				return
			}
			*p.dst = ts
		}
	}

	inRange := func(began time.Time) bool {
		if !from.IsZero() && began.Before(from) {
			return false
		}
		if !to.IsZero() && began.After(to) {
			return false
		}
		return true
	}
	mem := s.runs.List()
	if s.store == nil {
		out := make([]RunSummary, 0, len(mem))
		for _, m := range mem {
			if !inRange(m.Began) {
				continue
			}
			out = append(out, m)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	memByID := make(map[string]RunSummary, len(mem))
	for _, m := range mem {
		memByID[m.ID] = m
	}
	stored := s.store.ListRange(from, to, limit)
	out := make([]RunSummary, 0, len(stored)+len(mem))
	listed := make(map[string]bool, len(stored))
	for _, sm := range stored {
		listed[sm.ID] = true
		if m, ok := memByID[sm.ID]; ok {
			out = append(out, m)
		} else {
			out = append(out, metaSummary(sm))
		}
	}
	// Ring entries with no store catalog entry at all (degraded
	// memory-only mode) still belong in the list. Membership must be
	// checked against the store itself, not the limit-capped listing:
	// a ring run ranked below the limit is absent from `stored` yet
	// persisted, and treating it as store-unseen would let old runs
	// displace the true newest ones.
	for _, m := range mem {
		if listed[m.ID] || !inRange(m.Began) {
			continue
		}
		if _, ok := s.store.Get(m.ID); !ok {
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Began.After(out[j].Began) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	if out == nil {
		out = []RunSummary{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRunEvents replays one run's event log as JSONL: from the
// in-memory ring when the run is recent, otherwise from the segment
// store — which serves the exact bytes that were appended, so a
// replay is byte-identical across eviction and restarts. A store read
// that hits corruption serves the valid prefix (never a half-written
// line) with an `X-Dscweaver-Truncated: true` header so clients can
// tell a partial replay from a complete one.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rn, ok := s.runs.Get(id); ok {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range rn.events.Events() {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		return
	}
	if s.store != nil {
		if _, ok := s.store.Get(id); ok {
			evs, err := s.store.Events(id)
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err != nil {
				// The flushed prefix still serves, but a partial replay
				// must never masquerade as the complete log: flag it on
				// the response and count it.
				w.Header().Set("X-Dscweaver-Truncated", "true")
				s.eventsTruncated.Inc()
			}
			for _, raw := range evs {
				if _, werr := w.Write(append(raw, '\n')); werr != nil {
					return
				}
			}
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown run %q", id))
}

// errSaturated marks an admission shed by the queue-wait bound; the
// handlers translate it to 429 + Retry-After instead of a generic 503.
var errSaturated = errors.New("weave pool saturated")

// admit reserves a weave pool slot and registers the request with the
// drain group. It fails when the server is draining, when no slot
// frees up within QueueWait (load shed: errSaturated), or when the
// request deadline expires first.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	s.drainMu.RLock()
	if s.closed.Load() {
		s.drainMu.RUnlock()
		return nil, errors.New("server draining")
	}
	s.wg.Add(1)
	s.drainMu.RUnlock()
	s.queueDepth.Set(s.queued.Add(1))
	defer func() { s.queueDepth.Set(s.queued.Add(-1)) }()
	wait := time.NewTimer(s.cfg.QueueWait)
	defer wait.Stop()
	select {
	case s.weaveSem <- struct{}{}:
		return func() {
			<-s.weaveSem
			s.wg.Done()
		}, nil
	case <-wait.C:
		s.wg.Done()
		s.shedTotal.Inc()
		return nil, fmt.Errorf("%w: no pool slot within %v", errSaturated, s.cfg.QueueWait)
	case <-ctx.Done():
		s.wg.Done()
		return nil, fmt.Errorf("weave pool congested: %w", ctx.Err())
	}
}

// admitError renders an admission failure: a queue-wait shed becomes
// 429 with a Retry-After hint (one QueueWait rounded up — by then at
// least one pool slot has turned over or the backlog is structural);
// draining and deadline failures stay 503.
func (s *Server) admitError(w http.ResponseWriter, err error) {
	if errors.Is(err, errSaturated) {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.QueueWait/time.Second)+1))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}

// weaveContext derives the pipeline context for one admitted request:
// the request context (client disconnect, request timeout) joined
// with the server-wide drain abort signal.
func (s *Server) weaveContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.abortCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// weaveStatus maps a pipeline error to an HTTP status: a canceled or
// timed-out weave is a service condition (503), everything else is a
// problem with the submitted process (422).
func weaveStatus(err error) int {
	if core.ErrCanceled(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// sinkFor builds a run's event sink: its in-memory log plus, with a
// store attached, the store appender — the daemon's one on-disk event
// log. The appender records the same marshaled bytes the in-memory
// path serves, and one lock orders both, so store replays are
// byte-identical.
func (s *Server) sinkFor(rn *run) obs.Sink {
	if rn.app == nil {
		return rn.events
	}
	return &orderedSink{next: obs.MultiSink(rn.events, rn.app)}
}

// orderedSink serializes a fan-out. A run's engine and bus emit from
// many goroutines; without the lock two concurrent events could land
// in the ring in one order and in the store in the other.
type orderedSink struct {
	mu   sync.Mutex
	next obs.Sink
}

func (o *orderedSink) Emit(e obs.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.next.Emit(e)
}

// strictRequest is a pipeline request body: a JSON object whose
// validate method rejects what the pipeline cannot run.
type strictRequest[Q any] interface {
	*Q
	validate() error
}

// decodeRequest parses a request body strictly: unknown fields and
// trailing data are errors, so client typos fail loudly instead of
// silently running with defaults.
func decodeRequest[Q any, PQ strictRequest[Q]](body io.Reader) (*Q, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	q := new(Q)
	if err := dec.Decode(q); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after request object")
	}
	if err := PQ(q).validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// serve is the one request path of the four pipeline routes: strict
// decode (400), pool admission (429/503), a tracked run of the given
// kind under the drain-aware pipeline context, then exec. A failed exec
// answers weaveStatus(err), and a failed join retires its run id
// (abandonEnactJoin); a run that fails in-band (a simulate or
// enact response with Error set) still answers 200. The run finishes
// before the response is encoded: with a store attached finish is the
// durability boundary, so a client holding the run id can read its
// events at once.
func serve[Q any, PQ strictRequest[Q], R any](s *Server, kind string,
	exec func(ctx context.Context, q *Q, rn *run, sink obs.Sink, r *http.Request) (*R, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := decodeRequest[Q, PQ](r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		release, err := s.admit(r.Context())
		if err != nil {
			s.abandonEnactJoin(q)
			s.admitError(w, err)
			return
		}
		defer release()

		ctx, cancel := s.weaveContext(r.Context())
		defer cancel()
		rn := s.runs.New(kind)
		resp, err := exec(ctx, q, rn, s.sinkFor(rn), r)
		if err != nil {
			s.abandonEnactJoin(q)
			rn.finish(err)
			writeError(w, weaveStatus(err), err)
			return
		}
		rn.finish(inBandError(resp))
		writeJSON(w, http.StatusOK, resp)
	}
}

// inBandError is the run failure a 200 response reports in its Error
// field; weave and join responses have none.
func inBandError(resp any) error {
	var msg string
	switch r := resp.(type) {
	case *SimulateResponse:
		msg = r.Error
	case *EnactResponse:
		msg = r.Error
	}
	if msg == "" {
		return nil
	}
	return errors.New(msg)
}

// fabricOnly guards the inter-node enactment surface with the shared
// bearer secret, ahead of any decoding. With no token configured
// everything passes (the reproduction's localhost scope); with one,
// the comparison is constant-time over SHA-256 digests so neither
// length nor content leaks through timing. A rejection answers 401,
// which the sender's retry loop classifies permanent — a bad secret
// fails the run at the first frame instead of retry-storming the peer.
func (s *Server) fabricOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.FabricToken != "" {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			want := sha256.Sum256([]byte(s.cfg.FabricToken))
			have := sha256.Sum256([]byte(got))
			if !ok || subtle.ConstantTimeCompare(want[:], have[:]) != 1 {
				writeError(w, http.StatusUnauthorized, errors.New("fabric: missing or wrong bearer token"))
				return
			}
		}
		h(w, r)
	}
}

// ListenAndServe runs the server until ctx is canceled, then drains
// via Shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	s.httpSrv = &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
		MaxHeaderBytes:    s.cfg.MaxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- s.httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		return s.Shutdown()
	}
}

// abortWait bounds the post-abort drain phase of Shutdown: once the
// in-flight weave contexts are canceled, the kernels abort at their
// next context check (microseconds of exploration work), so a short
// second wait suffices — a request still live past it is stuck
// somewhere no context reaches.
const abortWait = time.Second

// Shutdown drains the server: new requests are rejected, the listener
// (when serving) stops accepting, and in-flight weaves and simulations
// run to completion bounded by ShutdownGrace. When the grace expires
// with requests still live, their pipeline contexts are canceled —
// aborting the minimizer and Petri kernels mid-flight — and the drain
// waits one short beat more. The run store closes last, so every
// admitted run — aborted ones included — has written its finish
// record and the store's active segment is sealed cleanly.
func (s *Server) Shutdown() error {
	// The write lock waits out any admit between its closed-check and
	// wg.Add; once released, every later admit rejects before Adding,
	// so wg.Wait below cannot race a zero-to-positive Add.
	s.drainMu.Lock()
	s.closed.Store(true)
	s.drainMu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.abortAll()
		select {
		case <-done:
		case <-time.After(abortWait):
			err = errors.Join(err, fmt.Errorf("drain: %w", ctx.Err()))
		}
	}
	if s.maintStop != nil {
		close(s.maintStop)
		<-s.maintDone
		s.maintStop = nil
	}
	if s.store != nil {
		err = errors.Join(err, s.store.Close())
	}
	return err
}
