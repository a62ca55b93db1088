package server

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dscweaver/internal/obs"
	"dscweaver/internal/store"
)

// RunSummary is the queryable metadata of one pipeline run.
type RunSummary struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"` // "weave", "simulate", "enact" or "enact_join"
	Process string    `json:"process,omitempty"`
	Began   time.Time `json:"began"`
	// Status is "running", "ok", "error" or "interrupted" — the last
	// for stored runs that never wrote a finish record (a crash, or an
	// eviction of the writing process): nothing is executing them, so
	// they must not read as live.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Events int    `json:"events"`
}

// run is one tracked run: its summary plus the in-memory event log
// served by GET /v1/runs/{id}/events, and — when the server has a
// persistent store — the store appender its records flow through.
type run struct {
	mu      sync.Mutex
	seq     int64 // numeric id suffix; immutable after New
	summary RunSummary
	events  *obs.MemSink
	app     *store.Appender // nil without a persistent store
}

// setProcess records the run's process name. The name is cloned: a
// parsed name is a substring of the decoded request body, and the run
// registry and the store (through finish) keep it for as long as they
// keep the run, so the bare substring would pin the whole body.
func (r *run) setProcess(name string) {
	name = strings.Clone(name)
	r.mu.Lock()
	r.summary.Process = name
	r.mu.Unlock()
}

// finish records the terminal status; a nil err means success. With a
// store attached this is also the durability boundary: the run's
// records are flushed before finish returns.
func (r *run) finish(err error) {
	r.mu.Lock()
	if err != nil {
		r.summary.Status = "error"
		r.summary.Error = err.Error()
	} else {
		r.summary.Status = "ok"
	}
	app, proc := r.app, r.summary.Process
	r.mu.Unlock()
	if app != nil {
		app.Finish(proc, err)
	}
}

// Summary snapshots the run's metadata, filling the live event count.
func (r *run) Summary() RunSummary {
	r.mu.Lock()
	s := r.summary
	r.mu.Unlock()
	s.Events = r.events.Len()
	return s
}

// runStore is a bounded ring of recent runs: the server keeps the
// last capacity runs' event logs in memory. With a persistent segment
// store attached the ring is purely a cache — evicted runs stay
// answerable from the store, and the id sequence resumes past the
// store's high-water mark across restarts.
type runStore struct {
	mu       sync.Mutex
	seq      int64
	capacity int
	order    []string // run ids, oldest first
	byID     map[string]*run
	persist  *store.Store // nil = memory-only
}

func newRunStore(capacity int, persist *store.Store) *runStore {
	if capacity <= 0 {
		capacity = 128
	}
	rs := &runStore{capacity: capacity, byID: map[string]*run{}, persist: persist}
	if persist != nil {
		rs.seq = persist.MaxSeq()
	}
	return rs
}

// New allocates a run and evicts the oldest beyond capacity.
func (rs *runStore) New(kind string) *run {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	r := &run{
		seq: rs.seq,
		summary: RunSummary{
			ID:     fmt.Sprintf("%s-%06d", kind, rs.seq),
			Kind:   kind,
			Began:  time.Now(),
			Status: "running",
		},
		events: &obs.MemSink{},
	}
	if rs.persist != nil {
		r.app = rs.persist.Begin(r.summary.ID, rs.seq, kind, r.summary.Began)
	}
	rs.byID[r.summary.ID] = r
	rs.order = append(rs.order, r.summary.ID)
	for len(rs.order) > rs.capacity {
		delete(rs.byID, rs.order[0])
		rs.order = rs.order[1:]
	}
	return r
}

// Get looks a run up by id (in-memory ring only; the handlers fall
// back to the persistent store on a miss).
func (rs *runStore) Get(id string) (*run, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, ok := rs.byID[id]
	return r, ok
}

// List returns the ring's summaries, newest first.
func (rs *runStore) List() []RunSummary {
	rs.mu.Lock()
	ids := append([]string(nil), rs.order...)
	rs.mu.Unlock()
	out := make([]RunSummary, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if r, ok := rs.Get(ids[i]); ok {
			out = append(out, r.Summary())
		}
	}
	return out
}

// metaSummary renders a store catalog entry in the ring's summary
// shape, so /v1/runs looks the same whichever layer answers. It is
// only reached on a ring miss, so an unfinished stored run has no
// live writer — after a crash/restart it would otherwise be listed
// as "running" forever — and surfaces as "interrupted" instead.
func metaSummary(m store.RunMeta) RunSummary {
	s := RunSummary{
		ID:      m.ID,
		Kind:    m.Kind,
		Process: m.Proc,
		Began:   m.Began,
		Status:  "interrupted",
		Events:  m.Events,
	}
	if m.Done {
		if m.OK {
			s.Status = "ok"
		} else {
			s.Status = "error"
			s.Error = m.Err
		}
	}
	return s
}
