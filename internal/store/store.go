// Package store is the persistent run/event store behind dscweaverd's
// /v1/runs surface: a segmented append-only log of run lifecycle
// records (begin, event, finish) written as rotating JSONL segments,
// each sealed segment carrying a sparse sidecar index for run-id and
// time-range lookup without rescanning the log.
//
// Durability model: every record is line-framed JSON appended to the
// active segment; a run's records are flushed to the OS when the run
// finishes (and fsynced when Options.Fsync is set). Opening a store
// replays the segment chain: sealed segments load (or rebuild) their
// indexes, and the segment that was active at crash time is recovered
// to its longest valid line prefix — a torn tail (a half-written line,
// or anything after the first malformed line) is quarantined to a
// sidecar file and truncated away, never fatal and never served.
//
// Failure model: the store must not take the process down. Any write
// error (short write, ENOSPC, failed fsync, failed rotation) latches
// the store into degraded mode: appends become no-ops, the
// store_degraded gauge rises, and reads keep serving everything that
// was persisted before the fault. The owning server falls back to its
// in-memory ring — memory-only mode — and stays live.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dscweaver/internal/obs"
)

// record is one line of a segment: a run beginning, one of its
// lifecycle events, or its terminal status. Ev is kept as raw JSON so
// replaying a run's event log returns the exact bytes that were
// appended, not a decode/re-encode round trip.
type record struct {
	T    string          `json:"t"` // "begin", "event" or "finish"
	Run  string          `json:"run"`
	Seq  int64           `json:"seq,omitempty"`  // begin: numeric id suffix
	Kind string          `json:"kind,omitempty"` // begin: "weave", "simulate", "enact" or "enact_join"
	Wall time.Time       `json:"wall,omitempty"` // begin: start time
	Proc string          `json:"proc,omitempty"` // finish: process name
	OK   bool            `json:"ok,omitempty"`   // finish: terminal status
	Err  string          `json:"err,omitempty"`  // finish: terminal error
	Ev   json.RawMessage `json:"ev,omitempty"`   // event payload
}

const (
	recBegin  = "begin"
	recEvent  = "event"
	recFinish = "finish"
)

// valid reports whether a decoded record is structurally usable; the
// recovery scan treats an invalid record like a malformed line.
func (r *record) valid() bool {
	if r.Run == "" {
		return false
	}
	switch r.T {
	case recBegin, recEvent, recFinish:
		return true
	}
	return false
}

// File is the slice of *os.File the store writes through. Tests and
// the chaos injector substitute faulting implementations (short
// writes, ENOSPC-style errors, fsync faults) via Options.OpenFile.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSOpenFile is the default Options.OpenFile: create-or-append on the
// real filesystem. Fault-injecting wrappers (tests, the chaos
// injector) delegate to it for the actual bytes.
func OSOpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Options tunes one store.
type Options struct {
	// SegmentBytes rotates the active segment before an append would
	// push it past this size (default 8 MiB).
	SegmentBytes int64
	// MaxSegments is the retention bound: compaction deletes the oldest
	// segments beyond it, together with every run whose records begin
	// there (default 64).
	MaxSegments int
	// Fsync syncs the active segment on every run finish and on seal.
	// Off by default: the flush-to-OS boundary already survives process
	// crashes, fsync additionally survives power loss.
	Fsync bool
	// OpenFile opens a file for appending (nil = os.OpenFile). The
	// chaos injector hooks the sink here.
	OpenFile func(path string) (File, error)
	// Metrics registers the store gauges/counters when set.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 64
	}
	if o.OpenFile == nil {
		o.OpenFile = OSOpenFile
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// RunMeta is the catalog entry for one run, aggregated across the
// segments its records land in.
type RunMeta struct {
	ID     string    `json:"id"`
	Seq    int64     `json:"seq"`
	Kind   string    `json:"kind"`
	Began  time.Time `json:"began"`
	Proc   string    `json:"proc,omitempty"`
	Done   bool      `json:"done"`
	OK     bool      `json:"ok"`
	Err    string    `json:"err,omitempty"`
	Events int       `json:"events"`
}

// loc names one contiguous byte range of one segment holding records
// of a run.
type loc struct {
	seg        int
	first, end int64
}

type runState struct {
	meta RunMeta
	locs []loc
}

// extend grows the run's newest location (or opens one) to cover a
// record appended at [off, off+n) of segment seg.
func (rs *runState) extend(seg int, off, n int64) {
	if len(rs.locs) > 0 && rs.locs[len(rs.locs)-1].seg == seg {
		rs.locs[len(rs.locs)-1].end = off + n
		return
	}
	rs.locs = append(rs.locs, loc{seg: seg, first: off, end: off + n})
}

// Store is one opened store directory. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	runs     map[string]*runState
	order    []string // run ids, oldest first (compaction leaves gaps; List filters)
	maxSeq   int64
	sealed   []*segmentMeta // oldest first
	active   *activeSegment
	degraded bool
	firstErr error

	mDegraded    *obs.Gauge
	mSegments    *obs.Gauge
	mRuns        *obs.Gauge
	mWriteErrs   *obs.Counter
	mQuarantined *obs.Counter
	mCompacted   *obs.Counter
	mRecovered   *obs.Counter
	mReprobes    *obs.Counter
}

// Open opens (creating if needed) the store at dir and replays its
// segment chain: sealed segments load or rebuild their sidecar
// indexes, the newest segment is recovered to its valid prefix with
// the torn tail quarantined, and a fresh active segment begins.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		opts:         opts,
		runs:         map[string]*runState{},
		mDegraded:    opts.Metrics.Gauge("store_degraded"),
		mSegments:    opts.Metrics.Gauge("store_segments"),
		mRuns:        opts.Metrics.Gauge("store_runs"),
		mWriteErrs:   opts.Metrics.Counter("store_write_errors_total"),
		mQuarantined: opts.Metrics.Counter("store_quarantined_bytes_total"),
		mCompacted:   opts.Metrics.Counter("store_compacted_segments_total"),
		mRecovered:   opts.Metrics.Counter("store_recovered_runs_total"),
		mReprobes:    opts.Metrics.Counter("store_reprobe_total"),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	next := 1
	if n := len(s.sealed); n > 0 {
		next = s.sealed[n-1].n + 1
	}
	if err := s.openActive(next); err != nil {
		// A store that cannot open its first active segment starts
		// degraded: reads still serve the replayed history.
		s.degrade(err)
	}
	s.compactLocked()
	s.updateGauges()
	return s, nil
}

// replay loads the segment chain into the catalog. Callers own s.mu
// exclusively (Open only).
func (s *Store) replay() error {
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for i, n := range segs {
		path := s.segPath(n)
		var idx *segmentIndex
		if i == len(segs)-1 {
			// The segment that was active at shutdown or crash time:
			// recover the valid prefix, quarantine the tail.
			idx, err = s.recoverSegment(path)
		} else {
			idx, err = s.loadOrRebuildIndex(path)
		}
		if err != nil {
			return err
		}
		s.sealed = append(s.sealed, &segmentMeta{n: n, path: path, idx: idx})
		s.absorbIndex(n, idx)
	}
	return nil
}

// absorbIndex folds one segment's index into the run catalog.
func (s *Store) absorbIndex(seg int, idx *segmentIndex) {
	for _, re := range idx.Runs {
		rs, ok := s.runs[re.ID]
		if !ok {
			if re.Seq == 0 && re.Kind == "" && re.Began.IsZero() {
				// An orphaned slice: this segment holds only event or
				// finish records of a run whose begin segment was
				// compacted away (segments absorb oldest-first, so a
				// surviving begin would already have an entry). The run
				// can never replay completely — skip it rather than
				// resurrect a ghost with zero Began and empty Kind.
				continue
			}
			rs = &runState{meta: RunMeta{
				ID: re.ID, Seq: re.Seq, Kind: re.Kind, Began: re.Began,
			}}
			s.runs[re.ID] = rs
			s.order = append(s.order, re.ID)
			s.mRecovered.Inc()
		}
		rs.meta.Events += re.Events
		if re.Done {
			rs.meta.Done, rs.meta.OK, rs.meta.Err = true, re.OK, re.Err
		}
		if re.Proc != "" {
			rs.meta.Proc = re.Proc
		}
		rs.locs = append(rs.locs, loc{seg: seg, first: re.First, end: re.End})
		if re.Seq > s.maxSeq {
			s.maxSeq = re.Seq
		}
	}
}

// MaxSeq reports the highest numeric run sequence the store has seen;
// a restarted server resumes its id counter past it so stored and new
// run ids never collide.
func (s *Store) MaxSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// Degraded reports whether a write fault has latched the store into
// memory-only fallback.
func (s *Store) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Reprobe attempts to heal a degraded store in place: the segment
// chain is re-replayed from disk — the segment abandoned at degrade
// time recovers to its longest valid line prefix exactly like a crash
// — and a fresh active segment opens past it. On success the degrade
// latch clears and appends flow again, so a transient disk fault no
// longer requires a restart. On failure the store stays degraded; when
// the replay itself succeeded the freshly rebuilt catalog is kept (it
// is disk truth), otherwise the old catalog keeps serving reads. A
// healthy store returns true without touching the disk.
//
// Note the rebuild drops catalog entries whose records never reached
// the disk (they were buffered when the fault hit): the owning server
// re-appends those runs from its in-memory ring after a heal.
func (s *Store) Reprobe() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.degraded {
		return true
	}
	s.mReprobes.Inc()
	runs, order, sealed, maxSeq := s.runs, s.order, s.sealed, s.maxSeq
	s.runs, s.order, s.sealed, s.maxSeq = map[string]*runState{}, nil, nil, 0
	s.active = nil
	// Clear the latch so a fault during the probe re-latches through
	// degrade() instead of being swallowed by its already-degraded
	// short-circuit.
	s.degraded, s.firstErr = false, nil
	if err := s.replay(); err != nil {
		s.runs, s.order, s.sealed, s.maxSeq = runs, order, sealed, maxSeq
		s.degrade(err)
		return false
	}
	next := 1
	if n := len(s.sealed); n > 0 {
		next = s.sealed[n-1].n + 1
	}
	if err := s.openActive(next); err != nil {
		s.degrade(err)
		s.updateGauges()
		return false
	}
	if s.degraded {
		// replay came back read-only degraded (an index rewrite failed):
		// the rebuilt catalog serves, but the disk is not healed.
		s.updateGauges()
		return false
	}
	s.mDegraded.Set(0)
	s.compactLocked()
	s.updateGauges()
	return true
}

// degrade latches the store into memory-only mode; callers hold s.mu.
func (s *Store) degrade(err error) {
	s.mWriteErrs.Inc()
	if s.degraded {
		return
	}
	s.degraded = true
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mDegraded.Set(1)
	if s.active != nil && s.active.f != nil {
		s.active.f.Close()
		s.active.f = nil
	}
}

func (s *Store) updateGauges() {
	n := len(s.sealed)
	if s.active != nil {
		n++
	}
	s.mSegments.Set(int64(n))
	s.mRuns.Set(int64(len(s.runs)))
}

// Begin registers a run and appends its begin record. The returned
// appender is never nil; in degraded mode it is a no-op shell.
func (s *Store) Begin(id string, seq int64, kind string, began time.Time) *Appender {
	a := &Appender{s: s, id: id}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded {
		return a
	}
	if seq > s.maxSeq {
		s.maxSeq = seq
	}
	rec := record{T: recBegin, Run: id, Seq: seq, Kind: kind, Wall: began}
	if !s.appendLocked(rec, false) {
		return a
	}
	// appendLocked created the catalog entry; fill the begin metadata.
	rs := s.runs[id]
	rs.meta.Seq, rs.meta.Kind, rs.meta.Began = seq, kind, began
	s.mRuns.Set(int64(len(s.runs)))
	return a
}

// Appender writes one run's events and terminal status. Emit
// implements obs.Sink so it slots into the server's MultiSink chain.
type Appender struct {
	s  *Store
	id string
}

// Emit appends one event record. Failures degrade the store silently
// (observability and history must not fail the request path).
func (a *Appender) Emit(e obs.Event) {
	raw, err := json.Marshal(e)
	if err != nil {
		return
	}
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	if a.s.degraded {
		return
	}
	if a.s.appendLocked(record{T: recEvent, Run: a.id, Ev: raw}, false) {
		a.s.runs[a.id].meta.Events++
	}
}

// Finish appends the terminal record and flushes the run to the OS
// (the durability boundary the crash tests pin: a finished run
// survives a process crash).
func (a *Appender) Finish(proc string, runErr error) {
	rec := record{T: recFinish, Run: a.id, Proc: proc, OK: runErr == nil}
	if runErr != nil {
		rec.Err = runErr.Error()
	}
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	if a.s.degraded {
		return
	}
	if !a.s.appendLocked(rec, true) {
		return
	}
	rs := a.s.runs[a.id]
	rs.meta.Done, rs.meta.OK, rs.meta.Err, rs.meta.Proc = true, rec.OK, rec.Err, proc
}

// appendLocked marshals and appends one record to the active segment,
// rotating first when the append would overflow it, flushing (and
// fsyncing, when configured) on terminal records. It creates the
// run's catalog entry on first sight and extends its newest location.
// Returns false when the append was lost to a write fault (the store
// is then degraded). Callers hold s.mu.
func (s *Store) appendLocked(rec record, flush bool) bool {
	if s.active == nil {
		s.degrade(fmt.Errorf("store: no active segment"))
		return false
	}
	// Only a begin record may open a catalog entry. An event/finish
	// for a run compaction already dropped (its begin segment is gone,
	// so it can never replay completely again) is refused outright:
	// appending it would plant a ghost run — zero Began, empty Kind —
	// in the catalog and on disk.
	if _, ok := s.runs[rec.Run]; !ok && rec.T != recBegin {
		return false
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	line = append(line, '\n')
	if s.active.size > 0 && s.active.size+int64(len(line)) > s.opts.SegmentBytes {
		if err := s.sealActiveLocked(); err != nil {
			s.degrade(err)
			return false
		}
		if err := s.openActive(s.sealed[len(s.sealed)-1].n + 1); err != nil {
			s.degrade(err)
			return false
		}
		s.compactLocked()
		s.updateGauges()
	}
	off := s.active.size
	if err := s.active.append(line); err != nil {
		s.degrade(fmt.Errorf("store: segment %s: offset %d: %w", s.active.path, off, err))
		return false
	}
	if flush {
		if err := s.active.flush(s.opts.Fsync); err != nil {
			s.degrade(fmt.Errorf("store: segment %s: %w", s.active.path, err))
			return false
		}
	}
	rs, ok := s.runs[rec.Run]
	if !ok {
		if rec.T != recBegin {
			// The rotation above compacted this run's begin segment
			// away mid-append. The bytes just written are orphaned;
			// replay skips them for the same reason (absorbIndex), so
			// no ghost entry may be created here either.
			return false
		}
		rs = &runState{meta: RunMeta{ID: rec.Run, Began: rec.Wall}}
		s.runs[rec.Run] = rs
		s.order = append(s.order, rec.Run)
	}
	rs.extend(s.active.n, off, int64(len(line)))
	s.active.observe(rec, off, int64(len(line)))
	return true
}

// Get returns one run's catalog entry.
func (s *Store) Get(id string) (RunMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.runs[id]
	if !ok {
		return RunMeta{}, false
	}
	return rs.meta, true
}

// ListRange returns up to limit runs that began within [from, to],
// newest first; a zero bound is open. The scan prunes whole segments
// by their index's wall-clock range before touching run entries.
func (s *Store) ListRange(from, to time.Time, limit int) []RunMeta {
	return s.list(limit, func(m RunMeta) bool {
		if !from.IsZero() && m.Began.Before(from) {
			return false
		}
		if !to.IsZero() && m.Began.After(to) {
			return false
		}
		return true
	})
}

func (s *Store) list(limit int, keep func(RunMeta) bool) []RunMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []RunMeta
	for i := len(s.order) - 1; i >= 0; i-- {
		rs, ok := s.runs[s.order[i]]
		if !ok || !keep(rs.meta) {
			continue
		}
		out = append(out, rs.meta)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Events replays one run's event payloads in append order, byte-exact
// as they were emitted. A read that hits a malformed line stops at the
// valid prefix and reports the segment and offset; the prefix is still
// returned (a half-written tail must never masquerade as the full
// log, but it must not hide the flushed prefix either).
func (s *Store) Events(id string) ([]json.RawMessage, error) {
	s.mu.Lock()
	rs, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: unknown run %q", id)
	}
	locs := append([]loc(nil), rs.locs...)
	for _, l := range locs {
		if s.active != nil && l.seg == s.active.n {
			if err := s.active.flush(false); err != nil {
				s.degrade(fmt.Errorf("store: segment %s: %w", s.active.path, err))
			}
			break
		}
	}
	s.mu.Unlock()

	var out []json.RawMessage
	for _, l := range locs {
		evs, err := readRunEvents(s.segPath(l.seg), id, l.first, l.end)
		out = append(out, evs...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// compactLocked applies the retention bound (at open, on rotation and
// on a healed reprobe): the oldest segments beyond MaxSegments are
// deleted along with every run recorded in them.
func (s *Store) compactLocked() {
	total := len(s.sealed)
	if s.active != nil {
		total++
	}
	for total > s.opts.MaxSegments && len(s.sealed) > 0 {
		seg := s.sealed[0]
		s.sealed = s.sealed[1:]
		total--
		// Drop every run the segment holds records for: if any of a
		// run's bytes are this old, its begin record is at most this
		// old, so the run can no longer replay completely.
		for _, re := range seg.idx.Runs {
			delete(s.runs, re.ID)
		}
		os.Remove(seg.path)
		os.Remove(indexPath(seg.path))
		os.Remove(quarantinePath(seg.path))
		s.mCompacted.Inc()
	}
	// Trim compacted ids off the order slice's head eagerly; interior
	// gaps (runs spanning segments) are filtered at List time.
	trim := 0
	for trim < len(s.order) {
		if _, ok := s.runs[s.order[trim]]; ok {
			break
		}
		trim++
	}
	s.order = s.order[trim:]
	s.mRuns.Set(int64(len(s.runs)))
}

// Close seals the active segment (writing its index) and closes the
// store. A degraded store closes without touching the disk again.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded || s.active == nil {
		return s.firstErr
	}
	if err := s.sealActiveLocked(); err != nil {
		s.degrade(err)
	}
	s.active = nil
	return s.firstErr
}
