package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dscweaver/internal/obs"
)

// writeRun appends one complete run of n events and returns its id
// plus the exact marshaled event bytes the store must replay.
func writeRun(t *testing.T, s *Store, seq int64, kind string, n int, runErr error) (string, []string) {
	t.Helper()
	id := fmt.Sprintf("%s-%06d", kind, seq)
	app := s.Begin(id, seq, kind, time.Unix(1700000000+seq, 0).UTC())
	var want []string
	for i := 0; i < n; i++ {
		e := obs.Event{
			Mono:     time.Duration(i) * time.Millisecond,
			Layer:    obs.LayerEngine,
			Kind:     obs.EvActivityStart,
			Activity: fmt.Sprintf("a_%d_%d", seq, i),
			Seq:      i,
			Detail:   strings.Repeat("x", i%17),
		}
		app.Emit(e)
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, string(raw))
	}
	app.Finish(fmt.Sprintf("proc_%d", seq), runErr)
	return id, want
}

// assertEvents asserts the store replays id's events byte-identical.
func assertEvents(t *testing.T, s *Store, id string, want []string) {
	t.Helper()
	got, err := s.Events(id)
	if err != nil {
		t.Fatalf("Events(%s): %v", id, err)
	}
	if len(got) != len(want) {
		t.Fatalf("Events(%s): got %d events, want %d", id, len(got), len(want))
	}
	for i := range got {
		if string(got[i]) != want[i] {
			t.Fatalf("Events(%s)[%d]:\n got %s\nwant %s", id, i, got[i], want[i])
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	var ids []string
	for seq := int64(1); seq <= 5; seq++ {
		var runErr error
		if seq == 3 {
			runErr = errors.New("engine: boom")
		}
		id, evs := writeRun(t, s, seq, "weave", int(seq)+1, runErr)
		want[id] = evs
		ids = append(ids, id)
	}
	list := s.ListRange(time.Time{}, time.Time{}, 0)
	if len(list) != 5 {
		t.Fatalf("List: %d runs, want 5", len(list))
	}
	if list[0].ID != ids[4] || list[4].ID != ids[0] {
		t.Fatalf("List order not newest-first: %v", list)
	}
	m, ok := s.Get(ids[2])
	if !ok {
		t.Fatalf("Get(%s) missing", ids[2])
	}
	if !m.Done || m.OK || m.Err != "engine: boom" || m.Proc != "proc_3" {
		t.Fatalf("Get(%s): %+v, want done error run", ids[2], m)
	}
	for id, evs := range want {
		assertEvents(t, s, id, evs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything replays from segments + sidecars.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.MaxSeq(); got != 5 {
		t.Fatalf("MaxSeq after reopen: %d, want 5", got)
	}
	if got := len(s2.ListRange(time.Time{}, time.Time{}, 0)); got != 5 {
		t.Fatalf("List after reopen: %d runs, want 5", got)
	}
	for id, evs := range want {
		assertEvents(t, s2, id, evs)
		m, ok := s2.Get(id)
		if !ok || !m.Done {
			t.Fatalf("Get(%s) after reopen: %+v ok=%v", id, m, ok)
		}
	}
	if got := s2.ListRange(time.Time{}, time.Time{}, 2); len(got) != 2 || got[0].ID != ids[4] {
		t.Fatalf("List(2): %v", got)
	}
}

func TestStoreRotationAndSpanningRun(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// One big run: its events must span several segments.
	id, evs := writeRun(t, s, 1, "weave", 64, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	s2, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertEvents(t, s2, id, evs)
	m, _ := s2.Get(id)
	if m.Events != 64 {
		t.Fatalf("Events count: %d, want 64", m.Events)
	}
}

func TestStoreRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1 << 10, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string][]string{}
	for seq := int64(1); seq <= 40; seq++ {
		id, evs := writeRun(t, s, seq, "weave", 4, nil)
		want[id] = evs
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 3 {
		t.Fatalf("retention kept %d segments, want <= 3", len(segs))
	}
	list := s.ListRange(time.Time{}, time.Time{}, 0)
	if len(list) == 0 || len(list) >= 40 {
		t.Fatalf("List after compaction: %d runs", len(list))
	}
	// Newest runs survive and replay; oldest are gone.
	if list[0].ID != "weave-000040" {
		t.Fatalf("newest run missing: %v", list[0])
	}
	assertEvents(t, s, list[0].ID, want[list[0].ID])
	if _, ok := s.Get("weave-000001"); ok {
		t.Fatal("oldest run survived retention")
	}
	if _, err := s.Events("weave-000001"); err == nil {
		t.Fatal("Events for compacted run should error")
	}
}

func TestStoreIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for seq := int64(1); seq <= 10; seq++ {
		id, evs := writeRun(t, s, seq, "simulate", 6, nil)
		want[id] = evs
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete every sidecar: reopen must rebuild from segment bytes.
	matches, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no sidecars found: %v %v", matches, err)
	}
	for _, m := range matches {
		os.Remove(m)
	}
	s2, err := Open(dir, Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.ListRange(time.Time{}, time.Time{}, 0)); got != 10 {
		t.Fatalf("List after rebuild: %d, want 10", got)
	}
	for id, evs := range want {
		assertEvents(t, s2, id, evs)
	}
	// Sidecars were rewritten for the sealed segments.
	matches, _ = filepath.Glob(filepath.Join(dir, "*.idx"))
	if len(matches) == 0 {
		t.Fatal("sidecars not rewritten")
	}
}

// faultFile fails writes after a budget of bytes, modeling ENOSPC.
type faultFile struct {
	f      File
	budget *int64
	mu     *sync.Mutex
}

var errNoSpace = errors.New("no space left on device")

func (ff faultFile) Write(p []byte) (int, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if *ff.budget <= 0 {
		return 0, errNoSpace
	}
	if int64(len(p)) > *ff.budget {
		// Short write: part of the line lands, then the device is full.
		n, _ := ff.f.Write(p[:*ff.budget])
		*ff.budget = 0
		return n, errNoSpace
	}
	*ff.budget -= int64(len(p))
	return ff.f.Write(p)
}

func (ff faultFile) Sync() error  { return ff.f.Sync() }
func (ff faultFile) Close() error { return ff.f.Close() }

func TestStoreDegradesOnWriteFault(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	budget := int64(4 << 10)
	var mu sync.Mutex
	opts := Options{
		Metrics: reg,
		OpenFile: func(path string) (File, error) {
			f, err := OSOpenFile(path)
			if err != nil {
				return nil, err
			}
			return faultFile{f: f, budget: &budget, mu: &mu}, nil
		},
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lastGood string
	var lastGoodEvs []string
	degradedAt := -1
	for seq := int64(1); seq <= 200; seq++ {
		id, evs := writeRun(t, s, seq, "weave", 8, nil)
		if s.Degraded() {
			degradedAt = int(seq)
			break
		}
		lastGood, lastGoodEvs = id, evs
	}
	if degradedAt < 0 {
		t.Fatal("store never degraded under write faults")
	}
	if g := reg.Gauge("store_degraded").Value(); g != 1 {
		t.Fatalf("store_degraded gauge: %d, want 1", g)
	}
	if reg.Counter("store_write_errors_total").Value() == 0 {
		t.Fatal("store_write_errors_total not incremented")
	}
	// Reads keep serving the persisted prefix.
	assertEvents(t, s, lastGood, lastGoodEvs)
	// Appends after degradation are safe no-ops.
	app := s.Begin("weave-999999", 999999, "weave", time.Now())
	app.Emit(obs.Event{Kind: obs.EvRunBegin})
	app.Finish("p", nil)
	if _, ok := s.Get("weave-999999"); ok {
		t.Fatal("degraded store registered a new run")
	}

	// A degraded store's Close reports the first write fault.
	if err := s.Close(); !errors.Is(err, errNoSpace) {
		t.Fatalf("Close: %v, want errNoSpace", err)
	}
	// A reopen after the fault clears recovers everything flushed: the
	// torn half-line the short write left behind is quarantined.
	budget = 1 << 40
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Degraded() {
		t.Fatal("reopened store degraded")
	}
	assertEvents(t, s2, lastGood, lastGoodEvs)
}

func TestStoreListRange(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seq := int64(1); seq <= 10; seq++ {
		writeRun(t, s, seq, "weave", 1, nil)
	}
	from := time.Unix(1700000003, 0).UTC()
	to := time.Unix(1700000007, 0).UTC()
	got := s.ListRange(from, to, 0)
	if len(got) != 5 {
		t.Fatalf("ListRange: %d runs, want 5: %v", len(got), got)
	}
	for _, m := range got {
		if m.Began.Before(from) || m.Began.After(to) {
			t.Fatalf("run %s began %v outside [%v, %v]", m.ID, m.Began, from, to)
		}
	}
	if got := s.ListRange(from, time.Time{}, 0); len(got) != 8 {
		t.Fatalf("open-ended ListRange: %d, want 8", len(got))
	}
	if got := s.ListRange(from, to, 2); len(got) != 2 {
		t.Fatalf("limited ListRange: %d, want 2", len(got))
	}
}

func TestStoreUnknownRun(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Events("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Events(nope): %v", err)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
}

// TestStoreConcurrentAppenders races many runs' appenders against
// concurrent reads; run under -race in CI.
func TestStoreConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 16
	var wg sync.WaitGroup
	ids := make([]string, runs)
	for i := 0; i < runs; i++ {
		i := i
		ids[i] = fmt.Sprintf("weave-%06d", i+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := s.Begin(ids[i], int64(i+1), "weave", time.Now().UTC())
			for j := 0; j < 50; j++ {
				app.Emit(obs.Event{Kind: obs.EvActivityStart, Activity: fmt.Sprintf("a%d_%d", i, j), Seq: j})
			}
			app.Finish("p", nil)
		}()
	}
	// Concurrent list/read load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			for _, m := range s.ListRange(time.Time{}, time.Time{}, 0) {
				s.Events(m.ID)
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, id := range ids {
		evs, err := s2.Events(id)
		if err != nil {
			t.Fatalf("Events(%s): %v", id, err)
		}
		if len(evs) != 50 {
			t.Fatalf("run %d: %d events, want 50", i, len(evs))
		}
	}
}

// TestOrphanAppendsAfterCompaction: once compaction drops a run (its
// begin segment is gone, so it can never replay completely again),
// later Emit/Finish calls through its appender must be refused rather
// than resurrect a ghost catalog entry with zero Began and empty Kind.
func TestOrphanAppendsAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1: every record rotates into its own segment, so
	// retention is exercised record by record.
	s, err := Open(dir, Options{SegmentBytes: 1, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	began := time.Unix(1700000000, 0).UTC()
	a := s.Begin("weave-000001", 1, "weave", began)             // seg 1
	a.Emit(obs.Event{Kind: obs.EvActivityStart, Activity: "x"}) // seals seg 1, lands in seg 2
	s.Begin("weave-000002", 2, "weave", began.Add(time.Second)) // seals seg 2, compacts seg 1 away
	if _, ok := s.Get("weave-000001"); ok {
		t.Fatal("run 1 still cataloged after its begin segment was compacted")
	}
	// Orphaned appends for the compacted run must not re-create it.
	a.Emit(obs.Event{Kind: obs.EvActivityStart, Activity: "y"})
	a.Finish("proc", nil)
	if _, ok := s.Get("weave-000001"); ok {
		t.Fatal("orphaned event/finish appends resurrected a ghost catalog entry")
	}
	for _, m := range s.ListRange(time.Time{}, time.Time{}, 0) {
		if m.Began.IsZero() || m.Kind == "" {
			t.Fatalf("ghost run in List: %+v", m)
		}
	}
	if s.Degraded() {
		t.Fatal("refusing an orphan append must not degrade the store")
	}
}

// TestReplaySkipsOrphanedSegmentSlices: retained segments can hold
// event records of a run whose begin segment compaction already
// deleted. Replaying the chain must not resurrect such runs as ghost
// catalog entries (zero Began, empty Kind, Seq 0) in List.
func TestReplaySkipsOrphanedSegmentSlices(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1, MaxSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	began := time.Unix(1700000000, 0).UTC()
	a := s.Begin("weave-000001", 1, "weave", began)             // seg 1: run 1 begin
	a.Emit(obs.Event{Kind: obs.EvActivityStart, Activity: "x"}) // seg 2: run 1 event
	s.Begin("weave-000002", 2, "weave", began.Add(time.Second)) // seg 3; compacts seg 1, drops run 1
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// On disk: seg 2 (run 1's orphaned event slice) and seg 3 (run 2's
	// begin). Reopen with laxer retention so nothing compacts at Open
	// and the orphaned slice is actually replayed.
	s2, err := Open(dir, Options{SegmentBytes: 1, MaxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("weave-000001"); ok {
		t.Fatal("replay resurrected a run whose begin segment was compacted")
	}
	list := s2.ListRange(time.Time{}, time.Time{}, 0)
	if len(list) != 1 || list[0].ID != "weave-000002" {
		t.Fatalf("List after reopen: %+v, want run 2 only", list)
	}
	if list[0].Began.IsZero() || list[0].Kind != "weave" || list[0].Seq != 2 {
		t.Fatalf("run 2 metadata lost across reopen: %+v", list[0])
	}
	if got := s2.MaxSeq(); got != 2 {
		t.Fatalf("MaxSeq after reopen: %d, want 2", got)
	}
}
