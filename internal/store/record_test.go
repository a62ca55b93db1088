package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/obs"
)

// segmentLines reads a segment file and splits it into its lines,
// each with its trailing newline.
func segmentLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
}

// TestEmitLineMatchesRecordMarshal: Appender.Emit encodes an event
// record directly, and the line it writes is byte for byte what
// json.Marshal of the record gives, for run ids and payloads that need
// escaping too.
func TestEmitLineMatchesRecordMarshal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := []obs.Event{
		{Layer: obs.LayerEngine, Kind: obs.EvActivityStart, Activity: "a_1", Seq: 1},
		{Layer: obs.LayerMinimize, Kind: obs.EvMinimizeEnd, Detail: `<proc & "quoted">`, Value: 13,
			Decision: &obs.Decision{Candidates: 30, Removed: []string{"F(a) → S(b)"}}},
		{Layer: obs.LayerEngine, Kind: obs.EvActivityFinish, Activity: "ü\u2028", Err: "boom\n"},
	}
	var want []string
	for _, id := range []string{"weave-000001", `run "<&>" ü`} {
		app := s.Begin(id, 1, "weave", time.Unix(1700000000, 0).UTC())
		for _, e := range events {
			app.Emit(e)
			raw, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			line, err := json.Marshal(record{T: recEvent, Run: id, Ev: raw})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, string(line)+"\n")
		}
		app.Finish("p", nil)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range segmentLines(t, filepath.Join(dir, "seg-00000001.jsonl")) {
		if bytes.HasPrefix(line, []byte(`{"t":"event"`)) {
			got = append(got, string(line))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("segment holds %d event lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestWallOnlyOnBeginRecords: begin records carry the run's start
// time; event and finish records carry no zero "wall".
func TestWallOnlyOnBeginRecords(t *testing.T) {
	if b, _ := json.Marshal(struct {
		W time.Time `json:"w,omitzero"`
	}{}); string(b) != "{}" {
		t.Skip("encoding/json before Go 1.24 ignores omitzero")
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeRun(t, s, 1, "simulate", 3, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := segmentLines(t, filepath.Join(dir, "seg-00000001.jsonl"))
	if len(lines) != 5 {
		t.Fatalf("segment holds %d lines, want begin + 3 events + finish", len(lines))
	}
	for i, line := range lines {
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatal(err)
		}
		wall, hasWall := fields["wall"]
		if begin := i == 0; hasWall != begin {
			t.Errorf("line %d has wall = %v, want %v: %s", i, hasWall, begin, line)
		}
		if i == 0 && string(wall) != `"2023-11-14T22:13:21Z"` {
			t.Errorf("begin record wall = %s, want the run's start time", wall)
		}
	}
}

// TestRecoverReadsZeroWallRecords: segments written before event and
// finish records dropped their zero "wall" still recover, and a store
// reopened on them keeps appending in the current format beside them.
func TestRecoverReadsZeroWallRecords(t *testing.T) {
	dir := t.TempDir()
	const ev = `{"mono_ns":0,"layer":"engine","kind":"activity_start","activity":"a"}`
	old := strings.Join([]string{
		`{"t":"begin","run":"weave-000001","seq":1,"kind":"weave","wall":"2023-11-14T22:13:20Z"}`,
		`{"t":"event","run":"weave-000001","wall":"0001-01-01T00:00:00Z","ev":` + ev + `}`,
		`{"t":"finish","run":"weave-000001","wall":"0001-01-01T00:00:00Z","proc":"p","ok":true}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.jsonl"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) {
		t.Helper()
		meta, ok := s.Get("weave-000001")
		if !ok {
			t.Fatal("old-format run not recovered")
		}
		if !meta.Done || !meta.OK || meta.Proc != "p" || meta.Events != 1 || meta.Kind != "weave" ||
			!meta.Began.Equal(time.Unix(1700000000, 0)) {
			t.Errorf("recovered meta = %+v", meta)
		}
		assertEvents(t, s, "weave-000001", []string{ev})
	}
	check(s)
	id, want := writeRun(t, s, 2, "enact", 2, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
	assertEvents(t, s, id, want)
}
