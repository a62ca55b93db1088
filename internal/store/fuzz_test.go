package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/obs"
)

// corpusSegment builds a small real segment (plus its sidecar index)
// the way the writer does, returning both files' bytes — the fuzz seed
// corpus mutates real shapes, not synthetic ones.
func corpusSegment(t testing.TB) (seg, idx []byte) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		id := fmt.Sprintf("weave-%06d", seq)
		app := s.Begin(id, seq, "weave", time.Unix(1700000000+seq, 0).UTC())
		for j := 0; j < 4; j++ {
			app.Emit(obs.Event{Kind: obs.EvActivityStart, Activity: fmt.Sprintf("a%d", j), Seq: j})
		}
		app.Finish("proc", nil)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err = os.ReadFile(filepath.Join(dir, "seg-00000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	idx, err = os.ReadFile(filepath.Join(dir, "seg-00000001.idx"))
	if err != nil {
		t.Fatal(err)
	}
	return seg, idx
}

// FuzzSegmentIndex fuzzes the two read paths an on-disk corruption can
// reach: mutated segment bytes (the JSONL recovery scan + the full
// Open replay) and mutated sidecar bytes (the index loader). Neither
// may panic; every surfaced error must carry segment context; and a
// recovered store must replay only clean JSON, whatever the input.
func FuzzSegmentIndex(f *testing.F) {
	seg, idx := corpusSegment(f)
	f.Add(seg, idx)
	// Handcrafted shapes: clean prefix + torn tail, interleaved runs,
	// empty input, a lying sidecar.
	f.Add([]byte(`{"t":"begin","run":"weave-000001","seq":1,"kind":"weave"}`+"\n"+
		`{"t":"event","run":"weave-000001","ev":{"kind":"x"}}`+"\n"+
		`{"t":"event","run":"weave-000001","ev":{"kind":"y"`),
		[]byte(`{"version":1,"segment":"seg-00000001.jsonl","size":57,"runs":[{"id":"weave-000001","first":0,"end":57}]}`))
	f.Add([]byte("\x00\x00\x00garbage\n"), []byte(`{"version":99}`))
	f.Add([]byte(""), []byte(`{"version":1,"segment":"seg-00000001.jsonl","size":0,"runs":[{"id":"a","first":-4,"end":100}]}`))

	f.Fuzz(func(t *testing.T, segData, idxData []byte) {
		dir := t.TempDir()
		segPath := filepath.Join(dir, "seg-00000001.jsonl")
		if err := os.WriteFile(segPath, segData, 0o644); err != nil {
			t.Fatal(err)
		}

		// The raw recovery scan: no panic, prefix bounded by the input,
		// errors name the segment.
		bidx, size, err := buildIndex(segPath)
		if err != nil && !strings.Contains(err.Error(), segPath) {
			t.Fatalf("buildIndex error without segment context: %v", err)
		}
		if size > int64(len(segData)) {
			t.Fatalf("valid prefix %d exceeds input %d", size, len(segData))
		}
		if bidx != nil && !bidx.coherent() {
			t.Fatalf("buildIndex produced incoherent index")
		}

		// The sidecar loader over mutated index bytes, against a second
		// segment chain where the fuzzed segment is sealed (not last).
		if err := os.WriteFile(indexPath(segPath), idxData, 0o644); err != nil {
			t.Fatal(err)
		}
		seg2 := filepath.Join(dir, "seg-00000002.jsonl")
		if err := os.WriteFile(seg2, nil, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err := Open(dir, Options{})
		if err != nil {
			// Open tolerates arbitrary segment bytes: corruption must
			// recover, never fail the boot.
			t.Fatalf("Open over fuzzed segment failed: %v", err)
		}
		defer st.Close()
		for _, m := range st.ListRange(time.Time{}, time.Time{}, 0) {
			evs, err := st.Events(m.ID)
			if err != nil && !strings.Contains(err.Error(), "seg-") {
				t.Fatalf("Events error without segment context: %v", err)
			}
			for _, raw := range evs {
				if len(raw) == 0 {
					continue
				}
				if !json.Valid(raw) {
					t.Fatalf("run %s served invalid JSON: %q", m.ID, raw)
				}
			}
		}
		st.ListRange(time.Unix(0, 0), time.Now(), 10)
	})
}
