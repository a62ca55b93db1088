package schedule

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
)

// LoadTraceJSON parses a serialized trace back into a Trace usable
// with Validate. It is the round-trip oracle of the trace format:
// nothing in the pipeline reads a trace file back.
func LoadTraceJSON(data []byte) (*Trace, error) {
	var in TraceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	t := &Trace{
		records:     map[core.ActivityID]*Record{},
		Process:     in.Process,
		Began:       in.Began,
		Ended:       in.Ended,
		MaxParallel: in.MaxParallel,
	}
	for _, r := range in.Records {
		id := core.ActivityID(r.Activity)
		if _, dup := t.records[id]; dup {
			return nil, fmt.Errorf("schedule: duplicate record for %s", r.Activity)
		}
		t.records[id] = &Record{
			Activity: id, Skipped: r.Skipped, Branch: r.Branch, Retries: r.Retries,
			StartSeq: r.StartSeq, FinishSeq: r.FinishSeq,
			StartAt: r.StartAt, FinishAt: r.FinishAt,
		}
		t.order = append(t.order, id)
	}
	return t, nil
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := runPurchasing(t, true)
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	// MarshalJSON writes compact JSON, so encoding/json has nothing to
	// compact again when a response embeds the trace.
	raw, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, compact.Bytes()) {
		t.Errorf("MarshalJSON is not compact: %d bytes, %d once compacted", len(raw), compact.Len())
	}
	if !strings.Contains(string(data), `"activity":"if_au"`) {
		t.Errorf("serialized trace missing activity records:\n%.300s", data)
	}
	back, err := LoadTraceJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed trace still validates against the full ASC.
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(asc, guards); err != nil {
		t.Fatalf("replayed trace invalid: %v", err)
	}
	if back.MaxParallel != tr.MaxParallel {
		t.Errorf("MaxParallel = %d, want %d", back.MaxParallel, tr.MaxParallel)
	}
	r1, _ := tr.Record(purchasing.IfAu)
	r2, _ := back.Record(purchasing.IfAu)
	if r1.Branch != r2.Branch || r1.StartSeq != r2.StartSeq {
		t.Errorf("record drift: %+v vs %+v", r1, r2)
	}
}

func TestLoadTraceJSONErrors(t *testing.T) {
	if _, err := LoadTraceJSON([]byte("{broken")); err == nil {
		t.Error("malformed JSON accepted")
	}
	dup := `{"records":[{"activity":"a","start_seq":1,"finish_seq":2},{"activity":"a","start_seq":3,"finish_seq":4}]}`
	if _, err := LoadTraceJSON([]byte(dup)); err == nil {
		t.Error("duplicate records accepted")
	}
}

func TestTraceJSONDetectsTamperedOrder(t *testing.T) {
	sc := chainSet(3)
	e, err := New(sc, nil, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Pull a2's start before a1's finish: the replayed trace must
	// fail validation.
	tampered := strings.Replace(string(data), `"start_seq":5`, `"start_seq":1`, 1)
	back, err := LoadTraceJSON([]byte(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(sc, nil); err == nil {
		t.Error("tampered trace passed validation")
	}
}
