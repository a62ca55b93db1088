package schedule

import (
	"encoding/json"
	"fmt"
	"time"

	"dscweaver/internal/core"
)

// TraceJSON is the serialized form of a Trace: one record per
// activity plus run-level summary fields. The format is stable and
// consumed by external tooling (timeline viewers, CI comparisons).
type TraceJSON struct {
	Process     string            `json:"process"`
	Began       time.Time         `json:"began"`
	Ended       time.Time         `json:"ended"`
	MakespanNS  int64             `json:"makespan_ns"`
	MaxParallel int               `json:"max_parallel"`
	Outcomes    map[string]string `json:"outcomes,omitempty"`
	Records     []RecordJSON      `json:"records"`
}

// RecordJSON is one activity's serialized record.
type RecordJSON struct {
	Activity  string    `json:"activity"`
	Skipped   bool      `json:"skipped,omitempty"`
	Branch    string    `json:"branch,omitempty"`
	Retries   int       `json:"retries,omitempty"`
	StartSeq  int       `json:"start_seq"`
	FinishSeq int       `json:"finish_seq"`
	StartAt   time.Time `json:"start_at,omitempty"`
	FinishAt  time.Time `json:"finish_at,omitempty"`
}

// MarshalJSON serializes the trace as compact JSON; a caller writing
// it for people (dscweaver -trace) indents it with json.MarshalIndent.
func (t *Trace) MarshalJSON() ([]byte, error) {
	out := TraceJSON{
		Process:     t.Process,
		Began:       t.Began,
		Ended:       t.Ended,
		MakespanNS:  int64(t.Makespan()),
		MaxParallel: t.MaxParallel,
		Outcomes:    t.Outcomes(),
	}
	for _, r := range t.Records() {
		out.Records = append(out.Records, RecordJSON{
			Activity: string(r.Activity), Skipped: r.Skipped, Branch: r.Branch, Retries: r.Retries,
			StartSeq: r.StartSeq, FinishSeq: r.FinishSeq,
			StartAt: r.StartAt, FinishAt: r.FinishAt,
		})
	}
	return json.Marshal(out)
}

// NewTraceFromRecords assembles a Trace from externally produced
// records, in the given order — the decentralized enactment layer
// merges per-node transition streams into one global trace this way.
// The result is validatable like any engine-produced trace.
func NewTraceFromRecords(process string, began, ended time.Time, maxParallel int, recs []Record) (*Trace, error) {
	t := &Trace{
		records:     map[core.ActivityID]*Record{},
		Process:     process,
		Began:       began,
		Ended:       ended,
		MaxParallel: maxParallel,
	}
	for _, r := range recs {
		if _, dup := t.records[r.Activity]; dup {
			return nil, fmt.Errorf("schedule: duplicate record for %s", r.Activity)
		}
		r := r
		t.records[r.Activity] = &r
		t.order = append(t.order, r.Activity)
	}
	return t, nil
}
