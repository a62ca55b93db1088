package schedule

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// Record is one activity's execution summary.
type Record struct {
	Activity core.ActivityID
	Skipped  bool
	// Branch is the decision outcome ("" for non-decisions).
	Branch string
	// Retries counts failed attempts that were retried (§3.2's
	// postponed-until-fixed recovery).
	Retries int
	// StartSeq and FinishSeq are global event sequence numbers; the
	// trace validator compares them against the constraints.
	StartSeq  int
	FinishSeq int
	StartAt   time.Time
	FinishAt  time.Time
}

// Trace is the outcome of one engine run.
type Trace struct {
	mu      sync.Mutex
	records map[core.ActivityID]*Record
	order   []core.ActivityID

	// Process names the process the trace belongs to.
	Process string
	Began   time.Time
	Ended   time.Time
	// MaxParallel is the peak number of concurrently executing
	// activities — the realized-concurrency metric of the benches.
	MaxParallel int
	// FinalVars snapshots the variable store at completion.
	FinalVars map[string]any
}

func newTrace(p *core.Process) *Trace {
	return &Trace{records: map[core.ActivityID]*Record{}, Process: p.Name, Began: time.Now()}
}

func (t *Trace) rec(id core.ActivityID) *Record {
	r, ok := t.records[id]
	if !ok {
		r = &Record{Activity: id}
		t.records[id] = r
		t.order = append(t.order, id)
	}
	return r
}

func (t *Trace) recordStart(id core.ActivityID, seq int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	r.StartSeq = seq
	r.StartAt = time.Now()
}

func (t *Trace) recordFinish(id core.ActivityID, seq int, branch string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	r.FinishSeq = seq
	r.FinishAt = time.Now()
	r.Branch = branch
}

func (t *Trace) recordRetry(id core.ActivityID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec(id).Retries++
}

func (t *Trace) recordSkip(id core.ActivityID, seq int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(id)
	r.Skipped = true
	r.StartSeq = seq
	r.FinishSeq = seq
}

func (t *Trace) finish(vars *Vars) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Ended = time.Now()
	t.FinalVars = vars.Snapshot()
}

// Record returns an activity's record.
func (t *Trace) Record(id core.ActivityID) (*Record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.records[id]
	if !ok {
		return nil, false
	}
	cp := *r
	return &cp, true
}

// Records returns all records sorted by start sequence.
func (t *Trace) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, len(t.records))
	for _, id := range t.order {
		out = append(out, *t.records[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartSeq < out[j].StartSeq })
	return out
}

// Executed returns the ids of activities that ran (not skipped),
// sorted by start sequence.
func (t *Trace) Executed() []core.ActivityID {
	var out []core.ActivityID
	for _, r := range t.Records() {
		if !r.Skipped && r.StartSeq > 0 {
			out = append(out, r.Activity)
		}
	}
	return out
}

// SkippedActivities returns the ids eliminated by dead paths.
func (t *Trace) SkippedActivities() []core.ActivityID {
	var out []core.ActivityID
	for _, r := range t.Records() {
		if r.Skipped {
			out = append(out, r.Activity)
		}
	}
	return out
}

// Makespan is the wall-clock duration of the run.
func (t *Trace) Makespan() time.Duration { return t.Ended.Sub(t.Began) }

// Outcomes returns the decision outcomes observed in the trace
// (skipped decisions map to SkippedBranch).
func (t *Trace) Outcomes() map[string]string {
	out := map[string]string{}
	for _, r := range t.Records() {
		if r.Branch != "" {
			out[string(r.Activity)] = r.Branch
		}
		if r.Skipped {
			out[string(r.Activity)] = SkippedBranch
		}
	}
	// Only decisions matter; non-decisions never set Branch, and the
	// skip entries for non-decisions are harmless to guard evaluation.
	return out
}

// condHolds evaluates a constraint condition under the observed
// decision outcomes; unresolved decisions make literals false.
func condHolds(c cond.Expr, outcomes map[string]string) bool {
	return c.Eval(outcomes)
}

// Validate checks the trace against a constraint set and guard map:
//
//   - every HappenBefore constraint whose endpoints both executed and
//     whose condition holds under the observed outcomes was respected
//     (source point sequence < target point sequence);
//   - Exclusive activities never overlapped;
//   - an activity was skipped exactly when its guard evaluates false.
//
// A nil guards map derives guards from the set itself.
func (t *Trace) Validate(sc *core.ConstraintSet, guards map[core.Node]cond.Expr) error {
	if guards == nil {
		g, err := core.DeriveGuards(sc)
		if err != nil {
			return err
		}
		guards = g
	}
	outcomes := t.Outcomes()

	seqOf := func(p core.Point) (int, bool) {
		r, ok := t.Record(p.Node.Activity)
		if !ok || r.Skipped || r.StartSeq == 0 {
			return 0, false
		}
		if p.State == core.Finish {
			return r.FinishSeq, r.FinishSeq > 0
		}
		return r.StartSeq, true
	}

	for i := 0; i < sc.Len(); i++ {
		c := sc.At(i)
		switch c.Rel {
		case core.HappenBefore:
			if !condHolds(c.Cond, outcomes) {
				continue
			}
			from, okF := seqOf(c.From)
			to, okT := seqOf(c.To)
			if !okF || !okT {
				continue // a skipped endpoint vacates the constraint
			}
			if from >= to {
				return fmt.Errorf("trace: constraint %s violated (seq %d ≥ %d)", c, from, to)
			}
		case core.Exclusive:
			a, okA := t.Record(c.From.Node.Activity)
			bRec, okB := t.Record(c.To.Node.Activity)
			if !okA || !okB || a.Skipped || bRec.Skipped || a.StartSeq == 0 || bRec.StartSeq == 0 {
				continue
			}
			if a.StartSeq < bRec.FinishSeq && bRec.StartSeq < a.FinishSeq {
				return fmt.Errorf("trace: exclusive activities %s and %s overlapped", a.Activity, bRec.Activity)
			}
		}
	}

	// Life-cycle consistency: an executed activity starts before it
	// finishes.
	for _, r := range t.Records() {
		if !r.Skipped && r.StartSeq > 0 && r.FinishSeq > 0 && r.StartSeq >= r.FinishSeq {
			return fmt.Errorf("trace: activity %s finishes (%d) no later than it starts (%d)",
				r.Activity, r.FinishSeq, r.StartSeq)
		}
	}

	// Skip correctness.
	for _, r := range t.Records() {
		g := cond.True()
		if gg, ok := guards[core.ActivityNode(r.Activity)]; ok {
			g = gg
		}
		decidable := true
		for _, d := range g.Decisions() {
			if _, ok := outcomes[d]; !ok {
				decidable = false
			}
		}
		if !decidable {
			return fmt.Errorf("trace: guard of %s not decidable from outcomes %v", r.Activity, outcomes)
		}
		want := g.Eval(outcomes)
		if want == r.Skipped {
			return fmt.Errorf("trace: activity %s skipped=%v but guard %v evaluates %v under %v",
				r.Activity, r.Skipped, g, want, outcomes)
		}
	}
	return nil
}

// Gantt renders an ASCII timeline of the trace in event-sequence
// units: one row per activity, '#' while running, '·' while waiting
// between start and the global end, 'x' for skipped activities.
func (t *Trace) Gantt() string {
	recs := t.Records()
	maxSeq := 0
	for _, r := range recs {
		if r.FinishSeq > maxSeq {
			maxSeq = r.FinishSeq
		}
	}
	if maxSeq == 0 {
		return ""
	}
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%-24s|", r.Activity)
		if r.Skipped {
			for i := 1; i <= maxSeq; i++ {
				if i == r.StartSeq {
					b.WriteByte('x')
				} else {
					b.WriteByte(' ')
				}
			}
		} else {
			for i := 1; i <= maxSeq; i++ {
				switch {
				case i >= r.StartSeq && i <= r.FinishSeq && r.FinishSeq > 0:
					b.WriteByte('#')
				case i >= r.StartSeq && r.FinishSeq == 0:
					b.WriteByte('·')
				default:
					b.WriteByte(' ')
				}
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// String renders the trace for debugging.
func (t *Trace) String() string {
	var out string
	for _, r := range t.Records() {
		status := "ran"
		if r.Skipped {
			status = "skipped"
		}
		out += fmt.Sprintf("%-20s %-7s start=%d finish=%d", r.Activity, status, r.StartSeq, r.FinishSeq)
		if r.Branch != "" {
			out += " branch=" + r.Branch
		}
		out += "\n"
	}
	return out
}
