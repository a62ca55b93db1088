package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client's root span id to the traced replica,
// which parents its layer spans on it.
const spanHeader = "X-Perfbench-Span"

// span is one timed call. Spans of one request share the root span as
// their parent; a root span has parent 0.
type span struct {
	id, parent int64
	name       string
	start, end time.Time
}

// tracer keeps spans and per-layer tallies in memory; nothing is
// written until the run ends.
type tracer struct {
	next atomic.Int64

	mu      sync.Mutex
	spans   []span
	tallies map[string]*tally
}

// tally is a sum over n observations of one per-layer count.
type tally struct {
	sum float64
	n   int
}

func newTracer() *tracer { return &tracer{tallies: map[string]*tally{}} }

// record stores a finished span under parent.
func (t *tracer) record(parent int64, name string, start, end time.Time) {
	t.put(span{id: t.next.Add(1), parent: parent, name: name, start: start, end: end})
}

// put stores a finished span whose id was taken from t.next.
func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// start opens a span under parent; calling the returned func closes it.
func (t *tracer) start(parent int64, name string) func() {
	began := time.Now()
	return func() { t.record(parent, name, began, time.Now()) }
}

// add records one observation of a per-layer count.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	tl := t.tallies[name]
	if tl == nil {
		tl = &tally{}
		t.tallies[name] = tl
	}
	tl.sum += v
	tl.n++
	t.mu.Unlock()
}

// parentOf reads the root span id a traced request carries.
func parentOf(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children
// (concurrent calls) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfByName is the mean self time in milliseconds per span name.
func (t *tracer) selfByName() map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, s := range spans {
		sum[s.name] += self[s.id]
		n[s.name]++
	}
	out := make(map[string]float64, len(sum))
	for name, d := range sum {
		out[name] = float64(d) / 1e6 / float64(n[name])
	}
	return out
}

// tally returns a copy of one count's tally (zero when never observed).
func (t *tracer) tally(name string) tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.tallies[name]; tl != nil {
		return *tl
	}
	return tally{}
}

// mean is the tally's mean observation (0 when never observed).
func (tl tally) mean() float64 {
	if tl.n == 0 {
		return 0
	}
	return tl.sum / float64(tl.n)
}
