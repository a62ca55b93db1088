package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/server"
)

const (
	// clients is the closed loop's size: each client sends its next
	// request only after the previous reply, like the design tools and
	// CI jobs that call dscweaverd.
	clients = 2
	// minTail is the sample count that leaves ten samples beyond p95.
	minTail = 200
	// heavySampleEvery is the share of weave-heavy answers (one in N,
	// chosen by the seed) checked against a sequential weave.
	heavySampleEvery = 16
	// Events reads aimed at old runs pick among all but the newest
	// oldMargin runs, which the 128-run ring has already evicted;
	// reads aimed at recent runs pick among the newest recentWindow.
	oldMargin        = 160
	recentWindow     = 64
	requestTimeoutMS = 10000
)

// createdRun is a run a client saw created, in completion order.
type createdRun struct {
	id   string
	kind op
	src  *source
}

// heavySample is a weave-heavy answer kept for the post-run oracle.
type heavySample struct {
	client, k int
	minimal   []string
	sound     bool
}

// loadgen runs one workload's closed loop against one target.
type loadgen struct {
	spec workloadSpec
	seed int64
	pool []*source
	base string // the server the clients talk to
	peer string // the enact peer (execute only)
	http *http.Client
	tr   *tracer // nil in the untraced run

	mu      sync.Mutex
	created []createdRun
	known   map[string]bool
	unknown []string
	samples []heavySample

	done [len(allOps)]atomic.Int64
}

// clientStats is one client's outcome, merged after the loop.
type clientStats struct {
	ops       int
	lat       map[op][]time.Duration
	attempted map[op]int
	failed    map[op]int
	errs      []string
}

func newLoadgen(spec workloadSpec, seed int64, pool []*source, base, peer string, hc *http.Client, tr *tracer) *loadgen {
	return &loadgen{spec: spec, seed: seed, pool: pool, base: base, peer: peer, http: hc, tr: tr, known: map[string]bool{}}
}

// loop runs every client until the deadline and the tail rule are
// both met (never past hard), or, with limits set, for exactly
// limits[c] operations each — the replay of an earlier loop.
func (d *loadgen) loop(deadline, hard time.Time, limits []int) []*clientStats {
	out := make([]*clientStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			limit := -1
			if limits != nil {
				limit = limits[c]
			}
			out[c] = d.client(c, deadline, hard, limit)
		}(c)
	}
	wg.Wait()
	return out
}

// tailMet reports whether every operation of the mix has enough
// samples for its p95 to have ten beyond it.
func (d *loadgen) tailMet() bool {
	for _, w := range d.spec.mix {
		if d.done[opIndex(w.op)].Load() < minTail {
			return false
		}
	}
	return true
}

func opIndex(o op) int {
	for i, x := range allOps {
		if x == o {
			return i
		}
	}
	panic("unknown op " + o)
}

func (d *loadgen) client(c int, deadline, hard time.Time, limit int) *clientStats {
	st := &clientStats{lat: map[op][]time.Duration{}, attempted: map[op]int{}, failed: map[op]int{}}
	rng := rand.New(rand.NewSource(mix64(d.seed, 2000+c, 0)))
	total := 0
	for _, w := range d.spec.mix {
		total += w.n
	}
	for k := 0; ; k++ {
		if limit >= 0 {
			if k >= limit {
				break
			}
		} else if now := time.Now(); now.After(hard) || now.After(deadline) && d.tailMet() {
			break
		}
		st.ops++
		x := rng.Intn(total)
		var o op
		for _, w := range d.spec.mix {
			if x < w.n {
				o = w.op
				break
			}
			x -= w.n
		}
		o, lat, err := d.do(c, k, o, rng)
		st.attempted[o]++
		if err != nil {
			st.failed[o]++
			if len(st.errs) < 5 {
				st.errs = append(st.errs, fmt.Sprintf("%s: %v", o, err))
			}
			continue
		}
		st.lat[o] = append(st.lat[o], lat)
		d.done[opIndex(o)].Add(1)
	}
	return st
}

// do sends one operation and checks its answer. Inputs are chosen and
// encoded before the clock starts and checked after it stops. It
// returns the operation actually sent: an events read before any run
// exists is sent as a runs read. Every operation draws the same number
// of random values whatever happens, so a replay sees the same stream.
func (d *loadgen) do(c, k int, o op, rng *rand.Rand) (op, time.Duration, error) {
	var (
		src  *source
		body any
		path string
	)
	switch o {
	case opWeave:
		if d.pool == nil {
			body = map[string]any{"source": heavySource(d.seed, c, k), "validate": true, "bpel": true}
		} else {
			src = d.pool[rng.Intn(len(d.pool))]
			body = map[string]any{"source": src.text}
		}
		path = "/v1/weave"
	case opSimulate:
		src = d.pool[rng.Intn(len(d.pool))]
		body = map[string]any{"source": src.text, "timeout_ms": requestTimeoutMS}
		path = "/v1/simulate"
	case opEnact:
		src = d.pool[rng.Intn(len(d.pool))]
		body = map[string]any{"source": src.text, "timeout_ms": requestTimeoutMS, "peers": []string{d.peer}}
		path = "/v1/enact"
	case opRuns:
		path = "/v1/runs?limit=50"
	case opEvents:
		old, u := rng.Intn(2) == 0, rng.Float64()
		t, ok := d.pick(old, u)
		if !ok {
			o, path = opRuns, "/v1/runs?limit=50"
			break
		}
		lat, resp, err := d.send(o, "/v1/runs/"+t.id+"/events", nil)
		if err != nil {
			return o, 0, err
		}
		return o, lat, checkEvents(resp.body, resp.truncated, t.kind, t.src)
	}
	sampled := o == opWeave && d.pool == nil && rng.Intn(heavySampleEvery) == 0
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return o, 0, err
		}
	}
	lat, resp, err := d.send(o, path, payload)
	if err != nil {
		return o, 0, err
	}
	return o, lat, d.check(o, c, k, src, resp.body, sampled)
}

// reply is a response read in full inside the timed window.
type reply struct {
	body      []byte
	truncated bool
}

// send times one request, from writing it to reading the last byte of
// the reply. In the traced run the interval is the root span of the
// request, and its id travels to the replica in a header.
func (d *loadgen) send(o op, path string, payload []byte) (time.Duration, reply, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if payload != nil {
		method, rd = http.MethodPost, bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, reply{}, err
	}
	var id int64
	if d.tr != nil {
		id = d.tr.next.Add(1)
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	began := time.Now()
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ended := time.Now()
	if err != nil {
		return 0, reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, reply{}, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if d.tr != nil {
		d.tr.put(span{id: id, name: "root." + string(o), start: began, end: ended})
	}
	return ended.Sub(began), reply{body: data, truncated: resp.Header.Get("X-Dscweaver-Truncated") == "true"}, nil
}

// check decodes and checks one write or runs answer, and records the
// runs it created.
func (d *loadgen) check(o op, c, k int, src *source, body []byte, sampled bool) error {
	switch o {
	case opWeave:
		var resp server.WeaveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		d.remember(resp.RunID, o, src)
		if sampled {
			d.mu.Lock()
			d.samples = append(d.samples, heavySample{client: c, k: k, minimal: resp.Minimal, sound: resp.Sound != nil && *resp.Sound})
			d.mu.Unlock()
		}
		if src == nil {
			return nil
		}
		return checkWeave(&resp, src)
	case opSimulate:
		var resp server.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		d.remember(resp.RunID, o, src)
		return checkSimulate(&resp)
	case opEnact:
		var resp server.EnactResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		d.remember(resp.RunID, o, src)
		return checkEnact(&resp)
	case opRuns:
		var list []server.RunSummary
		if err := json.Unmarshal(body, &list); err != nil {
			return err
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		unknown, err := checkRuns(list, func(id string) bool { return d.known[id] })
		d.unknown = append(d.unknown, unknown...)
		return err
	}
	return nil
}

// remember records a run this benchmark created.
func (d *loadgen) remember(id string, kind op, src *source) {
	d.mu.Lock()
	d.created = append(d.created, createdRun{id: id, kind: kind, src: src})
	d.known[id] = true
	d.mu.Unlock()
}

// pick chooses an events target: old ones have left the ring and
// replay from the segment store, recent ones are served from the ring.
// Until enough runs exist, an old read picks among all runs.
func (d *loadgen) pick(old bool, u float64) (createdRun, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.created)
	if n == 0 {
		return createdRun{}, false
	}
	lo, hi := 0, n
	switch {
	case old && n > oldMargin:
		hi = n - oldMargin
	case !old:
		lo = max(0, n-recentWindow)
	}
	return d.created[lo+int(u*float64(hi-lo))], true
}

// finish runs the checks that must wait until every client stopped:
// runs listings may name a run whose request was still in flight, and
// the weave-heavy sample is compared with a sequential weave outside
// the timed window. It returns the number of failed checks.
func (d *loadgen) finish() (failed int, errs []string) {
	for _, id := range d.unknown {
		if !d.known[id] {
			failed++
			errs = append(errs, fmt.Sprintf("runs: listed run %s was not created by this benchmark", id))
		}
	}
	for _, s := range d.samples {
		minimal, sound, err := sequentialWeave(heavySource(d.seed, s.client, s.k))
		switch {
		case err != nil:
			errs = append(errs, fmt.Sprintf("weave-heavy oracle: %v", err))
		case !slices.Equal(minimal, s.minimal) || sound != s.sound:
			errs = append(errs, fmt.Sprintf("weave-heavy request %d/%d differs from the sequential weave", s.client, s.k))
		default:
			continue
		}
		failed++
	}
	return failed, errs
}

// percentile is the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a q share of the samples at or below
// it. With n >= minTail, at least ten samples lie beyond p95.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond counts the samples strictly after the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// opSummary merges the clients' samples of one operation.
type opSummary struct {
	n        int
	p50, p95 time.Duration
}

func summarize(stats []*clientStats) map[op]opSummary {
	out := map[op]opSummary{}
	for _, o := range allOps {
		var all []time.Duration
		for _, st := range stats {
			all = append(all, st.lat[o]...)
		}
		if len(all) == 0 {
			continue
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		out[o] = opSummary{n: len(all), p50: percentile(all, 0.50), p95: percentile(all, 0.95)}
	}
	return out
}

// postJSON posts v and decodes a 200 reply into out.
func postJSON(ctx context.Context, hc *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
