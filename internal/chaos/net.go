// Package chaos is a deterministic, seed-replayable fault layer for
// the enactment fabric, injected on the note path; dscweaverd arms it
// with -chaos-net (ParseNetSpec). RoundTripper wraps
// HTTPTransport.Client for multi-process enactments, with one fault
// plan keyed by directed (from, to) host link: drops fail the POST
// before it leaves (the sender's retry loop classifies them transient),
// losses deliver the frame but discard the response (forcing a
// retransmit the receiver's (from, seq) idempotency cache must absorb),
// duplicates re-send a delivered frame verbatim, delays stall the link,
// and a partition blackholes it from the first send until the window
// elapses — never, when the window is negative. The chaos suites drive
// the same plan through an in-process fabric wrapper and a fault
// injector for executors, bus handlers, pipeline stages, the minimizer
// and the store's files; both are test code (export_test.go).
//
// Determinism: every decision is a pure function of (seed, domain,
// link, attempt), computed by hashing rather than drawn from a shared
// PRNG stream, so a failing seed replays identically regardless of
// goroutine interleaving. Budgeted faults (drop-N, lose-N) consume
// per-link counters under a lock, which keeps the *count* exact even
// when the draw order races.
package chaos

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Link names one directed fabric link. "*" on either side is a
// wildcard; resolution prefers exact over wildcard, from-side over
// to-side.
type Link struct {
	From, To string
}

func (l Link) String() string { return l.From + ">" + l.To }

// LinkFault is the fault plan for one link. The zero value injects
// nothing.
type LinkFault struct {
	// DropN fails the first N sends outright: the frame never reaches
	// the peer and the sender sees a transient network fault.
	DropN int
	// LoseN delivers the frame but discards the first N responses: the
	// sender retransmits into the receiver's idempotency cache.
	LoseN int
	// DupP re-sends a delivered frame with this probability; the
	// duplicate's response is discarded. The receiver must treat the
	// copy as a replay, not a second invocation.
	DupP float64
	// DelayP delays a send with this probability, uniform in
	// (0, MaxDelay] — the reordering knob for concurrent notes.
	DelayP   float64
	MaxDelay time.Duration
	// Partition blackholes the link starting at its first send: every
	// send inside the window fails, the first send after it heals the
	// link. Zero = no partition; negative = never heals.
	Partition time.Duration
}

func (f LinkFault) active() bool {
	return f.DropN > 0 || f.LoseN > 0 || f.DupP > 0 ||
		(f.DelayP > 0 && f.MaxDelay > 0) || f.Partition != 0
}

// NetConfig is one seeded network-fault plan.
type NetConfig struct {
	Seed  int64
	Links map[Link]LinkFault
}

// linkState is the mutable per-link budget: how many drop/lose tokens
// remain and when the partition window armed.
type linkState struct {
	attempts  int
	dropsLeft int
	losesLeft int
	armed     bool
	partFrom  time.Time
	healed    bool
}

// Net implements one NetConfig. Safe for concurrent use; one instance
// may wrap any number of transports so a plan spans every link of a
// run.
type Net struct {
	cfg NetConfig

	mu    sync.Mutex
	links map[Link]*linkState

	dropped     atomic.Int64
	lost        atomic.Int64
	duplicated  atomic.Int64
	delayed     atomic.Int64
	partitioned atomic.Int64
	healed      atomic.Int64
}

// NewNet builds the fault layer for one plan.
func NewNet(cfg NetConfig) *Net {
	return &Net{cfg: cfg, links: map[Link]*linkState{}}
}

// Seed returns the plan's seed (tests print it on failure).
func (n *Net) Seed() int64 { return n.cfg.Seed }

// resolve finds the fault plan for one directed link, most specific
// match first.
func (n *Net) resolve(from, to string) (LinkFault, bool) {
	for _, k := range []Link{
		{from, to}, {from, "*"}, {"*", to}, {"*", "*"},
	} {
		if f, ok := n.cfg.Links[k]; ok {
			return f, f.active()
		}
	}
	return LinkFault{}, false
}

// unitDraw is every injector's determinism rule: a uniform [0, 1)
// float that is a pure function of its inputs. FNV-1a stirs a trailing
// byte into the low bits only, and the [0, 1) scaling keeps the high
// 53 — without a finalizer every attempt on one key would draw the
// same value. One splitmix64 round pushes the attempt counter through
// the whole word.
func unitDraw(seed int64, domain, key string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d", seed, domain, key, attempt)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// netDraw is unitDraw for the network layer, keyed by link. The
// network domains are prefixed so they never share a stream with the
// injector's.
func netDraw(seed int64, domain string, l Link, attempt int) float64 {
	return unitDraw(seed, "net."+domain, l.String(), attempt)
}

// verdict is one send's fate, decided under the link lock so budget
// counters stay exact.
type verdict struct {
	drop      bool // fail before the peer sees anything
	lose      bool // deliver, then discard the response
	dup       bool // deliver, then re-send
	partition bool // inside a partition window
	delay     time.Duration
}

// decide claims the next attempt on the link and resolves its fate.
func (n *Net) decide(from, to string) (verdict, bool) {
	f, ok := n.resolve(from, to)
	if !ok {
		return verdict{}, false
	}
	l := Link{From: from, To: to}
	now := time.Now()
	n.mu.Lock()
	st := n.links[l]
	if st == nil {
		st = &linkState{dropsLeft: f.DropN, losesLeft: f.LoseN}
		n.links[l] = st
	}
	attempt := st.attempts
	st.attempts++
	var v verdict
	if f.Partition != 0 {
		if !st.armed {
			st.armed = true
			st.partFrom = now
		}
		if f.Partition < 0 || now.Sub(st.partFrom) < f.Partition {
			v.partition = true
		} else if !st.healed {
			st.healed = true
			n.healed.Add(1)
		}
	}
	if !v.partition && st.dropsLeft > 0 {
		st.dropsLeft--
		v.drop = true
	}
	if !v.partition && !v.drop && st.losesLeft > 0 {
		st.losesLeft--
		v.lose = true
	}
	n.mu.Unlock()
	if v.partition {
		n.partitioned.Add(1)
		return v, true
	}
	if v.drop {
		n.dropped.Add(1)
		return v, true
	}
	if f.DelayP > 0 && f.MaxDelay > 0 && netDraw(n.cfg.Seed, "delay", l, attempt) < f.DelayP {
		v.delay = time.Duration(netDraw(n.cfg.Seed, "delay_dur", l, attempt) * float64(f.MaxDelay))
		if v.delay <= 0 {
			v.delay = time.Millisecond
		}
	}
	if !v.lose && f.DupP > 0 && netDraw(n.cfg.Seed, "dup", l, attempt) < f.DupP {
		v.dup = true
	}
	return v, true
}

// RoundTripper wraps an HTTP transport's round tripper with this
// plan's faults for every link from the named sender; the destination
// is the request's URL host. Pass the result via http.Client to
// services.HTTPConfig.Client (or server.Config.FabricWrap). Inner nil
// takes http.DefaultTransport.
func (n *Net) RoundTripper(from string, inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &netRoundTripper{net: n, from: from, inner: inner}
}

type netRoundTripper struct {
	net   *Net
	from  string
	inner http.RoundTripper
}

func (rt *netRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	v, ok := rt.net.decide(rt.from, req.URL.Host)
	if !ok {
		return rt.inner.RoundTrip(req)
	}
	seed := rt.net.cfg.Seed
	switch {
	case v.partition:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("chaos: link %s>%s partitioned (seed %d)", rt.from, req.URL.Host, seed)
	case v.drop:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("chaos: link %s>%s dropped send (seed %d)", rt.from, req.URL.Host, seed)
	}
	if v.delay > 0 {
		rt.net.delayed.Add(1)
		t := time.NewTimer(v.delay)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	// Duplication needs a replayable body; clone before the original
	// send consumes it.
	var dup *http.Request
	if v.dup && req.GetBody != nil {
		body, err := req.GetBody()
		if err == nil {
			dup = req.Clone(req.Context())
			dup.Body = body
		}
	}
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if dup != nil {
		rt.net.duplicated.Add(1)
		if dresp, derr := rt.inner.RoundTrip(dup); derr == nil {
			io.Copy(io.Discard, io.LimitReader(dresp.Body, 1<<20))
			dresp.Body.Close()
		}
	}
	if v.lose {
		rt.net.lost.Add(1)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: link %s>%s lost response (seed %d)", rt.from, req.URL.Host, seed)
	}
	return resp, nil
}

// ParseNetSpec parses the -chaos-net CLI syntax into a plan:
//
//	spec  := plan ("," plan)*
//	plan  := from ">" to ":" fault (";" fault)*
//	fault := "drop=" N | "lose=" N | "dup=" P | "delayp=" P |
//	         "delay=" DUR | "partition=" DUR
//
// "*" wildcards either side of a link; a negative partition duration
// never heals. Example: '*>*:partition=1500ms;lose=2'.
func ParseNetSpec(spec string, seed int64) (*Net, error) {
	cfg := NetConfig{Seed: seed, Links: map[Link]LinkFault{}}
	for _, plan := range strings.Split(spec, ",") {
		plan = strings.TrimSpace(plan)
		if plan == "" {
			continue
		}
		link, faults, ok := strings.Cut(plan, ":")
		if !ok {
			return nil, fmt.Errorf("chaos net spec %q: missing ':' fault list", plan)
		}
		from, to, ok := strings.Cut(link, ">")
		if !ok || from == "" || to == "" {
			return nil, fmt.Errorf("chaos net spec %q: link must be from>to", plan)
		}
		var f LinkFault
		for _, fault := range strings.Split(faults, ";") {
			key, val, ok := strings.Cut(strings.TrimSpace(fault), "=")
			if !ok {
				return nil, fmt.Errorf("chaos net spec %q: fault %q must be key=value", plan, fault)
			}
			var err error
			switch key {
			case "drop":
				f.DropN, err = strconv.Atoi(val)
			case "lose":
				f.LoseN, err = strconv.Atoi(val)
			case "dup":
				f.DupP, err = strconv.ParseFloat(val, 64)
			case "delayp":
				f.DelayP, err = strconv.ParseFloat(val, 64)
			case "delay":
				f.MaxDelay, err = time.ParseDuration(val)
			case "partition":
				f.Partition, err = time.ParseDuration(val)
			default:
				return nil, fmt.Errorf("chaos net spec %q: unknown fault %q", plan, key)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos net spec %q: %s: %w", plan, key, err)
			}
		}
		if f.DelayP > 0 && f.MaxDelay <= 0 {
			f.MaxDelay = 50 * time.Millisecond
		}
		cfg.Links[Link{From: from, To: to}] = f
	}
	if len(cfg.Links) == 0 {
		return nil, fmt.Errorf("chaos net spec %q: no link plans", spec)
	}
	return NewNet(cfg), nil
}

// Plan renders the config deterministically for logs.
func (n *Net) Plan() string {
	keys := make([]Link, 0, len(n.cfg.Links))
	for k := range n.cfg.Links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		f := n.cfg.Links[k]
		parts = append(parts, fmt.Sprintf("%s:drop=%d;lose=%d;dup=%g;delayp=%g;delay=%s;partition=%s",
			k, f.DropN, f.LoseN, f.DupP, f.DelayP, f.MaxDelay, f.Partition))
	}
	return strings.Join(parts, ",")
}
