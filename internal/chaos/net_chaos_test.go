// The network-chaos property suite: seeded fault plans on the
// enactment fabric — drops, lost responses, duplicates, delays,
// partitions that heal (or never do) and a peer crash — with a proven
// recovery envelope. Every seeded plan must end one of exactly two
// ways within the enactment timeout plus slack:
//
//   - a Def.-5-valid merged trace whose EdgeMessages equals the plan's
//     PredictedCrossEdges exactly (retransmits absorbed by the
//     (from, seq) idempotency cache, never double-counted), or
//   - a typed failure — a PartitionedPeerError naming the unreachable
//     peer, or a context deadline/cancellation — never a hang, never a
//     goroutine leak, never a duplicate note application.
//
// A failing seed replays with go test ./internal/chaos -chaos.seed=N.
package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dscweaver/internal/chaos"
	"dscweaver/internal/chaos/leak"
	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/enact"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/server"
	"dscweaver/internal/weave"
	"dscweaver/internal/workload"
)

// newChaosServer boots a dscweaverd with the given fabric wrap and
// tears it down (listener, then maintenance loop and pools) in
// cleanup, so leak.Check holds.
func newChaosServer(t *testing.T, wrap func(string, http.RoundTripper) http.RoundTripper) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{FabricWrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts
}

// postEnact posts one enactment and decodes the response. Run
// failures are in-band (Error set); only transport/encode failures
// return an error, so this is safe to call off the test goroutine.
func postEnact(url string, req *server.EnactRequest) (*server.EnactResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url+"/v1/enact", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("enact: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var er server.EnactResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return nil, err
	}
	return &er, nil
}

// scrapeCounterSum reads /metrics and sums every sample of one
// counter family across its label sets.
func scrapeCounterSum(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	total := 0.0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// typedFailure reports whether an in-band enactment error is one of
// the envelope's allowed shapes: a named partitioned peer, the engine
// deadline, or the cancellation cascade a failed peer triggers.
func typedFailure(msg string) bool {
	for _, want := range []string{"partitioned", "context deadline exceeded", "context canceled"} {
		if strings.Contains(msg, want) {
			return true
		}
	}
	return false
}

// TestChaosNetEnvelope is the recovery-envelope property: a 12-seed
// sweep of mixed fault plans (budgeted drops and losses, probabilistic
// duplicates and delays, partitions healing at 400ms on every fourth
// seed, never healing on every fifth) over a real two-process
// enactment. Whatever the seed injects, the run must end inside the
// envelope — valid-and-exact or typed — with no goroutine left behind.
func TestChaosNetEnvelope(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		t.Cleanup(http.DefaultClient.CloseIdleConnections)

		var f chaos.LinkFault
		switch seed % 3 {
		case 0:
			f.DropN, f.DupP = 2, 0.4
		case 1:
			f.LoseN, f.DelayP, f.MaxDelay = 2, 0.4, 15*time.Millisecond
		default:
			f.DropN, f.LoseN = 1, 1
			f.DupP, f.DelayP, f.MaxDelay = 0.25, 0.25, 10*time.Millisecond
		}
		if seed%4 == 0 {
			f.Partition = 400 * time.Millisecond
		}
		neverHeals := seed%5 == 0
		if neverHeals {
			f.Partition = -time.Second
		}
		net := chaos.NewNet(chaos.NetConfig{
			Seed:  seed,
			Links: map[chaos.Link]chaos.LinkFault{{From: "*", To: "*"}: f},
		})
		coord := newChaosServer(t, net.RoundTripper)
		peer := newChaosServer(t, net.RoundTripper)

		req := &server.EnactRequest{
			SimulateRequest: server.SimulateRequest{
				WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
				Branches:     map[string]string{"if_au": "T"},
				TimeoutMS:    4000,
			},
			Peers:   []string{peer.URL},
			SelfURL: coord.URL,
		}
		start := time.Now()
		er, err := postEnact(coord.URL, req)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if elapsed > 12*time.Second {
			t.Errorf("seed %d: enactment took %v — outside the 4s timeout envelope", seed, elapsed)
		}

		st := net.Stats()
		t.Logf("seed %d: plan %s elapsed=%v stats=%+v error=%q",
			seed, net.Plan(), elapsed.Round(time.Millisecond), st, er.Error)
		if er.Error == "" {
			if !er.Valid {
				t.Errorf("seed %d: completed run failed Def. 5 validation", seed)
			}
			if er.EdgeMessages != er.PredictedCrossEdges {
				t.Errorf("seed %d: %d edge messages, plan predicts %d — retransmits leaked into the count",
					seed, er.EdgeMessages, er.PredictedCrossEdges)
			}
			seen := map[string]bool{}
			for _, id := range er.Executed {
				if seen[id] {
					t.Errorf("seed %d: activity %s executed twice — duplicate note applied", seed, id)
				}
				seen[id] = true
			}
			// A lost response forces a retransmit; a completed run proves
			// the receiver absorbed it via the (from, seq) cache — and the
			// metric must show it.
			if st.Lost > 0 {
				absorbed := scrapeCounterSum(t, coord.URL, "transport_retransmit_total") +
					scrapeCounterSum(t, peer.URL, "transport_retransmit_total")
				if absorbed == 0 {
					t.Errorf("seed %d: %d responses lost but transport_retransmit_total is 0", seed, st.Lost)
				}
			}
		} else if !typedFailure(er.Error) {
			t.Errorf("seed %d: failure is not typed (want partitioned peer or deadline): %s", seed, er.Error)
		}
		if neverHeals {
			if er.Error == "" {
				t.Errorf("seed %d: run completed across a never-healing partition (stats %+v)", seed, st)
			} else if !strings.Contains(er.Error, "partitioned") {
				t.Errorf("seed %d: want a PartitionedPeerError naming the peer, got: %s", seed, er.Error)
			}
		}
	})
}

// TestChaosNetPartitionHeal sweeps the heal time of a full partition
// (plus two lost responses per link, so recovery exercises the
// retransmit path) against a fixed 4s enactment timeout whose fabric
// retry budget is 3s. Healing inside the budget must complete with
// exact edge accounting; never healing must fail with the typed
// PartitionedPeerError inside the envelope. The logged rows are the
// EXPERIMENTS.md partition-heal table.
func TestChaosNetPartitionHeal(t *testing.T) {
	cases := []struct {
		name   string
		heal   time.Duration
		wantOK bool
	}{
		{"heal=300ms", 300 * time.Millisecond, true},
		{"heal=1200ms", 1200 * time.Millisecond, true},
		{"never", -time.Second, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			leak.Check(t)
			t.Cleanup(http.DefaultClient.CloseIdleConnections)
			net := chaos.NewNet(chaos.NetConfig{
				Seed: 1,
				Links: map[chaos.Link]chaos.LinkFault{
					{From: "*", To: "*"}: {Partition: tc.heal, LoseN: 2},
				},
			})
			coord := newChaosServer(t, net.RoundTripper)
			peer := newChaosServer(t, net.RoundTripper)
			req := &server.EnactRequest{
				SimulateRequest: server.SimulateRequest{
					WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
					Branches:     map[string]string{"if_au": "T"},
					TimeoutMS:    4000,
				},
				Peers:   []string{peer.URL},
				SelfURL: coord.URL,
			}
			start := time.Now()
			er, err := postEnact(coord.URL, req)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			st := net.Stats()
			outcome := "completed"
			if er.Error != "" {
				outcome = "failed"
			}
			absorbed := scrapeCounterSum(t, coord.URL, "transport_retransmit_total") +
				scrapeCounterSum(t, peer.URL, "transport_retransmit_total")
			t.Logf("heal=%v outcome=%s elapsed=%v refused_sends=%d healed_links=%d retransmits_absorbed=%.0f edge_msgs=%d/%d",
				tc.heal, outcome, elapsed.Round(time.Millisecond),
				st.Partitioned, st.Healed, absorbed, er.EdgeMessages, er.PredictedCrossEdges)

			if tc.wantOK {
				if er.Error != "" {
					t.Fatalf("heal %v inside the 3s budget failed: %s", tc.heal, er.Error)
				}
				if !er.Valid {
					t.Error("healed run failed Def. 5 validation")
				}
				if er.EdgeMessages != er.PredictedCrossEdges {
					t.Errorf("healed run sent %d edge messages, plan predicts %d",
						er.EdgeMessages, er.PredictedCrossEdges)
				}
				if st.Partitioned == 0 {
					t.Error("partition refused no sends — the plan was never exercised")
				}
				if st.Healed == 0 {
					t.Error("no link recorded a heal")
				}
			} else {
				if er.Error == "" {
					t.Fatalf("never-healing partition completed (stats %+v)", st)
				}
				if !strings.Contains(er.Error, "partitioned") {
					t.Errorf("want a typed PartitionedPeerError, got: %s", er.Error)
				}
				if elapsed > 12*time.Second {
					t.Errorf("typed failure took %v — outside the timeout envelope", elapsed)
				}
			}
		})
	}
}

// memFabric is a direct-dispatch fabric for wrapping with net.Fabric:
// Send invokes the receiver inline, so every duplicate and delayed
// delivery the chaos layer injects lands on the board exactly as sent.
type memFabric struct {
	mu   sync.Mutex
	recv map[string]func(enact.Note)
}

func (m *memFabric) Register(host string, deliver func(enact.Note)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recv == nil {
		m.recv = map[string]func(enact.Note){}
	}
	m.recv[host] = deliver
	return nil
}

func (m *memFabric) Send(host string, n enact.Note) error {
	m.mu.Lock()
	d := m.recv[host]
	m.mu.Unlock()
	if d == nil {
		return fmt.Errorf("memFabric: no receiver for %s", host)
	}
	d(n)
	return nil
}

func (m *memFabric) Close() {}

// TestChaosNetFabricDupReorder proves exactly-once note application at
// the board layer: every cross-partition note duplicated (DupP=1) and
// a quarter of them delayed out of order, yet the merged trace stays
// Def.-5-valid, EdgeMessages still equals the plan's CrossEdges (the
// counter charges intent, not deliveries), and the engines' idempotent
// applyRemote visibly absorbed the copies.
func TestChaosNetFabricDupReorder(t *testing.T) {
	leak.Check(t)
	w := workload.Layered(3, 3, 0.35, 7).WithDecisions(1).WithServices(2)
	res, err := weave.Run(context.Background(),
		weave.Input{Parsed: &weave.Parsed{Proc: w.Proc, Deps: w.Deps}}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	minimal := res.Minimize.Minimal
	plan, err := decentral.Place(minimal, decentral.Pin(w.Proc))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Hosts) < 2 {
		t.Fatal("placement produced one host; pick a seed with pinned services")
	}
	net := chaos.NewNet(chaos.NetConfig{
		Seed: 7,
		Links: map[chaos.Link]chaos.LinkFault{
			{From: "*", To: "*"}: {DupP: 1, DelayP: 0.25, MaxDelay: 5 * time.Millisecond},
		},
	})
	fab := net.Fabric(&memFabric{})
	defer fab.Close()
	reg := obs.NewRegistry()
	out, err := enact.Run(context.Background(), enact.Options{
		Plan:    plan,
		Set:     minimal,
		Guards:  res.Guards,
		Execs:   schedule.NoopExecutors(w.Proc, 0, func(core.ActivityID) string { return "T" }),
		Timeout: 30 * time.Second,
		Metrics: reg,
		Fabric:  fab,
	})
	if err != nil {
		t.Fatalf("enact under dup/reorder chaos: %v", err)
	}
	if out.Trace == nil {
		t.Fatal("no merged trace")
	}
	if err := out.Trace.Validate(res.Translated, res.Guards); err != nil {
		t.Errorf("merged trace fails Def. 5 under duplication: %v\n%s", err, out.Trace)
	}
	if out.Stats.EdgeMessages != out.Plan.CrossEdges {
		t.Errorf("EdgeMessages = %d, plan predicts %d — duplicates inflated the count",
			out.Stats.EdgeMessages, out.Plan.CrossEdges)
	}
	st := net.Stats()
	if st.Duplicated == 0 {
		t.Fatalf("DupP=1 injected no duplicates (stats %+v) — the fault layer is miswired", st)
	}
	if dups := reg.Counter("schedule_remote_dup_total").Value(); dups < st.Duplicated {
		t.Errorf("injected %d duplicate deliveries but boards absorbed only %d — a copy was applied twice",
			st.Duplicated, dups)
	}
}

// TestChaosNetPeerCrashRestart kills a peer mid-enactment — its
// listener and every live connection die — and requires the
// coordinator to fail typed within the envelope, not hang. A fresh
// peer on the same address then completes a clean enactment with exact
// edge accounting: the fabric recovers by construction, no state
// carries over.
func TestChaosNetPeerCrashRestart(t *testing.T) {
	leak.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	coord := newChaosServer(t, nil)

	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	peer1, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := &http.Server{Handler: peer1.Handler()}
	go hs1.Serve(ln)
	t.Cleanup(func() {
		hs1.Close()
		if err := peer1.Shutdown(); err != nil {
			t.Errorf("crashed peer shutdown: %v", err)
		}
	})

	req := &server.EnactRequest{
		SimulateRequest: server.SimulateRequest{
			WeaveRequest: server.WeaveRequest{Source: purchasingSource(t)},
			Branches:     map[string]string{"if_au": "T"},
			TimeoutMS:    3000,
			WorkUS:       100000, // ~100ms per activity: the crash lands mid-run
		},
		Peers:   []string{"http://" + addr},
		SelfURL: coord.URL,
	}
	type outcome struct {
		er  *server.EnactResponse
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		er, err := postEnact(coord.URL, req)
		ch <- outcome{er, err}
	}()
	time.Sleep(300 * time.Millisecond)
	hs1.Close() // crash: the listener and every in-flight connection die

	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("coordinator request failed out of band: %v", o.err)
		}
		if o.er.Error == "" {
			t.Error("enactment reported success across a crashed peer")
		} else {
			t.Logf("crash outcome: %s", o.er.Error)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("enactment hung past the envelope after the peer crash")
	}

	// Restart on the same address; the next enactment must be clean.
	var ln2 stdnet.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln2, err = stdnet.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	peer2, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: peer2.Handler()}
	go hs2.Serve(ln2)
	t.Cleanup(func() {
		hs2.Close()
		if err := peer2.Shutdown(); err != nil {
			t.Errorf("restarted peer shutdown: %v", err)
		}
	})

	clean := *req
	clean.WorkUS = 0
	clean.TimeoutMS = 8000
	er, err := postEnact(coord.URL, &clean)
	if err != nil {
		t.Fatal(err)
	}
	if er.Error != "" {
		t.Fatalf("enactment against the restarted peer failed: %s", er.Error)
	}
	if !er.Valid {
		t.Error("post-restart trace failed Def. 5 validation")
	}
	if er.EdgeMessages != er.PredictedCrossEdges {
		t.Errorf("post-restart run sent %d edge messages, plan predicts %d",
			er.EdgeMessages, er.PredictedCrossEdges)
	}
}

// TestNetSpecParse pins the -chaos-net CLI syntax.
func TestNetSpecParse(t *testing.T) {
	n, err := chaos.ParseNetSpec("*>*:partition=1500ms;lose=2,a>b:drop=1;dup=0.5;delayp=0.3;delay=20ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	if n.Seed() != 7 {
		t.Errorf("Seed() = %d, want 7", n.Seed())
	}
	plan := n.Plan()
	for _, want := range []string{"*>*:", "a>b:", "partition=1.5s", "lose=2", "drop=1", "dup=0.5", "delayp=0.3", "delay=20ms"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Plan() = %q, missing %q", plan, want)
		}
	}
	for _, bad := range []string{
		"",              // no plans at all
		"nolink",        // missing fault list
		"a>b",           // ditto
		">b:drop=1",     // empty from
		"a>:drop=1",     // empty to
		"a>b:bogus=1",   // unknown fault
		"a>b:drop=x",    // unparsable value
		"a>b:partition", // fault without value
	} {
		if _, err := chaos.ParseNetSpec(bad, 1); err == nil {
			t.Errorf("ParseNetSpec(%q) accepted a malformed spec", bad)
		}
	}
}
