// The decentralized-enactment property suite. For a sweep of random layered
// workloads (and the paper's purchasing process, exercised from the
// server e2e suite), executing the minimal set across one engine per
// decentral.Place partition must be observationally equivalent to the
// single-engine run: the merged trace validates against the *global*
// pre-minimization activity-level set (Def. 5), the executed/skipped
// partition and every decision outcome match, and the cross-node
// message count equals the plan's predicted CrossEdges — the
// decentral.Comparison numbers measured live instead of statically.
// Delaying and reordering notes on the fabric must not change any of it.
package enact_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/enact"
	"dscweaver/internal/schedule"
	"dscweaver/internal/weave"
	"dscweaver/internal/workload"
)

// branchFor resolves every decision deterministically from (seed, id)
// alone — node-independent, so single-engine and decentralized runs
// agree by construction.
func branchFor(proc *core.Process, seed int64) func(core.ActivityID) string {
	return func(id core.ActivityID) string {
		act, ok := proc.Activity(id)
		if !ok || len(act.BranchDomain()) == 0 {
			return ""
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", seed, id)
		dom := act.BranchDomain()
		return dom[h.Sum64()%uint64(len(dom))]
	}
}

func sortedIDs(ids []core.ActivityID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	sort.Strings(out)
	return out
}

func equalIDs(a, b []core.ActivityID) bool {
	as, bs := sortedIDs(a), sortedIDs(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestDecentralEquivalence sweeps 32 random layered workloads of
// varying shape, most with pinned service hosts so the placement is
// genuinely multi-host.
func TestDecentralEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			w := workload.Layered(3+rng.Intn(3), 3+rng.Intn(3), 0.25+0.2*rng.Float64(), seed).
				WithShortcuts(2 + rng.Intn(4)).
				WithDecisions(rng.Intn(3))
			if seed%8 != 0 { // a few seeds stay single-host on purpose
				w = w.WithServices(2 + rng.Intn(3))
			}
			checkEquivalence(t, w.Proc, &weave.Parsed{Proc: w.Proc, Deps: w.Deps}, seed)
		})
	}
}

// delayFabric delivers about half the notes late, up to 2 ms, from a
// goroutine of their own, so notes arrive out of order. Close waits for
// the late ones before closing the inner fabric.
type delayFabric struct {
	enact.Fabric
	mu   sync.Mutex
	rng  *rand.Rand
	late sync.WaitGroup
}

func (f *delayFabric) Send(host string, note enact.Note) error {
	f.mu.Lock()
	delay := time.Duration(f.rng.Int63n(int64(4 * time.Millisecond)))
	f.mu.Unlock()
	if delay > 2*time.Millisecond {
		return f.Fabric.Send(host, note)
	}
	f.late.Add(1)
	go func() {
		defer f.late.Done()
		time.Sleep(delay)
		// A late note has no caller left to fail; a lost one shows as
		// a run that times out or a trace that does not validate.
		_ = f.Fabric.Send(host, note)
	}()
	return nil
}

func (f *delayFabric) Close() {
	f.late.Wait()
	f.Fabric.Close()
}

// checkEquivalence runs the pipeline, executes the minimal set once on
// a single engine and once decentralized with notes delayed and
// reordered, and asserts the equivalence properties.
func checkEquivalence(t *testing.T, proc *core.Process, parsed *weave.Parsed, seed int64) {
	t.Helper()
	ctx := context.Background()
	res, err := weave.Run(ctx, weave.Input{Parsed: parsed}, weave.Options{})
	if err != nil {
		t.Fatalf("weave: %v", err)
	}
	minimal := res.Minimize.Minimal
	plan, err := decentral.Place(minimal, decentral.Pin(proc))
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	execs := schedule.NoopExecutors(proc, 0, branchFor(proc, seed))

	single, err := schedule.New(minimal, execs, schedule.Options{
		Guards: res.Guards, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("single engine: %v", err)
	}
	tr1, err := single.Run(ctx)
	if err != nil {
		t.Fatalf("single run: %v", err)
	}
	if err := tr1.Validate(res.Translated, res.Guards); err != nil {
		t.Fatalf("single trace invalid: %v", err)
	}

	fab := &delayFabric{Fabric: enact.NewLocalFabric(), rng: rand.New(rand.NewSource(seed))}
	defer fab.Close()
	out, err := enact.Run(ctx, enact.Options{
		Plan:    plan,
		Set:     minimal,
		Guards:  res.Guards,
		Execs:   execs,
		Timeout: 30 * time.Second,
		Fabric:  fab,
	})
	if err != nil {
		t.Fatalf("enact (seed %d, hosts %v): %v", seed, plan.Hosts, err)
	}
	tr2 := out.Trace
	if tr2 == nil {
		t.Fatal("full enact run returned no merged trace")
	}

	// Def. 5: the merged trace validates against the global
	// pre-minimization activity-level set, like the single-engine one.
	if err := tr2.Validate(res.Translated, res.Guards); err != nil {
		t.Errorf("seed %d: merged trace fails global validation: %v\n%s", seed, err, tr2)
	}
	// Observational equivalence: same executed set, same skipped set,
	// same decision outcomes. (Literal sequence numbers differ between
	// any two runs of a concurrent engine; the S/R/F *orderings* both
	// satisfy the same global constraint set, which Validate pins.)
	if !equalIDs(tr1.Executed(), tr2.Executed()) {
		t.Errorf("seed %d: executed sets differ:\nsingle:     %v\ndecentral: %v",
			seed, sortedIDs(tr1.Executed()), sortedIDs(tr2.Executed()))
	}
	if !equalIDs(tr1.SkippedActivities(), tr2.SkippedActivities()) {
		t.Errorf("seed %d: skipped sets differ:\nsingle:     %v\ndecentral: %v",
			seed, sortedIDs(tr1.SkippedActivities()), sortedIDs(tr2.SkippedActivities()))
	}
	o1, o2 := tr1.Outcomes(), tr2.Outcomes()
	if len(o1) != len(o2) {
		t.Errorf("seed %d: outcome counts differ: %v vs %v", seed, o1, o2)
	}
	for d, b := range o1 {
		if o2[d] != b {
			t.Errorf("seed %d: decision %s: single %q, decentral %q", seed, d, b, o2[d])
		}
	}
	// Message economics: exactly one note per cross-partition edge —
	// the live measurement of the decentral.Comparison prediction.
	if out.Stats.EdgeMessages != out.Plan.CrossEdges {
		t.Errorf("seed %d: sent %d edge messages, plan predicts %d cross edges",
			seed, out.Stats.EdgeMessages, out.Plan.CrossEdges)
	}
}

// TestMergeDeterministic: merging the same notes in any input order
// yields the identical trace — the stamp/host/seq ordering is total.
func TestMergeDeterministic(t *testing.T) {
	w := workload.Layered(4, 4, 0.3, 7).WithServices(2)
	res, err := weave.Run(context.Background(),
		weave.Input{Parsed: &weave.Parsed{Proc: w.Proc, Deps: w.Deps}}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := decentral.Place(res.Minimize.Minimal, decentral.Pin(w.Proc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := enact.Run(context.Background(), enact.Options{
		Plan: plan, Set: res.Minimize.Minimal, Guards: res.Guards,
		Execs:   schedule.NoopExecutors(w.Proc, 0, nil),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := enact.Merge(w.Proc, out.Began, out.Ended, out.Notes)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]enact.Note(nil), out.Notes...)
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		again, err := enact.Merge(w.Proc, out.Began, out.Ended, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := base.MarshalJSON()
		b2, _ := again.MarshalJSON()
		if string(b1) != string(b2) {
			t.Fatalf("trial %d: merge is input-order sensitive:\n%s\nvs\n%s", trial, b1, b2)
		}
	}
	// A lost note must be loud, not a silently shorter trace.
	if len(out.Notes) > 0 {
		if _, err := enact.Merge(w.Proc, out.Began, out.Ended, out.Notes[:len(out.Notes)-1]); err == nil {
			t.Error("merge of an incomplete note stream did not error")
		}
	}
}

// TestPartialRunNeedsFabric: a Hosts subset without an external fabric
// is a configuration error, not a silent partial merge.
func TestPartialRunNeedsFabric(t *testing.T) {
	w := workload.Layered(3, 3, 0.3, 5).WithServices(2)
	res, err := weave.Run(context.Background(),
		weave.Input{Parsed: &weave.Parsed{Proc: w.Proc, Deps: w.Deps}}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := decentral.Place(res.Minimize.Minimal, decentral.Pin(w.Proc))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Hosts) < 2 {
		t.Skip("placement produced one host")
	}
	_, err = enact.Run(context.Background(), enact.Options{
		Plan: plan, Set: res.Minimize.Minimal, Guards: res.Guards,
		Execs: schedule.NoopExecutors(w.Proc, 0, nil),
		Hosts: plan.Hosts[:1],
	})
	if err == nil {
		t.Fatal("partial run without a fabric did not error")
	}
}

// TestLocalFabricDispatchesInline: the in-process fabric hands a note
// to the target's receiver before Send returns, and refuses a host
// registered twice or never registered.
func TestLocalFabricDispatchesInline(t *testing.T) {
	fab := enact.NewLocalFabric()
	defer fab.Close()
	var got []enact.Note
	if err := fab.Register("a", func(n enact.Note) { got = append(got, n) }); err != nil {
		t.Fatal(err)
	}
	if err := fab.Register("a", func(enact.Note) {}); err == nil {
		t.Error("second registration of host a accepted")
	}
	n := enact.Note{Host: "b", Note: schedule.Note{Activity: "x", Kind: schedule.NoteFinish}}
	if err := fab.Send("a", n); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Activity != "x" || got[0].Host != "b" {
		t.Fatalf("receiver saw %+v after Send returned, want the one note", got)
	}
	if err := fab.Send("nowhere", n); err == nil {
		t.Error("send to an unregistered host accepted")
	}
}

// TestRunDefaultsToLocalFabric: with no Fabric, a full run enacts over
// NewLocalFabric and still sends one note per cross edge.
func TestRunDefaultsToLocalFabric(t *testing.T) {
	w := workload.Layered(3, 3, 0.35, 7).WithDecisions(1).WithServices(2)
	res, err := weave.Run(context.Background(),
		weave.Input{Parsed: &weave.Parsed{Proc: w.Proc, Deps: w.Deps}}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := decentral.Place(res.Minimize.Minimal, decentral.Pin(w.Proc))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Hosts) < 2 {
		t.Fatal("placement produced one host; pick a seed with pinned services")
	}
	out, err := enact.Run(context.Background(), enact.Options{
		Plan: plan, Set: res.Minimize.Minimal, Guards: res.Guards,
		Execs:   schedule.NoopExecutors(w.Proc, 0, func(core.ActivityID) string { return "T" }),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Trace.Validate(res.Translated, res.Guards); err != nil {
		t.Errorf("merged trace fails Def. 5: %v", err)
	}
	if out.Stats.EdgeMessages != out.Plan.CrossEdges {
		t.Errorf("EdgeMessages = %d, plan predicts %d", out.Stats.EdgeMessages, out.Plan.CrossEdges)
	}
}
