// Seed-replayable chaos property suite. Each test sweeps a set of
// seeds (default 12); a failing seed is replayed in isolation with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=<N>
//
// The properties are invariants, not golden outputs: whatever faults a
// seed injects, the engine must yield a Def.-5-valid partial trace and
// leak no goroutines, the minimizer must produce a bit-identical
// minimal set when uncancelled, the bus must deliver exactly one
// callback per invocation and drain cleanly through a fault storm, and
// dscweaverd must stay live and drain cleanly mid-storm.
package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dscweaver/internal/chaos"
	"dscweaver/internal/chaos/leak"
	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/petri"
	"dscweaver/internal/schedule"
	"dscweaver/internal/server"
	"dscweaver/internal/services"
	"dscweaver/internal/weave"
	"dscweaver/internal/workload"
)

var chaosSeed = flag.Int64("chaos.seed", 0, "replay a single chaos seed (0 = sweep the default seeds)")

// seeds returns the sweep: twelve distinct seeds, or just the one
// passed via -chaos.seed for replaying a failure.
func seeds() []int64 {
	if *chaosSeed != 0 {
		return []int64{*chaosSeed}
	}
	out := make([]int64, 12)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func forEachSeed(t *testing.T, f func(t *testing.T, seed int64)) {
	for _, seed := range seeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { f(t, seed) })
	}
}

// TestInjectorDeterministicBySeed: the injection pattern is a pure
// function of (seed, key, attempt) — two injectors with the same seed
// agree on every decision, and the probabilities are actually honored
// (all three fault classes fire somewhere across keys).
func TestInjectorDeterministicBySeed(t *testing.T) {
	cfg := chaos.Config{Seed: 7, PermanentP: 0.1, TransientP: 0.3, LatencyP: 0.2, MaxLatency: time.Microsecond}
	a, b := chaos.New(cfg), chaos.New(cfg)
	execsFor := func(in *chaos.Injector) map[core.ActivityID]schedule.Executor {
		execs := map[core.ActivityID]schedule.Executor{}
		for i := 0; i < 40; i++ {
			execs[core.ActivityID(fmt.Sprintf("a%d", i))] = func(context.Context, *core.Activity, *schedule.Vars) (schedule.Outcome, error) {
				return schedule.Outcome{}, nil
			}
		}
		return in.WrapExecutors(execs)
	}
	ea, eb := execsFor(a), execsFor(b)
	for id := range ea {
		for attempt := 0; attempt < 4; attempt++ {
			_, errA := ea[id](context.Background(), nil, nil)
			_, errB := eb[id](context.Background(), nil, nil)
			if (errA == nil) != (errB == nil) ||
				(errA != nil && errA.Error() != errB.Error()) {
				t.Fatalf("%s attempt %d: same seed disagrees: %v vs %v", id, attempt, errA, errB)
			}
		}
	}
	st := a.Stats()
	if st.Permanents == 0 || st.Transients == 0 || st.Latencies == 0 {
		t.Errorf("160 draws exercised no %+v class — probabilities miswired", st)
	}
	if st != b.Stats() {
		t.Errorf("stats diverge for the same seed: %+v vs %+v", st, b.Stats())
	}
}

// chaosRetry is the per-activity policy the engine suite runs under:
// enough attempts to ride out most transient streaks, tight enough to
// finish fast.
var chaosRetry = schedule.RetryPolicy{
	MaxAttempts: 5,
	Backoff:     200 * time.Microsecond,
	Multiplier:  2,
	MaxBackoff:  2 * time.Millisecond,
	Jitter:      true,
	PerAttempt:  5 * time.Second,
	MaxElapsed:  time.Second,
}

// TestChaosEngineInvariants: under seeded executor chaos (latency
// spikes, transient and permanent faults, possibly an external
// cancellation), every run — success, fault or cancel — must yield a
// trace that validates against the constraint set, attempt counts must
// respect the retry policy, a permanent fault must end its activity's
// attempts immediately, and no engine goroutine may outlive the run.
func TestChaosEngineInvariants(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		w := workload.Layered(4, 4, 0.3, seed).WithDecisions(2)
		sc, err := w.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(chaos.Config{
			Seed:       seed,
			PermanentP: 0.04, TransientP: 0.25,
			LatencyP: 0.3, MaxLatency: 2 * time.Millisecond,
			CancelP: 0.3, CancelWithin: 20 * time.Millisecond,
		})
		base := schedule.NoopExecutors(w.Proc, 0, func(core.ActivityID) string { return "T" })

		// Count executor attempts per activity, outside the injection, so
		// the counts include chaos-failed attempts.
		var mu sync.Mutex
		calls := map[core.ActivityID]int{}
		execs := map[core.ActivityID]schedule.Executor{}
		for id, inner := range inj.WrapExecutors(base) {
			id, inner := id, inner
			execs[id] = func(ctx context.Context, act *core.Activity, vars *schedule.Vars) (schedule.Outcome, error) {
				mu.Lock()
				calls[id]++
				mu.Unlock()
				return inner(ctx, act, vars)
			}
		}
		retry := map[core.ActivityID]schedule.RetryPolicy{}
		for _, act := range w.Proc.Activities() {
			retry[act.ID] = chaosRetry
		}
		eng, err := schedule.New(sc, execs, schedule.Options{
			Timeout:   30 * time.Second,
			Retry:     retry,
			RetrySeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if delay, ok := inj.CancelPlan("engine"); ok {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			ctx = cctx
		}
		tr, runErr := eng.Run(ctx)

		// Def.-5 validity of the (possibly partial) trace, whatever the
		// run outcome was.
		if err := tr.Validate(sc, nil); err != nil {
			t.Errorf("seed %d: trace invalid after runErr=%v: %v\n%s", seed, runErr, err, tr)
		}
		// Attempt-count discipline: never beyond MaxAttempts, and a
		// permanent chaos fault ends its activity's attempts on the spot
		// — even a mid-flight cancel cannot excuse an attempt after one.
		mu.Lock()
		defer mu.Unlock()
		for id, n := range calls {
			if n > chaosRetry.MaxAttempts {
				t.Errorf("seed %d: %s attempted %d times, policy caps at %d", seed, id, n, chaosRetry.MaxAttempts)
			}
			if at, ok := inj.PermanentAttempt("exec/" + string(id)); ok && n != at+1 {
				t.Errorf("seed %d: %s hit a permanent fault at attempt %d but made %d attempts, want %d",
					seed, id, at, n, at+1)
			}
		}
	})
}

// TestChaosMinimizeBitIdentical: stage-boundary latency chaos (no
// faults, no cancellation) must not change a single bit of the weave
// outcome — same minimal set, same removal order, same equivalence-
// check count as the chaos-free run.
func TestChaosMinimizeBitIdentical(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		run := func(hook func(context.Context, string) error) *weave.Result {
			t.Helper()
			w := workload.Layered(3, 4, 0.3, seed).WithShortcuts(4).WithDecisions(2)
			res, err := weave.Run(context.Background(),
				weave.Input{Parsed: &weave.Parsed{Proc: w.Proc, Deps: w.Deps}},
				weave.Options{StageHook: hook})
			if err != nil {
				t.Fatalf("seed %d: weave: %v", seed, err)
			}
			return res
		}
		base := run(nil)
		inj := chaos.New(chaos.Config{Seed: seed, LatencyP: 0.6, MaxLatency: time.Millisecond})
		jittered := run(inj.StageHook())

		if got, want := jittered.Minimize.Minimal.String(), base.Minimize.Minimal.String(); got != want {
			t.Errorf("seed %d: minimal set differs under stage latency:\nbase:\n%s\nchaos:\n%s", seed, want, got)
		}
		removed := func(r *weave.Result) string {
			var b bytes.Buffer
			for _, c := range r.Minimize.Removed {
				fmt.Fprintln(&b, c.String())
			}
			return b.String()
		}
		if removed(jittered) != removed(base) {
			t.Errorf("seed %d: removal order differs under stage latency", seed)
		}
		if jittered.Minimize.EquivalenceChecks != base.Minimize.EquivalenceChecks {
			t.Errorf("seed %d: EquivalenceChecks = %d, chaos-free run = %d",
				seed, jittered.Minimize.EquivalenceChecks, base.Minimize.EquivalenceChecks)
		}
	})
}

// TestChaosValidateParallelCancel: a seeded cancellation landing
// mid-exploration must abort the soundness kernel cleanly — the run
// either completes with the correct verdict or fails with
// context.Canceled, and no goroutine survives either way. The net is
// wide and decision-free and the reduction and fast path are forced
// off, so the full graph takes long enough that nearly every seed's
// cancel fires while the exploration is running.
func TestChaosValidateParallelCancel(t *testing.T) {
	w := workload.Layered(3, 8, 0.3, 11)
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Desugar(); err != nil {
		t.Fatal(err)
	}
	asc, err := core.TranslateServices(sc)
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		inj := chaos.New(chaos.Config{Seed: seed, CancelP: 1, CancelWithin: 50 * time.Millisecond})
		ctx := context.Background()
		if delay, ok := inj.CancelPlan("petri/parallel"); ok {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			ctx = cctx
		}
		rep, err := petri.ValidateOpt(ctx, asc, guards, petri.ExploreOptions{
			NoFastPath:   true,
			ReductionOff: true,
		})
		switch {
		case err == nil:
			if !rep.Sound {
				t.Errorf("seed %d: wide layered workload reported unsound: %+v", seed, rep)
			}
		case errors.Is(err, context.Canceled):
			// Aborted mid-exploration; leak.Check verifies nothing outlived it.
		default:
			t.Fatalf("seed %d: unexpected error: %v", seed, err)
		}
	})
}

// TestChaosBusFaultStorm: a concurrent invocation storm against
// breaker-guarded chaotic services. Every accepted invocation must
// yield exactly one callback (success, fault, or breaker fast-fail),
// Close must drain cleanly, fast-fails imply a recorded trip, and no
// bus goroutine may survive.
func TestChaosBusFaultStorm(t *testing.T) {
	const (
		nServices = 4
		nClients  = 8
		perClient = 25
	)
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		inj := chaos.New(chaos.Config{
			Seed:       seed,
			PermanentP: 0.1, TransientP: 0.25,
			LatencyP: 0.2, MaxLatency: time.Millisecond,
		})
		reg := obs.NewRegistry()
		bus := services.NewBus(0).Observe(reg, nil).
			WithBreaker(services.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Millisecond})
		for i := 0; i < nServices; i++ {
			cfg := services.Config{
				Name:  fmt.Sprintf("S%d", i),
				Ports: []string{"1"},
				Handle: func(c *services.Call) ([]services.Emit, error) {
					return []services.Emit{{Tag: "t", Payload: c.Payload}}, nil
				},
			}
			if err := bus.Register(inj.WrapService(cfg)); err != nil {
				t.Fatal(err)
			}
		}
		drained := make(chan int, 1)
		go func() {
			n := 0
			for range bus.Inbox() {
				n++
			}
			drained <- n
		}()
		var wg sync.WaitGroup
		for c := 0; c < nClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					svc := fmt.Sprintf("S%d", (c+i)%nServices)
					if err := bus.Invoke(svc, "1", i); err != nil {
						t.Errorf("seed %d: invoke %s: %v", seed, svc, err)
					}
				}
			}(c)
		}
		wg.Wait()
		bus.Close()

		total := nClients * perClient
		if got := <-drained; got != total {
			t.Errorf("seed %d: %d callbacks drained for %d invocations", seed, got, total)
		}
		delivered, faults := bus.Stats()
		if delivered != total {
			t.Errorf("seed %d: delivered %d, want %d", seed, delivered, total)
		}
		st := inj.Stats()
		if st.Transients+st.Permanents > int64(faults) {
			t.Errorf("seed %d: injected %d faults but bus recorded only %d",
				seed, st.Transients+st.Permanents, faults)
		}
		for i := 0; i < nServices; i++ {
			name := fmt.Sprintf("S%d", i)
			fastFails := reg.Counter("bus_breaker_fastfail_total", "service", name, "port", "1").Value()
			trips := reg.Counter("bus_breaker_trips_total", "service", name, "port", "1").Value()
			if fastFails > 0 && trips == 0 {
				t.Errorf("seed %d: %s fast-failed %d times without a recorded trip", seed, name, fastFails)
			}
		}
	})
}

func purchasingSource(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "dscl", "testdata", "purchasing.dscl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestChaosServerFaultStorm: dscweaverd under a concurrent storm of
// weave and simulate requests — some carrying injected service faults
// and an armed breaker, some cancelled mid-flight per the seed's plan
// — must keep /healthz green throughout, answer every surviving
// request with a well-defined status, drain cleanly on Shutdown, and
// leak nothing.
func TestChaosServerFaultStorm(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		t.Cleanup(http.DefaultClient.CloseIdleConnections)
		inj := chaos.New(chaos.Config{Seed: seed, CancelP: 0.3, CancelWithin: 10 * time.Millisecond})
		s, err := server.New(server.Config{
			WeaveConcurrency: 2,
			QueueWait:        5 * time.Second,
			RequestTimeout:   20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		src := purchasingSource(t)

		requests := []map[string]any{
			{"source": src},
			{"source": src},
			{"source": src, "branches": map[string]string{"if_au": "T"}},
			{"source": src, "branches": map[string]string{"if_au": "F"}},
			{"source": src, "branches": map[string]string{"if_au": "T"},
				"services": map[string]any{"Credit": map[string]any{"fail_on": map[string]string{"1": "chaos down"}}},
				"breaker":  map[string]any{"threshold": 1, "cooldown_ms": 60000}},
			{"source": src, "branches": map[string]string{"if_au": "T"},
				"services": map[string]any{"Credit": map[string]any{"fail_first": map[string]int{"1": 1}}}},
		}
		stop := make(chan struct{})
		healthErr := make(chan error, 1)
		go func() {
			defer close(healthErr)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					code := resp.StatusCode
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if code != http.StatusOK {
						healthErr <- fmt.Errorf("healthz %d mid-storm", code)
						return
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()

		var wg sync.WaitGroup
		for i, q := range requests {
			wg.Add(1)
			go func(i int, q map[string]any) {
				defer wg.Done()
				route := "/v1/simulate"
				if i < 2 {
					route = "/v1/weave"
				}
				body, err := json.Marshal(q)
				if err != nil {
					t.Error(err)
					return
				}
				ctx := context.Background()
				if delay, ok := inj.CancelPlan(fmt.Sprintf("req/%d", i)); ok {
					cctx, cancel := context.WithCancel(ctx)
					defer cancel()
					timer := time.AfterFunc(delay, cancel)
					defer timer.Stop()
					ctx = cctx
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+route, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return // the seed's plan cancelled this request
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("seed %d: request %d returned %d", seed, i, resp.StatusCode)
				}
			}(i, q)
		}
		wg.Wait()
		close(stop)
		if err, ok := <-healthErr; ok && err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := s.Shutdown(); err != nil {
			t.Errorf("seed %d: Shutdown after storm: %v", seed, err)
		}
	})
}
