// Retry-policy tests: classification (permanent = one attempt),
// exponential backoff with full jitter, the per-attempt timeout and
// the max-elapsed budget. Delay assertions read the event log's DurNS
// field — the delay the engine chose — not wall-clock measurements,
// so the tests stay robust on loaded CI machines.
package schedule

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/services"
)

// singleSet is a process with one opaque activity "a".
func singleSet() *core.ConstraintSet {
	p := core.NewProcess("retry")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	return core.NewConstraintSet(p)
}

// retryDelays extracts the chosen backoff (DurNS) of every retry event
// for one activity, in order.
func retryDelays(sink *obs.MemSink, id string) []time.Duration {
	var out []time.Duration
	for _, e := range sink.Events() {
		if e.Kind == obs.EvActivityRetry && e.Activity == id {
			out = append(out, time.Duration(e.DurNS))
		}
	}
	return out
}

func TestRetryPermanentFaultSingleAttempt(t *testing.T) {
	sc := singleSet()
	var calls atomic.Int32
	boom := errors.New("order rejected")
	execs := map[core.ActivityID]Executor{
		"a": func(ctx context.Context, act *core.Activity, vars *Vars) (Outcome, error) {
			calls.Add(1)
			return Outcome{}, services.Permanent(boom)
		},
	}
	sink := &obs.MemSink{}
	e, err := New(sc, execs, Options{
		Timeout: 5 * time.Second,
		Retry:   map[core.ActivityID]RetryPolicy{"a": {MaxAttempts: 5, Backoff: time.Millisecond}},
		Events:  sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(context.Background())
	if !errors.Is(err, boom) || !errors.Is(err, services.ErrPermanent) {
		t.Fatalf("err = %v, want the permanent fault", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("executor called %d times, want exactly 1 for a permanent fault", got)
	}
	if d := retryDelays(sink, "a"); len(d) != 0 {
		t.Errorf("retry events emitted for a permanent fault: %v", d)
	}
}

func TestRetryTransientExponentialJitteredBounded(t *testing.T) {
	sc := singleSet()
	var calls atomic.Int32
	execs := map[core.ActivityID]Executor{
		"a": func(ctx context.Context, act *core.Activity, vars *Vars) (Outcome, error) {
			calls.Add(1)
			return Outcome{}, fmt.Errorf("flaky backend: %w", services.ErrTransient)
		},
	}
	// MaxAttempts is set far above what the budget allows, so the loop
	// provably ends on MaxElapsed rather than the attempt count.
	policy := RetryPolicy{
		MaxAttempts: 40,
		Backoff:     time.Millisecond,
		Multiplier:  2,
		MaxBackoff:  8 * time.Millisecond,
		Jitter:      true,
		MaxElapsed:  25 * time.Millisecond,
	}
	sink := &obs.MemSink{}
	e, err := New(sc, execs, Options{
		Timeout:   5 * time.Second,
		Retry:     map[core.ActivityID]RetryPolicy{"a": policy},
		RetrySeed: 42,
		Events:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(context.Background())
	if !errors.Is(err, services.ErrTransient) {
		t.Fatalf("err = %v, want the transient fault surfaced", err)
	}
	delays := retryDelays(sink, "a")
	if len(delays) == 0 {
		t.Fatal("no retry events recorded")
	}
	if int(calls.Load()) != len(delays)+1 {
		t.Errorf("executor called %d times with %d retries recorded", calls.Load(), len(delays))
	}
	var sum time.Duration
	for k, d := range delays {
		// Unjittered envelope for the delay after attempt k+1.
		bound := policy.delay(k + 1)
		if d < 0 || d > bound {
			t.Errorf("retry %d: delay %v outside jitter envelope [0, %v]", k+1, d, bound)
		}
		sum += d
	}
	if sum > policy.MaxElapsed {
		t.Errorf("emitted delays sum to %v, exceeding the %v budget", sum, policy.MaxElapsed)
	}
	// The loop must have ended on the budget, not by exhausting the
	// generous 40-attempt allowance, and the error must say so.
	if len(delays) >= policy.MaxAttempts-1 {
		t.Errorf("all %d attempts ran; budget never engaged", policy.MaxAttempts)
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("err = %v, want a retry-budget diagnostic", err)
	}
}

// TestRetrySeedDrawsSameJitterSequence: an engine seeds no jitter
// source until its first draw, and a given RetrySeed still draws the
// sequence math/rand gives for that seed, engine after engine.
func TestRetrySeedDrawsSameJitterSequence(t *testing.T) {
	for engine := 0; engine < 2; engine++ {
		e, err := New(singleSet(), nil, Options{RetrySeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if e.rnd.rng != nil {
			t.Fatal("New seeded a jitter source before any draw")
		}
		ref := rand.New(rand.NewSource(42))
		for i := 1; i <= 16; i++ {
			d := time.Duration(i) * time.Millisecond
			want := time.Duration(ref.Int63n(int64(d) + 1))
			if got := e.rnd.jitter(d); got != want {
				t.Fatalf("engine %d draw %d: jitter(%v) = %v, want %v", engine, i, d, got, want)
			}
		}
	}
}

// TestRetryExponentialDelaysDeterministic pins the unjittered ladder:
// 1, 2, 4, 8, 8, 8 ms under Backoff=1ms, Multiplier=2, MaxBackoff=8ms.
func TestRetryExponentialDelaysDeterministic(t *testing.T) {
	p := RetryPolicy{Backoff: time.Millisecond, Multiplier: 2, MaxBackoff: 8 * time.Millisecond}
	want := []time.Duration{1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := p.delay(i + 1); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	fixed := RetryPolicy{Backoff: 3 * time.Millisecond}
	for i := 1; i <= 4; i++ {
		if got := fixed.delay(i); got != 3*time.Millisecond {
			t.Errorf("fixed delay(%d) = %v, want 3ms (back-compat)", i, got)
		}
	}
}

func TestRetryPerAttemptTimeout(t *testing.T) {
	sc := singleSet()
	var calls atomic.Int32
	execs := map[core.ActivityID]Executor{
		"a": func(ctx context.Context, act *core.Activity, vars *Vars) (Outcome, error) {
			calls.Add(1)
			// A hung backend: only the per-attempt deadline frees us.
			<-ctx.Done()
			return Outcome{}, ctx.Err()
		},
	}
	sink := &obs.MemSink{}
	e, err := New(sc, execs, Options{
		Timeout: 10 * time.Second,
		Retry: map[core.ActivityID]RetryPolicy{"a": {
			MaxAttempts: 3, PerAttempt: 10 * time.Millisecond,
		}},
		Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = e.Run(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want per-attempt DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("executor called %d times, want 3 (deadline faults are transient)", got)
	}
	if len(retryDelays(sink, "a")) != 2 {
		t.Errorf("retries = %d, want 2", len(retryDelays(sink, "a")))
	}
	// Run must end on per-attempt deadlines (~30ms), not the 10s run
	// timeout — generous bound for slow CI.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v; per-attempt timeout did not bound attempts", elapsed)
	}
}

// TestRetryClassifierOverride: a custom classifier can declare any
// error permanent.
func TestRetryClassifierOverride(t *testing.T) {
	sc := singleSet()
	var calls atomic.Int32
	boom := errors.New("boom")
	execs := map[core.ActivityID]Executor{
		"a": func(ctx context.Context, act *core.Activity, vars *Vars) (Outcome, error) {
			calls.Add(1)
			return Outcome{}, boom
		},
	}
	e, err := New(sc, execs, Options{
		Timeout: 5 * time.Second,
		Retry: map[core.ActivityID]RetryPolicy{"a": {
			MaxAttempts: 4,
			Classify:    func(error) FaultClass { return FaultPermanent },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("executor called %d times, want 1", got)
	}
}
