// Cancellation property tests for MinimizeOpt: a canceled run aborts
// promptly with a *CancelError carrying the partial progress, leaks no
// worker goroutines, and an uncancelled run under a live (but unfired)
// cancelable context stays bit-identical to Minimize. Run with -race:
// the mid-run cancellation races the worker pool's abort path by
// construction.
package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/purchasing"
)

// cancelAfter returns a candidate hook that cancels a context after n
// candidate checks. The minimizer runs the hook synchronously before
// each check, so firing cancel from call n+1 gives a deterministic
// mid-run abort: that check's first ctx.Err() test sees it.
func cancelAfter(n int, cancel context.CancelFunc) core.CandidateHook {
	seen := 0
	return func(context.Context, core.Constraint) error {
		if seen++; seen == n+1 {
			cancel()
		}
		return nil
	}
}

func TestMinimizeCancelMidRun(t *testing.T) {
	_, asc, full, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for _, after := range []int{1, 5} {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := core.MinimizeOpt(ctx, asc, core.MinimizeOptions{
				Parallelism: workers, CandidateHook: cancelAfter(after, cancel),
			})
			cancel()
			if res != nil {
				t.Fatalf("workers=%d after=%d: canceled run returned a result", workers, after)
			}
			var ce *core.CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("workers=%d after=%d: err = %v, want *core.CancelError", workers, after, err)
			}
			if !errors.Is(err, context.Canceled) || !core.ErrCanceled(err) {
				t.Errorf("workers=%d after=%d: CancelError does not unwrap to context.Canceled: %v", workers, after, err)
			}
			// The abort lands at the next candidate boundary (or inside
			// the aborted check, which is then uncounted), so progress is
			// a strict prefix of the full run.
			if ce.Checked < after || ce.Checked >= full.EquivalenceChecks {
				t.Errorf("workers=%d after=%d: Checked = %d, want in [%d, %d)",
					workers, after, ce.Checked, after, full.EquivalenceChecks)
			}
			if ce.Removed > len(full.Removed) {
				t.Errorf("workers=%d after=%d: Removed = %d > full run's %d",
					workers, after, ce.Removed, len(full.Removed))
			}
		}
	}
}

func TestMinimizePreCanceled(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.MinimizeOpt(ctx, asc, core.MinimizeOptions{})
	if res != nil {
		t.Fatal("pre-canceled run returned a result")
	}
	var ce *core.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *core.CancelError", err)
	}
	if ce.Checked != 0 || ce.Removed != 0 {
		t.Errorf("pre-canceled run reported progress: checked=%d removed=%d", ce.Checked, ce.Removed)
	}
}

// awaitDeadline returns a candidate hook that holds the candidate loop
// at its first candidate until the context's deadline has fired, so
// the deadline lands before the run can finish on any machine, however
// fast the workload.
func awaitDeadline(done <-chan struct{}) core.CandidateHook {
	seen := false
	return func(context.Context, core.Constraint) error {
		if !seen {
			seen = true
			<-done
		}
		return nil
	}
}

func TestMinimizeDeadlineExceeded(t *testing.T) {
	sc := conditionalWorkload(t, 64)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{Parallelism: 4, CandidateHook: awaitDeadline(ctx.Done())})
	if res != nil {
		t.Fatal("run past its deadline returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !core.ErrCanceled(err) {
		t.Fatalf("err = %v, want DeadlineExceeded via CancelError", err)
	}
}

// TestMinimizeUncanceledBitIdentical: a live cancelable context that
// never fires must not perturb the run — the contract every pipeline
// caller now relies on after the context threading.
func TestMinimizeUncanceledBitIdentical(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []struct {
		name string
		sc   *core.ConstraintSet
	}{
		{"purchasing", asc},
		{"layered-64", conditionalWorkload(t, 64)},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			ref, err := core.Minimize(fx.sc)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, workers := range []int{1, 8} {
				res, err := core.MinimizeOpt(ctx, fx.sc, core.MinimizeOptions{Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "uncanceled", ref, res)
			}
		})
	}
}

// decisionRecorder keeps the decision record of the run's minimize_end
// event, which on a canceled run covers the candidates decided before
// the abort.
type decisionRecorder struct {
	decision *obs.Decision
}

func (s *decisionRecorder) Emit(e obs.Event) {
	if e.Kind == obs.EvMinimizeEnd {
		s.decision = e.Decision
	}
}

// TestMinimizeCancelRemovalPrefix: a cancel landing mid-run with
// Parallelism 8 must abort at a candidate boundary with the removals
// applied so far an exact prefix of the uncancelled run's
// deterministic removal sequence — never a verdict from a partial
// scan, never a removal out of order. Twelve seeded cancel points
// spread the abort across the run.
func TestMinimizeCancelRemovalPrefix(t *testing.T) {
	sc := conditionalWorkload(t, 128)
	full, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	fullRemoved := make([]string, len(full.Removed))
	for i, c := range full.Removed {
		fullRemoved[i] = c.String()
	}
	if full.EquivalenceChecks < 13 {
		t.Fatalf("workload decides only %d candidates — too few cancel points", full.EquivalenceChecks)
	}
	for seed := int64(1); seed <= 12; seed++ {
		target := 1 + int(seed*7919)%(full.EquivalenceChecks-1)
		ctx, cancel := context.WithCancel(context.Background())
		rec := &decisionRecorder{}
		res, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{
			Parallelism: 8, CandidateHook: cancelAfter(target, cancel), Events: rec,
		})
		cancel()
		if res != nil {
			t.Fatalf("seed %d: canceled run returned a result", seed)
		}
		var ce *core.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("seed %d: err = %v, want *core.CancelError", seed, err)
		}
		if ce.Checked < target || ce.Checked >= full.EquivalenceChecks {
			t.Errorf("seed %d: Checked = %d, want in [%d, %d)", seed, ce.Checked, target, full.EquivalenceChecks)
		}
		if rec.decision == nil {
			t.Fatalf("seed %d: canceled run emitted no decision record", seed)
		}
		removed := rec.decision.Removed
		if ce.Removed != len(removed) || ce.Checked != rec.decision.Checks {
			t.Errorf("seed %d: CancelError reports %d removals in %d checks, but the decision record has %d in %d",
				seed, ce.Removed, ce.Checked, len(removed), rec.decision.Checks)
		}
		if len(removed) > len(fullRemoved) {
			t.Fatalf("seed %d: canceled run removed %d constraints, full run only %d",
				seed, len(removed), len(fullRemoved))
		}
		for i, got := range removed {
			if got != fullRemoved[i] {
				t.Fatalf("seed %d: removal %d = %s, full run's sequence has %s — not a prefix",
					seed, i, got, fullRemoved[i])
			}
		}
	}
}

// TestMinimizeCancelNoGoroutineLeak aborts a parallel run mid-flight
// and checks the worker pool drains: the goroutine count must return
// to its baseline.
func TestMinimizeCancelNoGoroutineLeak(t *testing.T) {
	sc := conditionalWorkload(t, 64)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{Parallelism: 8, CandidateHook: cancelAfter(3, cancel)})
		cancel()
		if !core.ErrCanceled(err) {
			t.Fatalf("run %d: err = %v, want cancellation", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMinimizeCancelMetrics pins the cancel counter: observability
// callers alert on minimize_canceled_total.
func TestMinimizeCancelMetrics(t *testing.T) {
	_, asc, _, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.MinimizeOpt(ctx, asc, core.MinimizeOptions{Metrics: reg}); !core.ErrCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if got := reg.Counter("minimize_canceled_total").Value(); got != 1 {
		t.Errorf("minimize_canceled_total = %d, want 1", got)
	}
}
