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

// cancelAfterSink cancels a context after n candidate verdicts. The
// minimizer emits EvCandidateKept/EvCandidateRemoved synchronously in
// its candidate loop, so firing cancel from Emit gives a deterministic
// mid-run abort: the very next ctx.Err() check sees it.
type cancelAfterSink struct {
	n      int
	cancel context.CancelFunc
	seen   int
}

func (s *cancelAfterSink) Emit(e obs.Event) {
	if e.Kind != obs.EvCandidateKept && e.Kind != obs.EvCandidateRemoved {
		return
	}
	s.seen++
	if s.seen == s.n {
		s.cancel()
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
			sink := &cancelAfterSink{n: after, cancel: cancel}
			res, err := core.MinimizeOpt(ctx, asc, core.MinimizeOptions{
				Parallelism: workers, Events: sink,
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

// awaitDeadlineSink holds the candidate loop at its first verdict until
// the context's deadline has fired, so the deadline lands before the run
// can finish on any machine, however fast the workload.
type awaitDeadlineSink struct {
	done <-chan struct{}
	seen bool
}

func (s *awaitDeadlineSink) Emit(e obs.Event) {
	if s.seen || (e.Kind != obs.EvCandidateKept && e.Kind != obs.EvCandidateRemoved) {
		return
	}
	s.seen = true
	<-s.done
}

func TestMinimizeDeadlineExceeded(t *testing.T) {
	sc := conditionalWorkload(t, 64)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	sink := &awaitDeadlineSink{done: ctx.Done()}
	res, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{Parallelism: 4, Events: sink})
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

// removalRecorder records the committed removal order and cancels the
// run after n verdicts — a deterministic mid-run abort, since verdicts
// are emitted synchronously from the canonical candidate loop.
type removalRecorder struct {
	n       int
	cancel  context.CancelFunc
	seen    int
	removed []string
}

func (s *removalRecorder) Emit(e obs.Event) {
	switch e.Kind {
	case obs.EvCandidateRemoved:
		s.removed = append(s.removed, e.Detail)
	case obs.EvCandidateKept:
	default:
		return
	}
	s.seen++
	if s.seen == s.n {
		s.cancel()
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
		rec := &removalRecorder{n: target, cancel: cancel}
		res, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{Parallelism: 8, Events: rec})
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
		if ce.Removed != len(rec.removed) {
			t.Errorf("seed %d: CancelError.Removed = %d, but %d removal events were committed",
				seed, ce.Removed, len(rec.removed))
		}
		if len(rec.removed) > len(fullRemoved) {
			t.Fatalf("seed %d: canceled run removed %d constraints, full run only %d",
				seed, len(rec.removed), len(fullRemoved))
		}
		for i, got := range rec.removed {
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
		sink := &cancelAfterSink{n: 3, cancel: cancel}
		_, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{Parallelism: 8, Events: sink})
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
