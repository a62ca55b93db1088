// Cancellation tests for the state-space kernels: a canceled context
// aborts CheckSoundness (and the test-side Coverability) promptly
// (within one ctxCheckEvery stride) instead of running the
// exploration out, and a nil or never-fired context leaves the
// verdicts untouched. Run with
// -race: the concurrent tests cancel from a second goroutine while the
// kernel explores.
package petri

import (
	"context"
	"errors"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/purchasing"
)

// independentNet builds n parallel one-shot tasks (ready_i → done_i):
// 2^n reachable markings with bounded memory per marking, so tests can
// dial the state-space size without the multi-gigabyte footprint a
// translated workload of equal size would need. The net is
// fastpath-eligible, so the tests that need the exploration set
// FullGraph.
func independentNet(n int) (*Net, []PlaceID) {
	net := New()
	var done []PlaceID
	for i := 0; i < n; i++ {
		ready := net.AddPlace("ready", "")
		d := net.AddPlace("done")
		net.AddTransition("run", In(ready, ""), Out(d, ""))
		done = append(done, d)
	}
	return net, done
}

// TestExplorePreCanceled: the full-graph exploration checks its
// context before the first state, so a pre-canceled context never
// yields a verdict.
func TestExplorePreCanceled(t *testing.T) {
	net, done := independentNet(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := net.CheckSoundness(ctx, ExploreOptions{FinalPlaces: done, FullGraph: true})
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("full graph = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}

func TestCheckSoundnessPreCanceled(t *testing.T) {
	net, done := independentNet(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := net.CheckSoundness(ctx, ExploreOptions{FinalPlaces: done})
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckSoundness = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}

func TestCoverabilityPreCanceled(t *testing.T) {
	net, _ := independentNet(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := net.Coverability(ctx, 0)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Coverability = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}

// TestKernelsNilContext: a nil ctx means "no cancellation", matching
// MinimizeOpt's contract for callers below the pipeline.
func TestKernelsNilContext(t *testing.T) {
	net, done := independentNet(4)
	full, err := net.CheckSoundness(nil, ExploreOptions{FinalPlaces: done, FullGraph: true})
	if err != nil || !full.Sound || full.StateSpace.States != 16 {
		t.Fatalf("full graph (nil ctx) = (%+v, %v), want sound over 16 states", full, err)
	}
	rep, err := net.CheckSoundness(nil, ExploreOptions{FinalPlaces: done})
	if err != nil || !rep.Sound {
		t.Fatalf("CheckSoundness(nil ctx) = (%+v, %v), want sound", rep, err)
	}
	cov, err := net.Coverability(nil, 0)
	if err != nil || !cov.Bounded {
		t.Fatalf("Coverability(nil ctx) = (%+v, %v), want bounded", cov, err)
	}
}

// TestSoundnessCancelConcurrent cancels from a second goroutine while
// the kernel walks a 2^18-marking space and asserts the abort is
// prompt — the drain-deadline property the server's Shutdown relies
// on.
func TestSoundnessCancelConcurrent(t *testing.T) {
	net, done := independentNet(18)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	began := time.Now()
	rep, err := net.CheckSoundness(ctx, ExploreOptions{FinalPlaces: done, FullGraph: true})
	elapsed := time.Since(began)
	if err == nil {
		t.Skipf("exploration outran the cancel on this machine (%v for 2^18 states)", elapsed)
	}
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckSoundness = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want well under the drain deadline", elapsed)
	}
}

func TestExploreDeadline(t *testing.T) {
	net, done := independentNet(18)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	began := time.Now()
	rep, err := net.CheckSoundness(ctx, ExploreOptions{FinalPlaces: done, FullGraph: true})
	elapsed := time.Since(began)
	if err == nil {
		t.Skipf("exploration beat the deadline on this machine (%v for 2^18 states)", elapsed)
	}
	if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full graph = (%v, %v), want (nil, context.DeadlineExceeded)", rep, err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline abort took %v, want well under the drain deadline", elapsed)
	}
}

// TestValidateOptPreCanceled covers the pipeline-facing wrapper: the
// stage the server aborts during drain escalation.
func TestValidateOptPreCanceled(t *testing.T) {
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := ValidateOpt(ctx, res.Minimal, guards, ExploreOptions{})
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("ValidateOpt = (%v, %v), want (nil, context.Canceled)", rep, err)
	}
}
