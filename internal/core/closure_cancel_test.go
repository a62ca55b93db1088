// Mid-sweep cancellation of the closure sweeps: a single equivalence
// check on a pathological candidate used to run its sweep to
// completion no matter what (the ROADMAP's "unbounded single-candidate
// latency" gap). These tests pin the new behavior: a fired cancel flag
// stops a sweep after at most sweepCheckInterval further frontier
// expansions, in both directions, and a check whose flag fires
// mid-sweep returns the context error instead of a verdict.
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// chainGraph builds a pointGraph over a pure chain a0 → a1 → … of n
// activities — every point reachable from S(a0), so an uncancelled
// sweep must expand ~3n frontier nodes.
func chainGraph(t *testing.T, n int) *pointGraph {
	t.Helper()
	p := NewProcess("pathological")
	for i := 0; i < n; i++ {
		p.MustAddActivity(&Activity{ID: ActivityID(fmt.Sprintf("a%d", i)), Kind: KindOpaque})
	}
	sc := NewConstraintSet(p)
	for i := 0; i+1 < n; i++ {
		sc.Before(ActivityID(fmt.Sprintf("a%d", i)), ActivityID(fmt.Sprintf("a%d", i+1)), Data)
	}
	pg, err := buildPointGraph(sc)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestClosureSweepAbortsMidSweep(t *testing.T) {
	const n = 600 // ~1800 points, dozens of poll intervals
	pg := chainGraph(t, n)
	src := pg.pointID(PointOf("a0", Start))
	dst := pg.pointID(PointOf(ActivityID(fmt.Sprintf("a%d", n-1)), Finish))
	if src < 0 || dst < 0 {
		t.Fatal("chain endpoints missing from point graph")
	}

	full := pg.annotatedFrom(src, nil)
	fullReached := 0
	for _, c := range full {
		if !c.IsFalse() {
			fullReached++
		}
	}
	if fullReached < 3*n-3 {
		t.Fatalf("uncancelled sweep reached %d points, want ~%d", fullReached, 3*n)
	}

	// A pre-fired cancel flag must stop the forward sweep at its first
	// poll: at most sweepCheckInterval expansions plus their immediate
	// successors get annotated.
	fired := &atomic.Bool{}
	fired.Store(true)
	partial := pg.annotatedFromInto(nil, src, nil, fired, nil)
	partialReached := 0
	for _, c := range partial {
		if !c.IsFalse() {
			partialReached++
		}
	}
	if partialReached > 2*sweepCheckInterval {
		t.Errorf("cancelled forward sweep reached %d points, want ≤ %d (abort at first poll)",
			partialReached, 2*sweepCheckInterval)
	}

	// Backward mirror.
	partialBack := pg.annotatedToInto(nil, dst, nil, fired, nil)
	backReached := 0
	for _, c := range partialBack {
		if !c.IsFalse() {
			backReached++
		}
	}
	if backReached > 2*sweepCheckInterval {
		t.Errorf("cancelled backward sweep reached %d points, want ≤ %d", backReached, 2*sweepCheckInterval)
	}
}

// lateErrCtx is a context whose Err stays nil for its first quiet
// calls and then reports the embedded context's error. It lands a
// cancellation between checkFrontier's entry check and the end of its
// first sweep, as a cancel arriving mid-sweep would.
type lateErrCtx struct {
	context.Context
	quiet atomic.Int32
}

func (c *lateErrCtx) Err() error {
	if c.quiet.Add(-1) >= 0 {
		return nil
	}
	return c.Context.Err()
}

// TestEdgeRedundantSequentialCancelMidSweep: with the cancel flag
// fired (as runSequential's context.AfterFunc fires it) after the
// check has started, the sweep aborts mid-scan and the check returns
// the context error — never a verdict from the partial data.
func TestEdgeRedundantSequentialCancelMidSweep(t *testing.T) {
	pg := chainGraph(t, 400)
	// Candidate: the edge S(a0)→R(a0)? Lifecycle edges are not
	// constraints; use the first constraint edge F(a0)→S(a1).
	u := pg.pointID(PointOf("a0", Finish))
	v := pg.pointID(PointOf("a1", Start))
	if u < 0 || v < 0 {
		t.Fatal("candidate edge endpoints missing")
	}
	base, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &lateErrCtx{Context: base}
	ctx.quiet.Store(1) // the entry check passes
	fired := &atomic.Bool{}
	fired.Store(true)
	start := time.Now()
	ok, _, err := pg.checkFrontier(ctx, u, v, fired)
	if err == nil || ok {
		t.Fatalf("cancelled sequential check returned ok=%v err=%v, want context error", ok, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled check took %v; sweep did not abort promptly", elapsed)
	}
}
