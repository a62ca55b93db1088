package core

import (
	"context"
	"fmt"
	"testing"

	"dscweaver/internal/obs"
)

// TestMinimizeObservability checks the minimizer's registry counters
// and event stream against the MinimizeResult tallies they mirror.
func TestMinimizeObservability(t *testing.T) {
	p := linProcess(4)
	s := NewConstraintSet(p)
	s.Before("a0", "a1", Data)
	s.Before("a1", "a2", Data)
	s.Before("a2", "a3", Data)
	s.Before("a0", "a2", Cooperation) // redundant shortcut
	s.Before("a1", "a3", Cooperation) // redundant shortcut

	reg := obs.NewRegistry()
	var sink obs.MemSink
	res, err := MinimizeOpt(context.Background(), s, MinimizeOptions{Metrics: reg, Events: &sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 2 {
		t.Fatalf("removed %d, want 2", len(res.Removed))
	}
	if got := reg.Counter("minimize_equivalence_checks_total").Value(); int(got) != res.EquivalenceChecks {
		t.Errorf("checks counter = %d, result %d", got, res.EquivalenceChecks)
	}
	if got := reg.Counter("minimize_removed_total").Value(); got != 2 {
		t.Errorf("removed counter = %d, want 2", got)
	}
	if got := reg.Counter("minimize_pair_comparisons_total").Value(); int(got) != res.PairComparisons {
		t.Errorf("pairs counter = %d, result %d", got, res.PairComparisons)
	}
	if got := reg.Counter("minimize_closure_cache_hits_total").Value(); int(got) != res.ClosureCacheHits {
		t.Errorf("cache-hit counter = %d, result %d", got, res.ClosureCacheHits)
	}

	// The run logs a begin marker and one minimize_end carrying the
	// whole decision record: no per-candidate events.
	events := sink.Events()
	if len(events) != 2 || events[0].Kind != obs.EvMinimizeBegin || events[1].Kind != obs.EvMinimizeEnd {
		t.Fatalf("events = %+v, want minimize_begin then minimize_end", events)
	}
	for _, e := range events {
		if e.Layer != obs.LayerMinimize {
			t.Errorf("wrong layer: %+v", e)
		}
	}
	d := events[1].Decision
	if d == nil {
		t.Fatal("minimize_end carries no decision record")
	}
	if d.Checks != res.EquivalenceChecks || d.Pairs != res.PairComparisons {
		t.Errorf("decision checks/pairs = %d/%d, result %d/%d", d.Checks, d.Pairs, res.EquivalenceChecks, res.PairComparisons)
	}
	if d.Candidates != s.Len() {
		t.Errorf("decision candidates = %d, want %d", d.Candidates, s.Len())
	}
	var want []string
	for _, c := range res.Removed {
		want = append(want, c.String())
	}
	if fmt.Sprint(d.Removed) != fmt.Sprint(want) {
		t.Errorf("decision removed = %q, want %q (removal order)", d.Removed, want)
	}

	// The instrumented run must stay bit-identical to the plain one.
	plain, err := Minimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Minimal.Len() != res.Minimal.Len() || len(plain.Removed) != len(res.Removed) {
		t.Errorf("instrumentation changed the result: %d/%d vs %d/%d",
			res.Minimal.Len(), len(res.Removed), plain.Minimal.Len(), len(plain.Removed))
	}
}
