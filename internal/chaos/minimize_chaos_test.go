// Chaos property suite for the minimizer's candidate engine: seeded
// latency injected per candidate evaluation skews the timing of every
// check and of the fallback scan's worker pool, yet the canonical
// candidate order must keep the minimal set bit-identical;
// seeded faults and cancellations must abort the run cleanly — typed
// error, no goroutine leaks, removals a prefix of the deterministic
// sequence. Replay a failing seed with -chaos.seed=N (see chaos_test.go).
package chaos_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dscweaver/internal/chaos"
	"dscweaver/internal/chaos/leak"
	"dscweaver/internal/core"
	"dscweaver/internal/services"
	"dscweaver/internal/workload"
)

// chaosMinimizeWorkload is sized so every seed gets dozens of
// candidates while keeping the 12-seed × configs sweep fast under
// -race.
func chaosMinimizeWorkload(t *testing.T, seed int64) *core.ConstraintSet {
	t.Helper()
	sc, err := workload.Layered(8, 4, 0.3, seed).WithShortcuts(8).WithDecisions(2).Constraints()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestChaosMinimizeCandidateLatencyBitIdentical: latency-only chaos in
// the candidate pool (no faults, no cancellation) must not change a
// single bit of the outcome for any engine configuration.
func TestChaosMinimizeCandidateLatencyBitIdentical(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		sc := chaosMinimizeWorkload(t, seed)
		base, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []struct {
			name string
			opts core.MinimizeOptions
		}{
			{"workers=2", core.MinimizeOptions{Parallelism: 2}},
			{"workers=8", core.MinimizeOptions{Parallelism: 8}},
		} {
			inj := chaos.New(chaos.Config{Seed: seed, LatencyP: 0.5, MaxLatency: 2 * time.Millisecond})
			opts := cfg.opts
			opts.CandidateHook = inj.MinimizeHook()
			res, err := core.MinimizeOpt(context.Background(), sc, opts)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			if res.Minimal.String() != base.Minimal.String() {
				t.Errorf("seed %d %s: minimal set differs under candidate latency:\nbase:\n%s\nchaos:\n%s",
					seed, cfg.name, base.Minimal, res.Minimal)
			}
			if got, want := removedChaosString(res), removedChaosString(base); got != want {
				t.Errorf("seed %d %s: removal order differs under candidate latency:\nbase:\n%s\nchaos:\n%s",
					seed, cfg.name, want, got)
			}
			if res.EquivalenceChecks != base.EquivalenceChecks {
				t.Errorf("seed %d %s: EquivalenceChecks = %d, chaos-free = %d",
					seed, cfg.name, res.EquivalenceChecks, base.EquivalenceChecks)
			}
			if st := inj.Stats(); st.Latencies == 0 {
				t.Errorf("seed %d %s: no latency spike fired — the run was not actually jittered", seed, cfg.name)
			}
		}
	})
}

func removedChaosString(res *core.MinimizeResult) string {
	s := ""
	for _, c := range res.Removed {
		s += c.String() + "\n"
	}
	return s
}

// TestChaosMinimizeFaultsAbortCleanly: transient faults injected
// mid-pool plus a seeded external cancellation. Whatever a seed drew,
// the run either completes bit-identical, fails with the injected
// chaos fault, or aborts with a *core.CancelError whose progress
// counters are a sane prefix of the full run — and the worker pool
// never leaks a goroutine (leak.Check + -race).
func TestChaosMinimizeFaultsAbortCleanly(t *testing.T) {
	forEachSeed(t, func(t *testing.T, seed int64) {
		leak.Check(t)
		sc := chaosMinimizeWorkload(t, seed)
		base, err := core.MinimizeOpt(context.Background(), sc, core.MinimizeOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(chaos.Config{
			Seed:       seed,
			TransientP: 0.02,
			LatencyP:   0.3, MaxLatency: time.Millisecond,
			CancelP: 0.5, CancelWithin: 5 * time.Millisecond,
		})
		ctx := context.Background()
		if delay, ok := inj.CancelPlan("minimize"); ok {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			ctx = cctx
		}
		res, err := core.MinimizeOpt(ctx, sc, core.MinimizeOptions{
			Parallelism:   8,
			CandidateHook: inj.MinimizeHook(),
		})
		var ce *core.CancelError
		switch {
		case err == nil:
			if res.Minimal.String() != base.Minimal.String() || removedChaosString(res) != removedChaosString(base) {
				t.Errorf("seed %d: surviving run not bit-identical to chaos-free run", seed)
			}
		case errors.As(err, &ce):
			if !core.ErrCanceled(err) {
				t.Errorf("seed %d: CancelError does not unwrap to a context error: %v", seed, err)
			}
			if ce.Removed > len(base.Removed) || ce.Checked > base.EquivalenceChecks {
				t.Errorf("seed %d: canceled progress checked=%d removed=%d exceeds full run's %d/%d",
					seed, ce.Checked, ce.Removed, base.EquivalenceChecks, len(base.Removed))
			}
		case errors.Is(err, services.ErrTransient):
			if inj.Stats().Transients == 0 {
				t.Errorf("seed %d: transient error surfaced but injector recorded none: %v", seed, err)
			}
		default:
			t.Errorf("seed %d: unexpected error class: %v", seed, err)
		}
	})
}
