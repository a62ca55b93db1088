package schedule

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/petri"
	"dscweaver/internal/workload"
)

// TestQuickEngineAgreesWithPetriValidator cross-validates the two
// implementations of the scheduling semantics: for random generated
// workloads (with decisions, shortcuts and random branch outcomes),
// the Petri-net validator must report the constraint set sound, the
// engine must complete without deadlock under every random branch
// assignment tried, and the trace must satisfy the full constraint
// set.
func TestQuickEngineAgreesWithPetriValidator(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		layers := 3 + r.Intn(3)
		width := 1 + r.Intn(3)
		w := workload.Layered(layers, width, 0.4, seed).
			WithShortcuts(r.Intn(6)).
			WithDecisions(r.Intn(2))
		sc, err := w.Constraints()
		if err != nil {
			return false
		}
		res, err := core.Minimize(sc)
		if err != nil {
			return false
		}
		guards, err := core.DeriveGuards(sc)
		if err != nil {
			return false
		}

		rep, err := petri.Validate(context.Background(), res.Minimal, guards)
		if err != nil || !rep.Sound {
			t.Logf("seed %d: petri validator rejects minimal set: %v %+v", seed, err, rep)
			return false
		}

		branch := func(core.ActivityID) string {
			if r.Intn(2) == 0 {
				return "T"
			}
			return "F"
		}
		for trial := 0; trial < 3; trial++ {
			eng, err := New(res.Minimal, NoopExecutors(sc.Proc, 0, branch), Options{
				Guards:  guards,
				Timeout: 10 * time.Second,
			})
			if err != nil {
				return false
			}
			tr, err := eng.Run(context.Background())
			if err != nil {
				t.Logf("seed %d trial %d: engine failed: %v\n%s", seed, trial, err, tr)
				return false
			}
			if err := tr.Validate(sc, guards); err != nil {
				t.Logf("seed %d trial %d: trace invalid: %v", seed, trial, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestEngineRejectsWhatPetriRejects: a deliberately unsound set (a
// happen-before cycle hidden behind state-level points) is caught by
// both implementations.
func TestEngineRejectsWhatPetriRejects(t *testing.T) {
	p := core.NewProcess("unsound")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	sc := core.NewConstraintSet(p)
	add := func(fs core.State, from core.ActivityID, ts core.State, to core.ActivityID) {
		sc.Add(core.Constraint{Rel: core.HappenBefore,
			From: core.PointOf(from, fs), To: core.PointOf(to, ts),
			Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}})
	}
	add(core.Finish, "a", core.Start, "b")
	add(core.Start, "b", core.Finish, "a")

	// F(a)→S(b) and S(b)→F(a) form a 2-cycle in the point graph; both
	// front ends must reject it at design time.
	if _, err := New(sc, nil, Options{Timeout: time.Second}); err == nil {
		t.Error("engine accepted a cyclic point graph")
	}
	if _, err := core.Minimize(sc); err == nil {
		t.Error("optimizer accepted a cyclic point graph")
	}
}

// TestSchedulerRealizesAntichainWidth checks the concurrency metric
// against graph theory: for a fan workload, the engine's peak
// parallelism equals the DAG's antichain width.
func TestSchedulerRealizesAntichainWidth(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		w := workload.Fan(n, 1)
		sc, err := w.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(sc, NoopExecutors(sc.Proc, 10*time.Millisecond, nil), Options{Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if tr.MaxParallel != n {
			t.Errorf("fan(%d): MaxParallel = %d, want %d", n, tr.MaxParallel, n)
		}
	}
}
