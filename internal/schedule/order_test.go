package schedule

import (
	"fmt"
	"math/rand"
	"testing"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// orderSet builds a constraint set over opaque activities a0…a(n-1).
func orderSet(n int, cons ...core.Constraint) *core.ConstraintSet {
	p := core.NewProcess("order")
	for i := 0; i < n; i++ {
		p.MustAddActivity(&core.Activity{ID: core.ActivityID(fmt.Sprintf("a%d", i)), Kind: core.KindOpaque})
	}
	sc := core.NewConstraintSet(p)
	for _, c := range cons {
		sc.Add(c)
	}
	return sc
}

// hb is a HappenBefore constraint between two points of a0…, with the
// given origin.
func hb(from int, fs core.State, to int, ts core.State, origin core.Dimension) core.Constraint {
	return core.Constraint{Rel: core.HappenBefore,
		From:    core.PointOf(core.ActivityID(fmt.Sprintf("a%d", from)), fs),
		To:      core.PointOf(core.ActivityID(fmt.Sprintf("a%d", to)), ts),
		Cond:    cond.True(),
		Origins: []core.Dimension{origin}}
}

// requireSameVerdict checks that New with supplied guards rejects sc
// exactly when core.DeriveGuards does, with the same text, and that
// pointOrdered itself agrees, so an accepted set never pays for the
// guard derivation.
func requireSameVerdict(t *testing.T, name string, sc *core.ConstraintSet) (accepted bool) {
	t.Helper()
	_, derr := core.DeriveGuards(sc)
	if got := pointOrdered(sc); got != (derr == nil) {
		t.Errorf("%s: pointOrdered = %v, DeriveGuards error = %v\n%s", name, got, derr, sc)
	}
	_, nerr := New(sc, nil, Options{Guards: map[core.Node]cond.Expr{}})
	if (nerr == nil) != (derr == nil) || (nerr != nil && nerr.Error() != derr.Error()) {
		t.Errorf("%s: New error %v, DeriveGuards error %v\n%s", name, nerr, derr, sc)
	}
	return derr == nil
}

// TestNewWithGuardsRejectsWhatDeriveGuardsRejects: with guards
// supplied, New checks order over point arrays instead of deriving
// guards, and must still reject exactly the sets core.DeriveGuards
// rejects — self-loops, constraints that repeat a life-cycle edge,
// point cycles and control cycles — with the same error, while
// accepting orders that are only cyclic at activity level.
func TestNewWithGuardsRejectsWhatDeriveGuardsRejects(t *testing.T) {
	S, R, F := core.Start, core.Run, core.Finish
	D, C := core.Data, core.Control
	for _, tc := range []struct {
		name string
		sc   *core.ConstraintSet
		want bool
	}{
		{"chain", orderSet(3, hb(0, F, 1, S, D), hb(1, F, 2, S, C)), true},
		{"point-level cross pair", orderSet(2, hb(0, S, 1, F, D), hb(1, S, 0, F, D)), true},
		{"run-point fan", orderSet(3, hb(0, R, 1, R, D), hb(0, R, 2, F, D), hb(1, S, 2, R, D)), true},
		{"constraint names an undeclared activity", orderSet(1, hb(0, F, 7, S, D)), true},
		{"two-activity cycle", orderSet(2, hb(0, F, 1, S, D), hb(1, F, 0, S, D)), false},
		{"cycle through run points", orderSet(3, hb(0, R, 1, R, D), hb(1, R, 2, S, D), hb(2, F, 0, R, D)), false},
		{"finish before own start", orderSet(1, hb(0, F, 0, S, D)), false},
		{"self-loop", orderSet(1, hb(0, S, 0, S, D)), false},
		{"repeats start→run", orderSet(2, hb(0, S, 0, R, D)), false},
		{"repeats run→finish", orderSet(2, hb(1, R, 1, F, D)), false},
		{"control cross pair", orderSet(2, hb(0, S, 1, F, C), hb(1, S, 0, F, C)), false},
		{"control self-loop", orderSet(1, hb(0, S, 0, F, C)), false},
	} {
		if got := requireSameVerdict(t, tc.name, tc.sc); got != tc.want {
			t.Errorf("%s: accepted = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Random sets over few activities hit every rejection by chance.
	r := rand.New(rand.NewSource(1))
	var accepted, rejected int
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(5)
		var cons []core.Constraint
		for m := r.Intn(2 * n); m >= 0; m-- {
			origin := D
			if r.Intn(3) == 0 {
				origin = C
			}
			cons = append(cons, hb(r.Intn(n), core.State(r.Intn(3)), r.Intn(n), core.State(r.Intn(3)), origin))
		}
		if requireSameVerdict(t, fmt.Sprintf("random set %d", i), orderSet(n, cons...)) {
			accepted++
		} else {
			rejected++
		}
	}
	t.Logf("random corpus: %d accepted, %d rejected", accepted, rejected)
	if accepted < 200 || rejected < 200 {
		t.Errorf("random corpus: %d accepted, %d rejected — too one-sided to compare", accepted, rejected)
	}
}
