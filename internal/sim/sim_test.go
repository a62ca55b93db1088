package sim

import (
	"math/rand"
	"testing"
	"time"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/pdg"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/workload"
)

func chain(n int) *core.ConstraintSet {
	p := core.NewProcess("chain")
	ids := make([]core.ActivityID, n)
	for i := range ids {
		ids[i] = core.ActivityID(string(rune('a' + i)))
		p.MustAddActivity(&core.Activity{ID: ids[i], Kind: core.KindOpaque})
	}
	sc := core.NewConstraintSet(p)
	for i := 0; i+1 < n; i++ {
		sc.Before(ids[i], ids[i+1], core.Data)
	}
	return sc
}

func TestEstimateChainIsSum(t *testing.T) {
	sc := chain(5)
	s, err := Estimate(sc, Study{Trials: 10, Latency: Fixed(3 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if want := 15 * time.Millisecond; s.Mean != want || s.Min != want || s.Max != want {
		t.Errorf("chain summary = %+v, want constant %v", s, want)
	}
}

func TestEstimateFanIsMax(t *testing.T) {
	w := workload.Fan(6, 1)
	sc, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Estimate(sc, Study{Trials: 50, Latency: Fixed(2 * time.Millisecond), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// source + one worker + sink = 6ms regardless of fan width.
	if want := 6 * time.Millisecond; s.Mean != want {
		t.Errorf("fan mean = %v, want %v", s.Mean, want)
	}
}

func TestEstimateDeterministicBySeed(t *testing.T) {
	sc := chain(4)
	st := Study{Trials: 100, Latency: Uniform(time.Millisecond, 5*time.Millisecond), Seed: 42}
	a, err := Estimate(sc, st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(sc, st)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different summaries: %+v vs %+v", a, b)
	}
	st.Seed = 43
	c, err := Estimate(sc, st)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical summaries")
	}
}

func TestEstimatePercentilesOrdered(t *testing.T) {
	sc := chain(3)
	s, err := Estimate(sc, Study{Trials: 500, Latency: Uniform(0, 10*time.Millisecond), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max) {
		t.Errorf("percentiles disordered: %+v", s)
	}
}

func TestEstimateDeadPathShortensFBranch(t *testing.T) {
	// Purchasing: the F branch (decline) skips the whole subprocess
	// fan, so forcing F must give a strictly shorter makespan than
	// forcing T.
	_, asc, res, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		t.Fatal(err)
	}
	est := func(branch string) Summary {
		s, err := Estimate(res.Minimal, Study{
			Trials: 20, Seed: 1, Guards: guards,
			Latency: Fixed(time.Millisecond),
			Branch:  constBranch(branch),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tBranch := est("T")
	fBranch := est("F")
	if fBranch.Mean >= tBranch.Mean {
		t.Errorf("decline path (%v) not shorter than approve path (%v)", fBranch.Mean, tBranch.Mean)
	}
}

func constBranch(b string) BranchModel {
	return func(_ *rand.Rand, _ *core.Activity) string { return b }
}

func TestCompareMinimalVsConstructBaseline(t *testing.T) {
	// The construct baseline serializes the subprocess fan, so its
	// estimated makespan dominates the minimal set's on every paired
	// trial summary.
	prog, err := pdg.ParseProgram(pdg.PurchasingSeqlang)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pdg.ExtractProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	constructs, err := pdg.SequencingConstraints(prog, ex.Proc)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.Merge(ex.Proc, ex.Deps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range constructs.Constraints() {
		merged.Add(c)
	}
	baseline, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Minimize(baseline)
	if err != nil {
		t.Fatal(err)
	}
	study := Study{Trials: 200, Seed: 7, Latency: Uniform(time.Millisecond, 4*time.Millisecond), Branch: constBranch("T")}
	study.Guards = res.Guards
	base, err := Estimate(baseline, study)
	if err != nil {
		t.Fatal(err)
	}
	min, err := Estimate(res.Minimal, study)
	if err != nil {
		t.Fatal(err)
	}
	if min.Mean > base.Mean {
		t.Errorf("minimal mean %v exceeds baseline mean %v", min.Mean, base.Mean)
	}
	t.Logf("baseline mean %v vs minimal mean %v", base.Mean, min.Mean)
}

func TestCompareStrictOnSerializedRanks(t *testing.T) {
	// A rank-serialized layered workload has a strictly longer
	// critical path than its minimal set whenever width > 1.
	w := workload.Layered(4, 6, 0.2, 3)
	minimal, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := w.SequencingBaseline()
	if err != nil {
		t.Fatal(err)
	}
	study := Study{Trials: 100, Seed: 11, Latency: Fixed(time.Millisecond)}
	base, err := Estimate(baseline, study)
	if err != nil {
		t.Fatal(err)
	}
	min, err := Estimate(minimal, study)
	if err != nil {
		t.Fatal(err)
	}
	if base.Mean <= min.Mean {
		t.Errorf("serialized baseline mean %v not longer than minimal %v", base.Mean, min.Mean)
	}
	// Fixed latencies: minimal critical path = 4 ranks × 1ms.
	if min.Mean != 4*time.Millisecond {
		t.Errorf("minimal mean = %v, want 4ms", min.Mean)
	}
}

func TestEstimateRejectsStateLevel(t *testing.T) {
	p := core.NewProcess("sl")
	p.MustAddActivity(&core.Activity{ID: "a", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "b", Kind: core.KindOpaque})
	sc := core.NewConstraintSet(p)
	sc.Add(core.Constraint{Rel: core.HappenBefore, Cond: cond.True(),
		From: core.PointOf("a", core.Start), To: core.PointOf("b", core.Finish)})
	if _, err := Estimate(sc, Study{Trials: 1}); err == nil {
		t.Error("state-level constraint accepted")
	}
}

func TestEstimateRejectsUntranslated(t *testing.T) {
	proc := purchasing.Process()
	merged, err := core.Merge(proc, purchasing.Dependencies())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(merged, Study{Trials: 1}); err == nil {
		t.Error("external nodes accepted")
	}
}
