package petri

import (
	"context"
	"strings"
	"testing"
)

// Tokens returns the number of tokens (of all colors) in a place; the
// tests read markings through it.
func (m Marking) Tokens(p PlaceID) int {
	total := 0
	for _, k := range m[p] {
		total += k
	}
	return total
}

// lineNet builds p0 --t0--> p1 --t1--> p2.
func lineNet() (*Net, []PlaceID, []TransitionID) {
	n := New()
	p0 := n.AddPlace("p0", "")
	p1 := n.AddPlace("p1")
	p2 := n.AddPlace("p2")
	t0 := n.AddTransition("t0", In(p0, ""), Out(p1, ""))
	t1 := n.AddTransition("t1", In(p1, ""), Out(p2, ""))
	return n, []PlaceID{p0, p1, p2}, []TransitionID{t0, t1}
}

func TestFireBasics(t *testing.T) {
	n, ps, ts := lineNet()
	m := n.InitialMarking()
	if got := n.Enabled(m); len(got) != 1 || got[0] != ts[0] {
		t.Fatalf("Enabled = %v, want [t0]", got)
	}
	m2, err := n.Fire(m, ts[0])
	if err != nil {
		t.Fatal(err)
	}
	if m2.Tokens(ps[0]) != 0 || m2.Tokens(ps[1]) != 1 {
		t.Errorf("after t0: %v", m2)
	}
	// Original marking untouched.
	if m.Tokens(ps[0]) != 1 {
		t.Error("Fire mutated input marking")
	}
	if _, err := n.Fire(m2, ts[0]); err == nil {
		t.Error("fired disabled transition")
	}
	m3, err := n.Fire(m2, ts[1])
	if err != nil {
		t.Fatal(err)
	}
	if m3.Tokens(ps[2]) != 1 {
		t.Errorf("after t1: %v", m3)
	}
}

func TestColoredArcsMatch(t *testing.T) {
	n := New()
	src := n.AddPlace("src", "red")
	dst := n.AddPlace("dst")
	wantBlue := n.AddTransition("blue", In(src, "blue"), Out(dst, ""))
	wantRed := n.AddTransition("red", In(src, "red"), Out(dst, "green"))
	m := n.InitialMarking()
	if n.enabled(m, wantBlue) {
		t.Error("blue consumer enabled on red token")
	}
	if !n.enabled(m, wantRed) {
		t.Error("red consumer not enabled")
	}
	m2, err := n.Fire(m, wantRed)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Has(dst, "green") {
		t.Error("produced token color wrong")
	}
}

func TestReadArcDoesNotConsume(t *testing.T) {
	n := New()
	flag := n.AddPlace("flag", "T")
	out := n.AddPlace("out")
	tr := n.AddTransition("tr", Read(flag, "T"), Out(out, ""))
	m := n.InitialMarking()
	m2, err := n.Fire(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Has(flag, "T") {
		t.Error("read arc consumed the token")
	}
	// Still enabled: read arcs allow repeated firing (unbounded out).
	if !n.enabled(m2, tr) {
		t.Error("transition disabled after read")
	}
}

func TestWildcardConsumesDeterministically(t *testing.T) {
	n := New()
	src := n.AddPlace("src", "b", "a")
	dst := n.AddPlace("dst")
	tr := n.AddTransition("tr", In(src, ""), Out(dst, ""))
	m, err := n.Fire(n.InitialMarking(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Smallest color first: "a" went.
	if m.Has(src, "a") || !m.Has(src, "b") {
		t.Errorf("wildcard consumption order wrong: %v", m)
	}
}

func TestMultiTokenDemand(t *testing.T) {
	n := New()
	src := n.AddPlace("src", "", "")
	dst := n.AddPlace("dst")
	tr := n.AddTransition("join", In(src, ""), In(src, ""), Out(dst, ""))
	m := n.InitialMarking()
	if !n.enabled(m, tr) {
		t.Fatal("two-token transition not enabled with two tokens")
	}
	m2, _ := n.Fire(m, tr)
	if m2.Tokens(src) != 0 || m2.Tokens(dst) != 1 {
		t.Errorf("after join: %v", m2)
	}
	// One token is not enough.
	n2 := New()
	s2 := n2.AddPlace("s", "")
	d2 := n2.AddPlace("d")
	tr2 := n2.AddTransition("join", In(s2, ""), In(s2, ""), Out(d2, ""))
	if n2.enabled(n2.InitialMarking(), tr2) {
		t.Error("two-token transition enabled with one token")
	}
}

func TestMarkingKeyCanonical(t *testing.T) {
	n, _, ts := lineNet()
	m := n.InitialMarking()
	m2, _ := n.Fire(m, ts[0])
	if m.Key() == m2.Key() {
		t.Error("distinct markings share a key")
	}
	if m.Key() != n.InitialMarking().Key() {
		t.Error("equal markings have different keys")
	}
}

// TestExploreLine pins the reference explorer's statistics on a line
// and checks the packed full graph visits the same markings.
func TestExploreLine(t *testing.T) {
	n, ps, _ := lineNet()
	ss := n.exploreRef(1<<20, []PlaceID{ps[2]})
	if ss.States != 3 {
		t.Errorf("States = %d, want 3", ss.States)
	}
	if len(ss.Deadlocks) != 0 {
		t.Errorf("Deadlocks = %v", ss.Deadlocks)
	}
	if len(ss.Finals) != 1 {
		t.Errorf("Finals = %d, want 1", len(ss.Finals))
	}
	if ss.MaxTokens != 1 {
		t.Errorf("MaxTokens = %d, want 1", ss.MaxTokens)
	}
	if len(ss.DeadTransitions) != 0 {
		t.Errorf("DeadTransitions = %v", ss.DeadTransitions)
	}
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{ps[2]}, FullGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateSpace.States != ss.States {
		t.Errorf("full graph States = %d, reference %d", rep.StateSpace.States, ss.States)
	}
}

func TestExploreDetectsDeadlock(t *testing.T) {
	n := New()
	p0 := n.AddPlace("p0", "")
	p1 := n.AddPlace("p1")
	never := n.AddPlace("never")
	n.AddTransition("t0", In(p0, ""), Out(p1, ""))
	dead := n.AddTransition("blocked", In(never, ""), Out(p0, ""))
	ss := n.exploreRef(1<<20, nil)
	if len(ss.Deadlocks) != 1 {
		t.Errorf("Deadlocks = %d, want 1", len(ss.Deadlocks))
	}
	if len(ss.DeadTransitions) != 1 || ss.DeadTransitions[0] != dead {
		t.Errorf("DeadTransitions = %v", ss.DeadTransitions)
	}
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{never}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound || len(rep.Deadlocks) != 1 || rep.Deadlocks[0] != "{p1}" {
		t.Errorf("rep = %+v, want one deadlock {p1}", rep)
	}
}

func TestExploreUnboundedGenerator(t *testing.T) {
	n := New()
	seed := n.AddPlace("seed", "")
	sink := n.AddPlace("sink")
	n.AddTransition("gen", Read(seed, ""), Out(sink, ""))
	ss := n.exploreRef(64, nil)
	if ss.MaxTokens <= 8 {
		t.Errorf("generator net peaked at %d tokens", ss.MaxTokens)
	}
	if !ss.Truncated {
		t.Error("exploration of unbounded net not truncated")
	}
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{sink}, MaxStates: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound || !rep.StateSpace.Truncated || rep.StateSpace.States != 64 {
		t.Errorf("rep = %+v/%+v, want a truncated unsound verdict over 64 states", rep, rep.StateSpace)
	}
}

func TestCheckSoundnessSoundNet(t *testing.T) {
	n, ps, _ := lineNet()
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{ps[2]}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Errorf("line net unsound: %+v", rep)
	}
}

func TestCheckSoundnessDeadlock(t *testing.T) {
	// Choice into a branch that cannot complete.
	n := New()
	p0 := n.AddPlace("p0", "")
	good := n.AddPlace("good")
	stuckPre := n.AddPlace("stuckPre")
	never := n.AddPlace("never")
	done := n.AddPlace("done")
	n.AddTransition("ok", In(p0, ""), Out(good, ""))
	n.AddTransition("trap", In(p0, ""), Out(stuckPre, ""))
	n.AddTransition("finish", In(good, ""), Out(done, ""))
	n.AddTransition("blocked", In(stuckPre, ""), In(never, ""), Out(done, ""))
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{done}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound {
		t.Error("trap net reported sound")
	}
	if len(rep.Deadlocks) == 0 {
		t.Error("no deadlock diagnostics")
	}
	if !strings.Contains(rep.Deadlocks[0], "stuckPre") {
		t.Errorf("deadlock diagnostic = %q", rep.Deadlocks[0])
	}
}

func TestCheckSoundnessNoCompletion(t *testing.T) {
	n, _, _ := lineNet()
	never := n.AddPlace("never")
	rep, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{never}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound || !rep.NoCompletion {
		t.Errorf("rep = %+v, want NoCompletion", rep)
	}
}

func TestCheckSoundnessRequiresFinal(t *testing.T) {
	n, _, _ := lineNet()
	if _, err := n.CheckSoundness(context.Background(), ExploreOptions{}); err == nil {
		t.Error("CheckSoundness accepted no FinalPlaces")
	}
	if _, err := n.CheckSoundness(context.Background(), ExploreOptions{FinalPlaces: []PlaceID{3}}); err == nil {
		t.Error("CheckSoundness accepted a final place outside the net")
	}
}
