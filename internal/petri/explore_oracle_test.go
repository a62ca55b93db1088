package petri

import (
	"context"
	"fmt"
	"slices"
	"testing"
)

// exploreGraphFullScan is exploreGraph with a scan of every transition
// of the net for each explored state's enabled list: the oracle for
// the derived lists. check, when non-nil, sees each firing: the
// full-scan enabled list of the state fired from, the transition and
// the successor marking.
func (c *compiled) exploreGraphFullScan(maxStates int, fp []int32, reduce bool, check func(parent []int32, t int32, succ []byte)) (*sgraph, error) {
	st := newStateTable(c.stateLen, 1024)
	st.insert(hashState(c.initial), c.initial)
	g := &sgraph{}
	var sb *stubbornCtx
	if reduce {
		c.ensureDisablers()
		sb = newStubbornCtx(c)
	}
	dst := make([]byte, c.stateLen)
	for i := int32(0); int(i) < st.count(); i++ {
		s := st.state(i)
		enabled := c.enabledList(nil, s)
		g.final = append(g.final, c.isFinal(s, fp))
		g.dead = append(g.dead, len(enabled) == 0)
		expand := enabled
		if sb != nil && len(enabled) > 1 {
			expand = sb.reduce(s, enabled)
		}
		for _, t := range expand {
			if err := c.fireTo(s, t, dst); err != nil {
				return nil, err
			}
			if check != nil {
				check(enabled, t, dst)
			}
			h := hashState(dst)
			id, ok := st.find(h, dst)
			if !ok {
				if st.count() >= maxStates {
					g.truncated = true
					continue
				}
				id = st.insert(h, dst)
			}
			g.edgeFrom = append(g.edgeFrom, i)
			g.edgeTo = append(g.edgeTo, id)
		}
	}
	g.n = st.count()
	g.st = st
	return g, nil
}

// diffGraphs reports every field on which two explorations differ.
func diffGraphs(got, want *sgraph) []string {
	var diffs []string
	if got.n != want.n {
		diffs = append(diffs, fmt.Sprintf("n %d, want %d", got.n, want.n))
	}
	if got.truncated != want.truncated {
		diffs = append(diffs, fmt.Sprintf("truncated %v, want %v", got.truncated, want.truncated))
	}
	if !slices.Equal(got.edgeFrom, want.edgeFrom) {
		diffs = append(diffs, "edgeFrom differs")
	}
	if !slices.Equal(got.edgeTo, want.edgeTo) {
		diffs = append(diffs, "edgeTo differs")
	}
	if !slices.Equal(got.final, want.final) {
		diffs = append(diffs, "final differs")
	}
	if !slices.Equal(got.dead, want.dead) {
		diffs = append(diffs, "dead differs")
	}
	return diffs
}

// TestExploreGraphMatchesFullScan pins exploreGraph, whose states
// derive their enabled lists from their parents', to the full-scan
// loop: the same graph, field by field, on every net of the
// differential corpus (purchasing, the traps, the random layered
// workloads and the Build nets of TestBuildNetsAreOneBounded), reduced
// and full, untruncated and cut by MaxStates. Along the way every
// firing's derived enabled list must equal the full scan of the
// successor.
func TestExploreGraphMatchesFullScan(t *testing.T) {
	nets := handcraftedNets()
	for _, tc := range buildCorpus(t) {
		nets = append(nets, netCase{tc.name, tc.n, donePlaces(tc.m)})
	}

	firings, truncated := 0, 0
	for _, tc := range nets {
		c, err := compile(tc.n)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		fp := c.compileFinalPlaces(tc.fp)
		affected := c.affectedSets()
		check := func(parent []int32, tr int32, succ []byte) {
			firings++
			got := c.appendDerivedEnabled(nil, parent, affected[tr], succ)
			if want := c.enabledList(nil, succ); !slices.Equal(got, want) {
				t.Fatalf("%s: firing %s derives enabled %v, full scan %v", tc.name, tc.n.transitions[tr].Name, got, want)
			}
		}
		for _, reduce := range []bool{false, true} {
			whole, err := c.exploreGraphFullScan(1<<20, fp, reduce, check)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, budget := range []int{1 << 20, (whole.n + 1) / 2, 3} {
				label := fmt.Sprintf("%s/reduce=%v/max=%d", tc.name, reduce, budget)
				want, err := c.exploreGraphFullScan(budget, fp, reduce, nil)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				got, err := c.exploreGraph(context.Background(), budget, fp, reduce)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if diffs := diffGraphs(got, want); len(diffs) > 0 {
					t.Errorf("%s: %v", label, diffs)
				}
				if want.truncated {
					truncated++
				}
			}
		}
	}
	if truncated == 0 {
		t.Error("no exploration of the corpus was truncated")
	}
	t.Logf("%d nets, %d firings checked, %d truncated explorations", len(nets), firings, truncated)
}
