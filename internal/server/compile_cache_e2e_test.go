package server_test

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/server"
	"dscweaver/internal/workload"
)

// servicesSource renders a layered 8×4 process with three services and
// no decision, the shape of perfbench's execute pool.
func servicesSource(seed int64) string {
	w := workload.Layered(8, 4, 0.3, seed).WithShortcuts(4).WithServices(3)
	return dscl.PrintDocument(&dscl.Document{Proc: w.Proc, Deps: w.Deps, Extra: core.NewConstraintSet(w.Proc)})
}

func compileCacheCount(s *server.Server, result string) int64 {
	return s.Registry().Counter("compile_cache_total", "result", result).Value()
}

// TestCompileCacheSharedEntryConcurrentRuns: eight goroutines simulate
// and enact one source off one shared compiled entry, in process and
// across a peer that serves its joins off its own shared entry. Every
// run must be Def.-5-valid and send exactly the predicted edge notes.
// Run under -race, this is the check that no request writes to an
// entry.
func TestCompileCacheSharedEntryConcurrentRuns(t *testing.T) {
	coord, coordSrv := newEnactServer(t)
	peer, peerSrv := newEnactServer(t)
	src := servicesSource(7)
	sim := server.SimulateRequest{WeaveRequest: server.WeaveRequest{Source: src}}
	local := server.EnactRequest{SimulateRequest: sim}
	remote := server.EnactRequest{SimulateRequest: sim, Peers: []string{peer.URL}, SelfURL: coord.URL}

	// Two sightings on each daemon compile the source into its cache.
	for i := 0; i < 2; i++ {
		var er server.EnactResponse
		if code, raw := postJSON(t, coord.URL+"/v1/enact", remote, &er); code != http.StatusOK || !er.Valid {
			t.Fatalf("warm-up enact %d: %d %s", i, code, raw)
		}
	}
	for _, s := range []*server.Server{coordSrv, peerSrv} {
		if got := compileCacheCount(s, "admit"); got != 1 {
			t.Fatalf("compile_cache_total{result=\"admit\"} = %d after warm-up, want 1", got)
		}
	}

	const workers = 8
	errs := make(chan error, 3*workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sr server.SimulateResponse
			if code, raw := postJSON(t, coord.URL+"/v1/simulate", sim, &sr); code != http.StatusOK || !sr.Valid || sr.Error != "" {
				errs <- fmt.Errorf("goroutine %d simulate: %d %s", g, code, raw)
			}
			for _, req := range []server.EnactRequest{local, remote} {
				var er server.EnactResponse
				code, raw := postJSON(t, coord.URL+"/v1/enact", req, &er)
				switch {
				case code != http.StatusOK || !er.Valid || er.Error != "":
					errs <- fmt.Errorf("goroutine %d enact (%d peers): %d %s", g, len(req.Peers), code, raw)
				case er.EdgeMessages != er.PredictedCrossEdges:
					errs <- fmt.Errorf("goroutine %d enact (%d peers): %d edge messages, %d predicted",
						g, len(req.Peers), er.EdgeMessages, er.PredictedCrossEdges)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := compileCacheCount(coordSrv, "hit"); got != 3*workers {
		t.Errorf("coordinator compile_cache_total{result=\"hit\"} = %d, want %d", got, 3*workers)
	}
	if got := compileCacheCount(peerSrv, "hit"); got != workers {
		t.Errorf("peer compile_cache_total{result=\"hit\"} = %d, want %d", got, workers)
	}
}

// TestCompileCacheHitAnswersAsMiss: a weave, simulate or enact served
// from the compile cache answers what the two misses before it did:
// the first sights the source, the second compiles it into the cache.
// Run ids and timings differ, and a weave hit reports a replay
// (verdict_cache_hit, no equivalence checks).
func TestCompileCacheHitAnswersAsMiss(t *testing.T) {
	src := purchasingSource(t)
	sim := server.SimulateRequest{
		WeaveRequest: server.WeaveRequest{Source: src},
		Branches:     map[string]string{"if_au": "T"},
	}
	// post sends one request three times to a fresh daemon.
	post := func(route string, req any, out [3]any) {
		t.Helper()
		ts, s := newEnactServer(t)
		for i := range out {
			if code, raw := postJSON(t, ts.URL+route, req, out[i]); code != http.StatusOK {
				t.Fatalf("%s %d: %d %s", route, i, code, raw)
			}
		}
		if miss, hit := compileCacheCount(s, "miss"), compileCacheCount(s, "hit"); miss != 2 || hit != 1 {
			t.Fatalf("%s: %d misses and %d hits, want 2 and 1", route, miss, hit)
		}
	}

	var weaves [3]server.WeaveResponse
	post("/v1/weave", server.WeaveRequest{Source: src, BPEL: true, Structured: true},
		[3]any{&weaves[0], &weaves[1], &weaves[2]})
	hit := weaves[2]
	if !hit.VerdictCacheHit || hit.EquivalenceChecks != 0 {
		t.Errorf("weave hit: verdict_cache_hit=%v, %d checks; want a replay", hit.VerdictCacheHit, hit.EquivalenceChecks)
	}
	for _, miss := range weaves[:2] {
		if miss.VerdictCacheHit || miss.EquivalenceChecks == 0 {
			t.Errorf("missed weave reports a replay: %+v", miss)
		}
		hit.RunID, hit.VerdictCacheHit, hit.EquivalenceChecks = miss.RunID, false, miss.EquivalenceChecks
		if !reflect.DeepEqual(hit, miss) {
			t.Errorf("weave hit differs from a miss:\nmiss: %+v\nhit:  %+v", miss, hit)
		}
	}

	// Timings: run id, makespan, the timestamped trace and the observed
	// parallelism. Executed order follows the schedule, so it is sorted.
	sorted := func(ids []string) []string {
		ids = append([]string(nil), ids...)
		sort.Strings(ids)
		return ids
	}
	var sims [3]server.SimulateResponse
	post("/v1/simulate", sim, [3]any{&sims[0], &sims[1], &sims[2]})
	for i := range sims {
		r := &sims[i]
		r.RunID, r.MakespanNS, r.Trace, r.MaxParallel = "", 0, nil, 0
		r.Executed, r.Skipped = sorted(r.Executed), sorted(r.Skipped)
	}
	for _, miss := range sims[:2] {
		if !reflect.DeepEqual(sims[2], miss) || !miss.Valid {
			t.Errorf("simulate hit differs from a miss:\nmiss: %+v\nhit:  %+v", miss, sims[2])
		}
	}

	var enacts [3]server.EnactResponse
	post("/v1/enact", server.EnactRequest{SimulateRequest: sim, Nodes: 3}, [3]any{&enacts[0], &enacts[1], &enacts[2]})
	for i := range enacts {
		r := &enacts[i]
		r.RunID, r.MakespanNS, r.Trace, r.MaxParallel = "", 0, nil, 0
		r.Executed, r.Skipped = sorted(r.Executed), sorted(r.Skipped)
	}
	for _, miss := range enacts[:2] {
		if !reflect.DeepEqual(enacts[2], miss) || !miss.Valid || miss.EdgeMessages != miss.PredictedCrossEdges {
			t.Errorf("enact hit differs from a miss:\nmiss: %+v\nhit:  %+v", miss, enacts[2])
		}
	}
}
