package main

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// perLayerCatalog lists the metrics of a traced run's result line.
// Every workload reports all of them; a layer the workload does not
// reach reads 0. A _ms metric is the mean self time per call: span
// time minus the time its child spans cover.
var perLayerCatalog = []catalogEntry{
	{"server.unaccounted_ms.weave", "ms"},
	{"server.unaccounted_ms.simulate", "ms"},
	{"server.unaccounted_ms.enact", "ms"},
	{"server.unaccounted_ms.runs", "ms"},
	{"server.unaccounted_ms.events", "ms"},
	{"server.decode_ms", "ms"},
	{"server.admission_ms", "ms"},
	{"server.ring_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.shed_total", "count"},
	{"server.queue_depth_max", "count"},
	{"dscl.parse_ms", "ms"},
	{"dscl.source_bytes", "bytes"},
	{"core.merge_ms", "ms"},
	{"core.desugar_ms", "ms"},
	{"core.translate_ms", "ms"},
	{"core.minimize_ms", "ms"},
	{"core.minimize.equivalence_checks", "count"},
	{"core.minimize.pair_comparisons", "count"},
	{"core.minimize.closure_cache_hit_ratio", "ratio"},
	{"core.minimize.verdict_cache_hit_ratio", "ratio"},
	{"core.minimize.respeculated", "count"},
	{"core.minimize.workers", "count"},
	{"core.constraints.translated", "count"},
	{"core.constraints.minimal", "count"},
	{"petri.validate_ms", "ms"},
	{"petri.states", "count"},
	{"petri.method.fastpath", "count"},
	{"petri.method.reduced", "count"},
	{"petri.method.full", "count"},
	{"petri.method.parallel", "count"},
	{"petri.method.parallel_reduced", "count"},
	{"petri.method.reference", "count"},
	{"bpel.generate_ms", "ms"},
	{"bpel.xml_bytes", "bytes"},
	{"decentral.place_ms", "ms"},
	{"decentral.cross_edges", "count"},
	{"schedule.run_ms", "ms"},
	{"schedule.trace_validate_ms", "ms"},
	{"schedule.executed", "count"},
	{"schedule.max_parallel", "count"},
	{"services.bus.invocations", "count"},
	{"services.bus.faults", "count"},
	{"services.transport.roundtrip_ms", "ms"},
	{"services.transport.frames", "count"},
	{"services.transport.retries", "count"},
	{"enact.run_ms", "ms"},
	{"enact.edge_messages", "count"},
	{"enact.outcome_messages", "count"},
	{"store.append_ms", "ms"},
	{"store.bytes_per_run", "bytes"},
	{"store.events_read_ms", "ms"},
	{"store.list_ms", "ms"},
	{"store.segments", "count"},
	{"obs.events_per_run", "count"},
	{"trace.overhead_ms", "ms"},
}

// fabricStats times every enactment frame through a round tripper
// plugged into server.Config.FabricWrap (and into the replica's own
// transport client).
type fabricStats struct {
	frames, failed, nanos atomic.Int64
}

func (f *fabricStats) wrap(_ string, inner http.RoundTripper) http.RoundTripper {
	return timedRT{inner: inner, f: f}
}

type timedRT struct {
	inner http.RoundTripper
	f     *fabricStats
}

// RoundTrip counts a frame that fails or is refused as one retry: the
// transport sends it again.
func (t timedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	began := time.Now()
	resp, err := t.inner.RoundTrip(req)
	t.f.nanos.Add(int64(time.Since(began)))
	t.f.frames.Add(1)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.f.failed.Add(1)
	}
	return resp, err
}

// tracedRun replays the untraced loop's operation stream — the same
// per-client seeds and operation counts — against a traced replica
// backed by a fresh store and verdict cache, with a fresh real
// dscweaverd as the enact peer, and returns the per-layer metrics.
func tracedRun(cfg config, spec workloadSpec, sources []*source, hy *hygiene, hc *http.Client, plain *phase) (*phase, map[string]metric, error) {
	tr := newTracer()
	fab := &fabricStats{}
	var peer *daemon
	var peerURL string
	if usesOp(spec, opEnact) {
		var err error
		if peer, err = startDaemon(hy, cfg.tmp, fab.wrap); err != nil {
			return nil, nil, err
		}
		peerURL = peer.url
	}
	stopPeer := func() error {
		if peer == nil {
			return nil
		}
		return peer.stop()
	}
	dir, err := hy.tempDir(cfg.tmp)
	if err != nil {
		return nil, nil, errors.Join(err, stopPeer())
	}
	fabric := &http.Client{Transport: fab.wrap("coord", http.DefaultTransport)}
	rep, err := newReplica(tr, filepath.Join(dir, "store"), runtime.GOMAXPROCS(0), fabric, hc)
	if err != nil {
		return nil, nil, errors.Join(err, stopPeer(), os.RemoveAll(dir))
	}
	ep, err := hy.listen(rep.handler())
	if err != nil {
		return nil, nil, errors.Join(err, rep.close(), stopPeer(), os.RemoveAll(dir))
	}

	limits := make([]int, len(plain.stats))
	for c, st := range plain.stats {
		limits[c] = st.ops
	}
	traced := drive(newLoadgen(spec, cfg.seed, sources, ep.url(), peerURL, hc, tr), cfg.seconds, limits)
	err = errors.Join(ep.stop(), rep.close())
	var peerBus, peerFaults int64
	if peer != nil {
		peerBus = peer.srv.Registry().Counter("bus_invocations_total").Value()
		peerFaults = peer.srv.Registry().Counter("bus_faults_total").Value()
	}
	storeBytes := dirBytes(filepath.Join(dir, "store"))
	if err = errors.Join(err, stopPeer(), os.RemoveAll(dir)); err != nil {
		return nil, nil, err
	}

	self := tr.selfByName()
	v := map[string]float64{}
	for _, o := range allOps {
		v["server.unaccounted_ms."+string(o)] = self["root."+string(o)]
	}
	for _, name := range []string{
		"server.decode", "server.admission", "server.ring", "server.encode",
		"dscl.parse", "core.merge", "core.desugar", "core.translate", "core.minimize",
		"petri.validate", "bpel.generate", "decentral.place",
		"schedule.run", "schedule.trace_validate", "enact.run",
	} {
		v[name+"_ms"] = self[name]
	}
	v["store.events_read_ms"] = self["store.events"]
	v["store.list_ms"] = self["store.list"]
	for _, name := range []string{
		"dscl.source_bytes", "core.minimize.equivalence_checks", "core.minimize.pair_comparisons",
		"core.minimize.verdict_cache_hit_ratio", "core.minimize.respeculated", "core.minimize.workers",
		"core.constraints.translated", "core.constraints.minimal", "petri.states", "bpel.xml_bytes",
		"decentral.cross_edges", "schedule.executed", "schedule.max_parallel",
		"enact.edge_messages", "enact.outcome_messages", "store.append_ms", "obs.events_per_run",
	} {
		v[name] = tr.tally(name).mean()
	}
	for _, k := range []string{"fastpath", "reduced", "full", "parallel", "parallel_reduced", "reference"} {
		v["petri.method."+k] = tr.tally("petri.method." + k).sum
	}
	if lookups := tr.tally("core.minimize.closure_cache_lookups").sum; lookups > 0 {
		v["core.minimize.closure_cache_hit_ratio"] = tr.tally("core.minimize.closure_cache_hits").sum / lookups
	}
	if runs := float64(tr.tally("schedule.executed").n + tr.tally("enact.edge_messages").n); runs > 0 {
		v["services.bus.invocations"] = float64(rep.reg.Counter("bus_invocations_total").Value()+peerBus) / runs
		v["services.bus.faults"] = float64(rep.reg.Counter("bus_faults_total").Value()+peerFaults) / runs
	}
	if enacts := float64(tr.tally("enact.edge_messages").n); enacts > 0 {
		v["services.transport.frames"] = float64(fab.frames.Load()) / enacts
		v["services.transport.retries"] = float64(fab.failed.Load()) / enacts
	}
	if frames := fab.frames.Load(); frames > 0 {
		v["services.transport.roundtrip_ms"] = float64(fab.nanos.Load()) / 1e6 / float64(frames)
	}
	if runs := rep.seq; runs > 0 {
		v["store.bytes_per_run"] = float64(storeBytes) / float64(runs)
	}
	v["store.segments"] = float64(rep.reg.Gauge("store_segments").Value())
	v["trace.overhead_ms"] = meanLatencyMS(traced) - meanLatencyMS(plain)

	out := make(map[string]metric, len(perLayerCatalog))
	for _, m := range perLayerCatalog {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return traced, out, nil
}

// meanLatencyMS is the mean latency over every successful operation.
func meanLatencyMS(p *phase) float64 {
	var sum time.Duration
	n := 0
	for _, st := range p.stats {
		for _, lat := range st.lat {
			for _, d := range lat {
				sum += d
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
