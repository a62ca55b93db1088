// Command perfbench is dscweaverd's end-to-end benchmark. One process
// builds the daemons in-process with server.New on loopback listeners,
// each over a fresh temp store, drives them over real HTTP with a
// closed loop of two clients, checks every answer, and prints its
// metrics as JSON. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dscweaver/internal/server"
)

// A run sets up at least setupMinReps times and until setupMinTime
// has passed (at most setupMaxReps times), before the measured window
// and again after it. setup_s is the median of all of them, so a cheap
// set-up is timed often enough for its median to be steady.
const (
	setupMinReps = 5
	setupMaxReps = 101
	setupMinTime = 500 * time.Millisecond
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	tmp      string
	commit   string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, read by whoever runs the
// benchmark.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: the host stamp, the workload's shape,
// every per-operation figure with its sample count, and the first
// failures.
type report struct {
	Workload string                  `json:"workload"`
	Seed     int64                   `json:"seed"`
	Trace    bool                    `json:"trace"`
	Host     map[string]any          `json:"host"`
	Shape    string                  `json:"shape"`
	Clients  int                     `json:"clients"`
	Seconds  float64                 `json:"seconds"`
	Figures  map[string]sampleMetric `json:"figures"`
	Errors   []string                `json:"errors,omitempty"`
}

type sampleMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

func main() {
	baseline := runtime.NumGoroutine()
	var cfg config
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "serve-mixed, weave-heavy or execute")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.root, "root", ".", "repository root, for the purchasing fixture")
	flag.StringVar(&cfg.tmp, "tmp", "", "parent of the temp stores (default: the system temp dir)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, for the host stamp")
	flag.Parse()
	if flag.NArg() != 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rep, res, err := run(cfg, baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", line)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// run measures one workload and, only once every server, listener,
// goroutine and temp dir it made is gone, returns its figures.
func run(cfg config, baseline int) (*report, *result, error) {
	spec, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	if cfg.tmp == "" {
		cfg.tmp = os.TempDir()
	}
	hy := &hygiene{baseline: baseline}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}, Timeout: time.Minute}
	rep, res, err := measure(cfg, spec, hy, hc)
	hc.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if herr := hy.check(); herr != nil {
		err = errors.Join(err, herr)
	}
	if err != nil {
		return nil, nil, err
	}
	return rep, res, nil
}

// deployment is the set of servers one phase talks to.
type deployment struct {
	main, peer *daemon
}

func (d *deployment) stop() error {
	var err error
	for _, dm := range []*daemon{d.main, d.peer} {
		if dm != nil {
			err = errors.Join(err, dm.stop())
		}
	}
	return err
}

func deploy(hy *hygiene, tmp string, spec workloadSpec, wrap func(string, http.RoundTripper) http.RoundTripper) (*deployment, error) {
	d := &deployment{}
	var err error
	if d.main, err = startDaemon(hy, tmp, nil); err != nil {
		return nil, err
	}
	if usesOp(spec, opEnact) {
		if d.peer, err = startDaemon(hy, tmp, wrap); err != nil {
			return nil, errors.Join(err, d.stop())
		}
	}
	return d, nil
}

func usesOp(spec workloadSpec, o op) bool {
	for _, w := range spec.mix {
		if w.op == o {
			return true
		}
	}
	return false
}

// setup builds the inputs, their reference answers and a fresh
// deployment, repeatedly, and returns every set-up time. With keep it
// leaves the last deployment running and returns it; otherwise it stops
// them all.
func setup(cfg config, spec workloadSpec, hy *hygiene, keep bool) ([]*source, *deployment, []float64, error) {
	var times []float64
	first := time.Now()
	for {
		began := time.Now()
		sources, err := pool(spec.name, cfg.seed, cfg.root)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, s := range sources {
			if err := s.prepare(); err != nil {
				return nil, nil, nil, err
			}
		}
		dep, err := deploy(hy, cfg.tmp, spec, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(began).Seconds())
		done := len(times) == setupMaxReps || len(times) >= setupMinReps && time.Since(first) >= setupMinTime
		if done && keep {
			return sources, dep, times, nil
		}
		if err := dep.stop(); err != nil {
			return nil, nil, nil, err
		}
		if done {
			return nil, nil, times, nil
		}
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// phase is one closed loop's outcome.
type phase struct {
	stats   []*clientStats
	elapsed time.Duration
	cpu     time.Duration // user+system CPU time of the process in the loop
	failed  int
	errs    []string
}

func (p *phase) totals() (attempted, failed, ok int) {
	failed = p.failed
	for _, st := range p.stats {
		for _, o := range allOps {
			attempted += st.attempted[o]
			failed += st.failed[o]
			ok += len(st.lat[o])
		}
	}
	return attempted, failed, ok
}

func (p *phase) errors() []string {
	var out []string
	for _, st := range p.stats {
		out = append(out, st.errs...)
	}
	return append(out, p.errs...)
}

func drive(d *loadgen, seconds float64, limits []int) *phase {
	began, cpu0 := time.Now(), cpuTime()
	window := time.Duration(seconds * float64(time.Second))
	stats := d.loop(began.Add(window), began.Add(2*window), limits)
	p := &phase{stats: stats, elapsed: time.Since(began), cpu: cpuTime() - cpu0}
	p.failed, p.errs = d.finish()
	return p
}

func measure(cfg config, spec workloadSpec, hy *hygiene, hc *http.Client) (*report, *result, error) {
	sources, dep, setupTimes, err := setup(cfg, spec, hy, true)
	if err != nil {
		return nil, nil, err
	}
	var peer string
	if dep.peer != nil {
		peer = dep.peer.url
	}
	lg := newLoadgen(spec, cfg.seed, sources, dep.main.url, peer, hc, nil)
	var sampler *scraper
	if cfg.trace {
		sampler = startScraper(hc, dep.main.url)
	}
	plain := drive(lg, cfg.seconds, nil)
	var scraped scrapeResult
	if sampler != nil {
		scraped, err = sampler.stop()
	}
	if err = errors.Join(err, dep.stop()); err != nil {
		return nil, nil, err
	}
	// Setting up again after the window samples the host at a second
	// moment, so one slow or fast second does not decide setup_s.
	_, _, after, err := setup(cfg, spec, hy, false)
	if err != nil {
		return nil, nil, err
	}
	setupS := median(append(setupTimes, after...))

	rep := &report{
		Workload: spec.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Host: map[string]any{
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"go_version":  runtime.Version(),
			"commit":      cfg.commit,
			"store_fsync": false,
			"flush":       "StoreFsync off, the daemon default: runs are flushed to the OS, not synced",
		},
		Shape:   spec.shape,
		Clients: clients,
		Seconds: cfg.seconds,
		Figures: endToEnd(spec, plain, setupS),
	}
	attempted, failed, _ := plain.totals()
	rep.Errors = plain.errors()
	var metrics map[string]metric
	if !cfg.trace {
		metrics = map[string]metric{}
		for _, m := range endToEndCatalog {
			f := rep.Figures[m.name]
			metrics[m.name] = metric{Value: f.Value, Unit: f.Unit}
		}
	} else {
		traced, layers, err := tracedRun(cfg, spec, sources, hy, hc, plain)
		if err != nil {
			return nil, nil, err
		}
		a, f, _ := traced.totals()
		attempted += a
		failed += f
		rep.Errors = append(rep.Errors, traced.errors()...)
		layers["server.shed_total"] = metric{scraped.shed, "count"}
		layers["server.queue_depth_max"] = metric{scraped.depthMax, "count"}
		metrics = layers
	}
	return rep, &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// catalogEntry is one metric name with its unit.
type catalogEntry struct{ name, unit string }

// endToEndCatalog lists the metrics of an untraced run's result line;
// every workload reports all of them.
var endToEndCatalog = []catalogEntry{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_gmean_ms", "ms"},
	{"latency_p95_gmean_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"cpu_ms_per_op", "ms"},
}

// endToEnd computes every end-to-end figure of an untraced loop,
// including the per-operation percentiles with their sample counts.
func endToEnd(spec workloadSpec, p *phase, setupS float64) map[string]sampleMetric {
	attempted, failed, ok := p.totals()
	out := map[string]sampleMetric{
		"setup_s":          {Value: setupS, Unit: "s"},
		"throughput_ops_s": {Value: float64(ok) / p.elapsed.Seconds(), Unit: "1/s", Samples: ok},
		"error_ratio":      {Value: float64(failed) / float64(max(attempted, 1)), Unit: "ratio", Samples: attempted},
		"peak_rss_mib":     {Value: peakRSSMiB(), Unit: "MiB"},
		"cpu_ms_per_op":    {Value: ms(p.cpu) / float64(max(ok, 1)), Unit: "ms", Samples: ok},
	}
	sum := summarize(p.stats)
	logP50, logP95, n := 0.0, 0.0, 0
	for _, w := range spec.mix {
		s := sum[w.op]
		out[string(w.op)+"_p50_ms"] = sampleMetric{Value: ms(s.p50), Unit: "ms", Samples: s.n}
		out[string(w.op)+"_p95_ms"] = sampleMetric{Value: ms(s.p95), Unit: "ms", Samples: s.n}
		if s.n > 0 {
			logP50 += math.Log(ms(s.p50))
			logP95 += math.Log(ms(s.p95))
			n++
		}
	}
	if n > 0 {
		out["latency_p50_gmean_ms"] = sampleMetric{Value: math.Exp(logP50 / float64(n)), Unit: "ms"}
		out["latency_p95_gmean_ms"] = sampleMetric{Value: math.Exp(logP95 / float64(n)), Unit: "ms"}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's VmHWM: servers and clients together.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// daemon is one in-process dscweaverd on a loopback listener with its
// own temp store.
type daemon struct {
	srv *server.Server
	ep  *endpoint
	url string
	dir string
}

func startDaemon(hy *hygiene, tmp string, wrap func(string, http.RoundTripper) http.RoundTripper) (*daemon, error) {
	dir, err := hy.tempDir(tmp)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{StoreDir: filepath.Join(dir, "store"), FabricWrap: wrap})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ep, err := hy.listen(srv.Handler())
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(), os.RemoveAll(dir))
	}
	return &daemon{srv: srv, ep: ep, url: ep.url(), dir: dir}, nil
}

// stop closes the listener, drains the server and removes its store.
func (d *daemon) stop() error {
	return errors.Join(d.ep.stop(), d.srv.Shutdown(), os.RemoveAll(d.dir))
}

// endpoint is one loopback listener serving a handler.
type endpoint struct {
	hs     *http.Server
	addr   string
	served chan struct{}
}

func (e *endpoint) url() string { return "http://" + e.addr }

func (e *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	<-e.served
	return err
}

// hygiene remembers every listener and temp dir the run made, and
// checks at the end that all are gone, that no child process exists
// and that the goroutine count is back to its baseline.
type hygiene struct {
	baseline int
	mu       sync.Mutex
	addrs    []string
	dirs     []string
}

func (h *hygiene) tempDir(parent string) (string, error) {
	dir, err := os.MkdirTemp(parent, "perfbench-")
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.dirs = append(h.dirs, dir)
	h.mu.Unlock()
	return dir, nil
}

func (h *hygiene) listen(handler http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{
		hs:     &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	h.mu.Lock()
	h.addrs = append(h.addrs, e.addr)
	h.mu.Unlock()
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return e, nil
}

// leakGrace bounds the wait for goroutines to wind down: connection
// closers and drained engines end in milliseconds.
const leakGrace = 5 * time.Second

func (h *hygiene) check() error {
	var errs []error
	for _, a := range h.addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			errs = append(errs, fmt.Errorf("listener %s still accepts connections", a))
		}
	}
	for _, d := range h.dirs {
		if _, err := os.Stat(d); !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, fmt.Errorf("temp dir %s remains", d))
		}
	}
	if kids := childProcesses(); kids != "" {
		errs = append(errs, fmt.Errorf("child processes remain: %s", kids))
	}
	deadline := time.Now().Add(leakGrace)
	for runtime.NumGoroutine() > h.baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			errs = append(errs, fmt.Errorf("goroutine leak: %d at start, %d at end\n%s",
				h.baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)]))
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.Join(errs...)
}

// childProcesses lists the pids of this process's children, from
// /proc (empty where the kernel does not expose them).
func childProcesses() string {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var kids []string
	for _, f := range files {
		if data, err := os.ReadFile(f); err == nil {
			kids = append(kids, strings.Fields(string(data))...)
		}
	}
	return strings.Join(kids, " ")
}

// scraper samples the daemon's /metrics while the loop runs.
type scraper struct {
	stopc chan struct{}
	done  chan struct{}
	last  scrapeResult // written by the sampling goroutine until done
	err   error
}

type scrapeResult struct{ shed, depthMax float64 }

func startScraper(hc *http.Client, base string) *scraper {
	s := &scraper{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			fam, err := scrapeMetrics(hc, base)
			if err != nil {
				s.err = err
				return
			}
			s.last.depthMax = math.Max(s.last.depthMax, fam["server_queue_depth"])
			s.last.shed = fam["server_shed_total"]
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *scraper) stop() (scrapeResult, error) {
	close(s.stopc)
	<-s.done
	return s.last, s.err
}

// scrapeMetrics reads the unlabelled samples of a Prometheus text page.
func scrapeMetrics(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && !strings.HasPrefix(fields[0], "#") {
			if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
				out[fields[0]] = v
			}
		}
	}
	return out, sc.Err()
}
