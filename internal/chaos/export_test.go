package chaos

// The fault injector for activity executors, service bus handlers,
// weave-pipeline stages, minimizer candidates and the run store's
// files, plus the network plan's in-process fabric wrapper and its
// counters. Only the chaos suites (package chaos_test) drive them, so
// they are test code; the network layer in net.go is what dscweaverd
// runs.
//
// Every decision is a pure function of (seed, operation key, attempt
// index), computed by unitDraw rather than drawn from a shared PRNG
// stream, so concurrent goroutines cannot perturb each other's draws
// and a failing chaos seed replays (go test -chaos.seed=N).

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/enact"
	"dscweaver/internal/schedule"
	"dscweaver/internal/services"
	"dscweaver/internal/store"
)

// Config tunes one injector. Probabilities are per operation (one
// executor attempt, one bus invocation, one pipeline stage); zero
// disables that fault class.
type Config struct {
	// Seed drives every decision; two injectors with the same seed and
	// config inject identically.
	Seed int64
	// PermanentP is the probability of a permanent fault (wrapped with
	// services.ErrPermanent): the operation fails and must not be
	// retried.
	PermanentP float64
	// TransientP is the probability of a transient fault (wrapped with
	// services.ErrTransient): a retry with the same key and the next
	// attempt index draws fresh.
	TransientP float64
	// LatencyP is the probability of a latency spike before the
	// operation, uniform in (0, MaxLatency].
	LatencyP   float64
	MaxLatency time.Duration
	// CancelP is the probability that CancelPlan schedules an external
	// cancellation for a run, uniform in (0, CancelWithin].
	CancelP      float64
	CancelWithin time.Duration
	// DiskErrorP / DiskShortWriteP / DiskSyncFaultP tune the disk-fault
	// file layer returned by OpenFile (below): per-write outright
	// failures, per-write torn writes (half the bytes land), and
	// per-sync fsync faults.
	DiskErrorP      float64
	DiskShortWriteP float64
	DiskSyncFaultP  float64
	// DiskHealAfter, when > 0, stops injecting disk faults once that
	// many have fired (summed across the three classes): the device
	// "recovers". The store's background re-probe heals from exactly
	// this scenario, which is what the heal tests drive.
	DiskHealAfter int64
}

// Stats counts what the injector actually did, for assertions that a
// chaos run exercised the paths it claims to.
type Stats struct {
	Latencies       int64
	Transients      int64
	Permanents      int64
	DiskErrors      int64
	DiskShortWrites int64
	DiskSyncFaults  int64
}

// Injector implements Config. Safe for concurrent use.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	attempts map[string]int // per-key attempt counter
	permAt   map[string]int // first attempt that drew a permanent fault

	latencies       atomic.Int64
	transients      atomic.Int64
	permanents      atomic.Int64
	diskErrors      atomic.Int64
	diskShortWrites atomic.Int64
	diskSyncFaults  atomic.Int64
}

// New builds an injector for one seed.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, attempts: map[string]int{}, permAt: map[string]int{}}
}

// Seed returns the injector's seed (tests print it on failure).
func (in *Injector) Seed() int64 { return in.cfg.Seed }

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Latencies:       in.latencies.Load(),
		Transients:      in.transients.Load(),
		Permanents:      in.permanents.Load(),
		DiskErrors:      in.diskErrors.Load(),
		DiskShortWrites: in.diskShortWrites.Load(),
		DiskSyncFaults:  in.diskSyncFaults.Load(),
	}
}

// draw returns a uniform [0, 1) float deterministic in (seed, domain,
// key, attempt). Distinct domains decorrelate the fault draw from the
// latency draw for the same operation.
func (in *Injector) draw(domain, key string, attempt int) float64 {
	return unitDraw(in.cfg.Seed, domain, key, attempt)
}

// next claims the attempt index for one more operation on key.
func (in *Injector) next(key string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.attempts[key]
	in.attempts[key] = n + 1
	return n
}

// inject performs the seeded decision for one operation: an optional
// latency spike (interruptible by ctx), then nothing, a transient
// fault, or a permanent fault.
func (in *Injector) inject(ctx context.Context, key string) error {
	attempt := in.next(key)
	if in.cfg.LatencyP > 0 && in.cfg.MaxLatency > 0 &&
		in.draw("latency", key, attempt) < in.cfg.LatencyP {
		d := time.Duration(in.draw("latency_dur", key, attempt) * float64(in.cfg.MaxLatency))
		in.latencies.Add(1)
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	switch u := in.draw("fault", key, attempt); {
	case u < in.cfg.PermanentP:
		in.permanents.Add(1)
		in.mu.Lock()
		if _, ok := in.permAt[key]; !ok {
			in.permAt[key] = attempt
		}
		in.mu.Unlock()
		return services.Permanent(fmt.Errorf("chaos: permanent fault at %s attempt %d (seed %d)", key, attempt, in.cfg.Seed))
	case u < in.cfg.PermanentP+in.cfg.TransientP:
		in.transients.Add(1)
		return fmt.Errorf("chaos: %s attempt %d (seed %d): %w", key, attempt, in.cfg.Seed, services.ErrTransient)
	}
	return nil
}

// WrapExecutors returns executors that run the seeded injection before
// delegating: a latency spike delays the activity, an injected fault
// fails the attempt (and, for transient faults under a retry policy,
// the next attempt draws independently).
func (in *Injector) WrapExecutors(execs map[core.ActivityID]schedule.Executor) map[core.ActivityID]schedule.Executor {
	out := make(map[core.ActivityID]schedule.Executor, len(execs))
	for id, inner := range execs {
		id, inner := id, inner
		out[id] = func(ctx context.Context, act *core.Activity, vars *schedule.Vars) (schedule.Outcome, error) {
			if err := in.inject(ctx, "exec/"+string(id)); err != nil {
				return schedule.Outcome{}, err
			}
			return inner(ctx, act, vars)
		}
	}
	return out
}

// WrapService returns cfg with its handler wrapped in the seeded
// injection, keyed per (service, port) — the same key the bus's
// circuit breaker trips on. Handler latency spikes run inside the
// service goroutine, modeling a slow backend.
func (in *Injector) WrapService(cfg services.Config) services.Config {
	inner := cfg.Handle
	name := cfg.Name
	cfg.Handle = func(c *services.Call) ([]services.Emit, error) {
		if err := in.inject(context.Background(), "svc/"+name+"."+c.Port); err != nil {
			return nil, err
		}
		if inner == nil {
			return nil, nil
		}
		return inner(c)
	}
	return cfg
}

// StageHook returns a weave.Options.StageHook injecting latency and
// faults at pipeline stage boundaries, keyed per stage name.
func (in *Injector) StageHook() func(ctx context.Context, stage string) error {
	return func(ctx context.Context, stage string) error {
		return in.inject(ctx, "stage/"+stage)
	}
}

// MinimizeHook returns a core.MinimizeOptions.CandidateHook injecting
// latency and faults into the minimizer's candidate engine, keyed per
// constraint — every evaluation of one candidate advances that key's
// attempt index. Latency spikes skew the timing of each check; fault
// draws abort the run. Latency-only configs must leave the minimal set
// bit-identical, which is what the chaos property tests pin.
func (in *Injector) MinimizeHook() core.CandidateHook {
	return func(ctx context.Context, c core.Constraint) error {
		return in.inject(ctx, "minimize/"+c.String())
	}
}

// PermanentAttempt reports the first attempt index at which the
// injector actually returned a permanent fault for key. Tests use it
// to assert "permanent fault → no attempt past it": whatever retries
// a policy allows, the attempt count for key must be exactly the
// returned index plus one.
func (in *Injector) PermanentAttempt(key string) (int, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	at, ok := in.permAt[key]
	return at, ok
}

// CancelPlan decides, deterministically for this seed, whether the
// operation named key should be externally cancelled and after how
// long. Callers arm a timer with the returned delay against the run's
// context.
func (in *Injector) CancelPlan(key string) (time.Duration, bool) {
	if in.cfg.CancelP <= 0 || in.cfg.CancelWithin <= 0 {
		return 0, false
	}
	if in.draw("cancel", key, 0) >= in.cfg.CancelP {
		return 0, false
	}
	frac := in.draw("cancel_at", key, 0)
	return time.Duration(frac * float64(in.cfg.CancelWithin)), true
}

// Disk-fault injection for the persistent run store: the injector
// substitutes store.Options.OpenFile with a wrapper whose writes and
// syncs fail deterministically in (seed, file, operation index) —
// short writes (a torn tail on disk), outright ENOSPC-style write
// errors, and fsync faults. The store must degrade to memory-only
// serving, never crash and never serve the torn bytes; the 12-seed
// suite in disk_chaos_test.go pins that contract end to end.

// ErrDisk marks every injected disk fault; errors.Is detects them in
// assertions and distinguishes injected faults from real I/O errors.
var ErrDisk = errors.New("chaos: disk fault")

// OpenFile returns a store.Options.OpenFile whose files inject the
// configured disk faults. Each write claims one attempt index on the
// key "disk/<basename>", so the fault pattern for a seed is a pure
// function of the byte stream the store produces — replayable whatever
// goroutine interleaving drove the writes. Inner files come from open
// (nil = the real filesystem).
func (in *Injector) OpenFile(open func(path string) (store.File, error)) func(path string) (store.File, error) {
	if open == nil {
		open = store.OSOpenFile
	}
	return func(path string) (store.File, error) {
		f, err := open(path)
		if err != nil {
			return nil, err
		}
		return &chaosFile{in: in, key: "disk/" + filepath.Base(path), f: f}, nil
	}
}

// chaosFile wraps one store file with seeded write/sync faults.
type chaosFile struct {
	in  *Injector
	key string
	f   store.File
}

// diskHealed reports whether the configured heal threshold has been
// reached: past it the "device" works again and no disk fault class
// injects.
func (in *Injector) diskHealed() bool {
	if in.cfg.DiskHealAfter <= 0 {
		return false
	}
	total := in.diskErrors.Load() + in.diskShortWrites.Load() + in.diskSyncFaults.Load()
	return total >= in.cfg.DiskHealAfter
}

func (c *chaosFile) Write(p []byte) (int, error) {
	in := c.in
	attempt := in.next(c.key)
	if in.diskHealed() {
		return c.f.Write(p)
	}
	switch u := in.draw("disk", c.key, attempt); {
	case u < in.cfg.DiskErrorP:
		in.diskErrors.Add(1)
		return 0, fmt.Errorf("chaos: write %s attempt %d (seed %d): %w",
			c.key, attempt, in.cfg.Seed, ErrDisk)
	case u < in.cfg.DiskErrorP+in.cfg.DiskShortWriteP && len(p) > 1:
		// A torn write: half the bytes land on disk, then the device
		// gives out. Recovery must quarantine the half-line.
		in.diskShortWrites.Add(1)
		n, _ := c.f.Write(p[: len(p)/2 : len(p)/2])
		return n, fmt.Errorf("chaos: short write %s attempt %d (seed %d, %d/%d bytes): %w",
			c.key, attempt, in.cfg.Seed, n, len(p), ErrDisk)
	}
	return c.f.Write(p)
}

func (c *chaosFile) Sync() error {
	in := c.in
	if in.cfg.DiskSyncFaultP > 0 && !in.diskHealed() &&
		in.draw("disk_sync", c.key, in.next(c.key+"#sync")) < in.cfg.DiskSyncFaultP {
		in.diskSyncFaults.Add(1)
		return fmt.Errorf("chaos: fsync %s (seed %d): %w", c.key, in.cfg.Seed, ErrDisk)
	}
	return c.f.Sync()
}

// Close never injects: a store that cannot close files would leak
// descriptors across a 12-seed suite without testing anything new.
func (c *chaosFile) Close() error { return c.f.Close() }

// NetStats counts what the layer actually injected, so tests can
// assert a chaos run exercised the faults its plan claims.
type NetStats struct {
	Dropped     int64 // sends failed before reaching the peer
	Lost        int64 // responses discarded after delivery
	Duplicated  int64 // delivered frames re-sent
	Delayed     int64 // sends stalled
	Partitioned int64 // sends refused inside a partition window
	Healed      int64 // links whose partition window elapsed
}

// Stats snapshots the injection counters.
func (n *Net) Stats() NetStats {
	return NetStats{
		Dropped:     n.dropped.Load(),
		Lost:        n.lost.Load(),
		Duplicated:  n.duplicated.Load(),
		Delayed:     n.delayed.Load(),
		Partitioned: n.partitioned.Load(),
		Healed:      n.healed.Load(),
	}
}

// Fabric wraps an enact.Fabric with this plan's faults for in-process
// enactments: drops lose the note outright (the run must fail by engine
// timeout, not hang), duplicates deliver it twice (the board's
// idempotent applyRemote must absorb the copy), delays deliver it late
// and out of order, and a partitioned link fails sends with the typed
// enact.PartitionedPeerError. The sending side of a link is the note's
// committing host, the receiving side the Send target. Close waits for
// delayed deliveries before closing the inner fabric, so a reordered
// note is late, never leaked.
func (n *Net) Fabric(inner enact.Fabric) enact.Fabric {
	return &netFabric{net: n, inner: inner}
}

type netFabric struct {
	net   *Net
	inner enact.Fabric
	async sync.WaitGroup // delayed deliveries in flight
}

func (f *netFabric) Register(host string, deliver func(enact.Note)) error {
	return f.inner.Register(host, deliver)
}

func (f *netFabric) Send(host string, note enact.Note) error {
	v, ok := f.net.decide(note.Host, host)
	if !ok {
		return f.inner.Send(host, note)
	}
	switch {
	case v.partition:
		return &enact.PartitionedPeerError{Host: host,
			Err: fmt.Errorf("chaos: link %s>%s partitioned (seed %d)", note.Host, host, f.net.cfg.Seed)}
	case v.drop:
		// The note is gone; the gated engine must fail by its timeout,
		// not hang past it.
		return nil
	}
	if v.delay > 0 {
		f.net.delayed.Add(1)
		f.async.Add(1)
		go func() {
			defer f.async.Done()
			time.Sleep(v.delay)
			f.inner.Send(host, note)
		}()
		return nil
	}
	if err := f.inner.Send(host, note); err != nil {
		return err
	}
	if v.dup || v.lose {
		// Either fault makes the note arrive twice: a duplicate is an
		// extra delivery, a lost ack is a retransmit. The receiving
		// board's applyRemote must absorb the copy.
		f.net.duplicated.Add(1)
		return f.inner.Send(host, note)
	}
	return nil
}

func (f *netFabric) Close() {
	f.async.Wait()
	f.inner.Close()
}
