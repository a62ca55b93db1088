// Package chaos is a deterministic, seed-replayable fault injector
// for the execution layers: it wraps activity executors, service bus
// handlers and weave-pipeline stages with latency spikes, transient
// faults (services.ErrTransient — the retry loop's food) and permanent
// faults (services.ErrPermanent — exactly one attempt), plus a seeded
// plan for external run cancellation.
//
// Determinism: every injection decision is a pure function of (seed,
// operation key, attempt index), computed by hashing rather than drawn
// from a shared PRNG stream. Concurrent goroutines therefore cannot
// perturb each other's draws — the fault pattern for a seed is the
// same regardless of scheduling interleavings, which is what makes a
// failing chaos seed replayable (go test -chaos.seed=N).
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/schedule"
	"dscweaver/internal/services"
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
	// file layer returned by OpenFile (see disk.go): per-write outright
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

// unitDraw is every injector's determinism rule: a uniform [0, 1)
// float that is a pure function of its inputs. FNV-1a stirs a trailing
// byte into the low bits only, and the [0, 1) scaling keeps the high
// 53 — without a finalizer every attempt on one key would draw the
// same value. One splitmix64 round pushes the attempt counter through
// the whole word.
func unitDraw(seed int64, domain, key string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d", seed, domain, key, attempt)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
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
