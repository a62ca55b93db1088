// Retry policy: classified, jittered, budgeted recovery from executor
// failures — the paper's §3.2 exception scenario ("if an exception
// occurs at invProduction_ss, the execution of replyClient_oi is
// postponed until the exception is fixed") hardened for hostile
// backends. Transient faults are retried with exponential backoff and
// full jitter under an elapsed-time budget; permanent faults stop the
// loop after one attempt, because re-sending a deterministically
// rejected request only burns the budget.
package schedule

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"dscweaver/internal/services"
)

// FaultClass partitions executor errors for the retry loop.
type FaultClass int

const (
	// FaultTransient marks an error worth retrying: the same request
	// may succeed later (timeouts, ErrTransient, an open breaker).
	FaultTransient FaultClass = iota
	// FaultPermanent marks an error that will recur on every attempt
	// (a rejected order, a conversation-contract violation); the retry
	// loop stops immediately.
	FaultPermanent
)

// DefaultClassify is the classifier used when RetryPolicy.Classify is
// nil: errors marked with services.ErrPermanent are permanent,
// everything else — including services.ErrTransient, context timeouts
// from a per-attempt deadline, and services.ErrBreakerOpen — is
// transient.
func DefaultClassify(err error) FaultClass {
	if errors.Is(err, services.ErrPermanent) {
		return FaultPermanent
	}
	return FaultTransient
}

// RetryPolicy controls recovery from executor failures. The zero
// value means no retries; {MaxAttempts: n, Backoff: d} preserves the
// historical fixed-delay behavior.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (≥ 1).
	MaxAttempts int
	// Backoff is the delay before the second attempt; with Multiplier
	// ≤ 1 it is the fixed delay between all attempts.
	Backoff time.Duration
	// Multiplier > 1 grows the delay exponentially per attempt
	// (delay_k = Backoff·Multiplier^(k-1)).
	Multiplier float64
	// MaxBackoff caps a single delay (0 = uncapped).
	MaxBackoff time.Duration
	// Jitter draws each delay uniformly from [0, delay] ("full
	// jitter"), decorrelating retry storms across activities.
	Jitter bool
	// PerAttempt bounds one executor attempt with a context deadline
	// (0 = none). An attempt that exceeds it fails with
	// context.DeadlineExceeded — transient under DefaultClassify — and
	// the loop moves on without killing the run.
	PerAttempt time.Duration
	// MaxElapsed is the retry budget: no backoff sleep begins when the
	// time since the first attempt plus the chosen delay would exceed
	// it (0 = none). The emitted delays therefore always sum below the
	// budget — the invariant the event-log tests assert.
	MaxElapsed time.Duration
	// Classify maps an executor error to a fault class; nil means
	// DefaultClassify.
	Classify func(error) FaultClass
}

// delay computes the backoff to sleep after failed attempt `attempt`
// (1-based), before jitter.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		return 0
	}
	if p.Multiplier > 1 {
		f := float64(d)
		for i := 1; i < attempt; i++ {
			f *= p.Multiplier
			if p.MaxBackoff > 0 && f >= float64(p.MaxBackoff) {
				f = float64(p.MaxBackoff)
				break
			}
		}
		d = time.Duration(f)
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// retryRand is a locked, seeded random source for jitter draws; one
// per engine so replayed chaos runs see a stable stream. The source is
// created on the first draw, so an engine that never jitters never
// seeds one; a given seed draws the same sequence either way.
type retryRand struct {
	mu   sync.Mutex
	seed int64 // 0 = seeded from the clock at the first draw
	rng  *rand.Rand
}

// jitter draws uniformly from [0, d].
func (r *retryRand) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		seed := r.seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		r.rng = rand.New(rand.NewSource(seed))
	}
	return time.Duration(r.rng.Int63n(int64(d) + 1))
}
