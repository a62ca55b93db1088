// Per-port circuit breaking for the Bus. A breaker guards one
// (service, port) pair: after Threshold consecutive faulted callbacks
// the port opens and invocations fast-fail without reaching the
// service goroutine; once Cooldown elapses a single probe invocation
// is admitted (half-open), and its outcome either closes the breaker
// or re-opens it for another cooldown. Fast-failed invocations still
// surface as callbacks (wrapping ErrBreakerOpen) so the process-side
// conversation observes the failure like any other fault — the bus
// stays an asynchronous fabric.
package services

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dscweaver/internal/obs"
)

// ErrBreakerOpen is wrapped by the fast-fail callback an open breaker
// delivers. It classifies as transient for retry purposes: the fault
// is the guarded backend's, not the request's, and a later attempt may
// land after the cooldown.
var ErrBreakerOpen = errors.New("circuit breaker open")

// BreakerConfig tunes the per-port circuit breakers.
type BreakerConfig struct {
	// Threshold is the number of consecutive faulted callbacks that
	// opens a port's breaker (default 5 when <= 0).
	Threshold int
	// Cooldown is how long an open breaker rejects invocations before
	// admitting a half-open probe (default 1s when <= 0).
	Cooldown time.Duration
}

func (c BreakerConfig) normalize() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	return c
}

// Breaker states, exported through the bus_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// breaker is the state machine for one (service, port) pair. Its own
// mutex decouples invoke-side admission checks from the service
// goroutine recording outcomes.
type breaker struct {
	mu       sync.Mutex
	state    int
	consec   int       // consecutive faults while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // half-open: one probe is in flight
}

// breakerSet owns the per-port breakers of one bus.
type breakerSet struct {
	cfg    BreakerConfig
	mu     sync.Mutex
	byPort map[string]*breaker
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	return &breakerSet{cfg: cfg.normalize(), byPort: map[string]*breaker{}}
}

func (bs *breakerSet) get(service, port string) *breaker {
	key := service + "\x00" + port
	bs.mu.Lock()
	defer bs.mu.Unlock()
	br := bs.byPort[key]
	if br == nil {
		br = &breaker{}
		bs.byPort[key] = br
	}
	return br
}

// breakerTransition reports what a state-machine step did, so the Bus
// can emit its metrics and events for it.
type breakerTransition int

const (
	breakerSame     breakerTransition = iota
	breakerWentHalf                   // open → half-open (probe admitted)
	breakerTripped                    // closed/half-open → open
	breakerReclosed                   // half-open/open → closed
)

// admit decides whether one invocation may proceed: true while closed,
// true exactly once per cooldown as the half-open probe, false
// otherwise. A breakerWentHalf transition means this admission moved
// the breaker to half-open.
func (br *breaker) admit(cfg BreakerConfig) (bool, breakerTransition) {
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerClosed:
		return true, breakerSame
	case breakerHalfOpen:
		if br.probing {
			return false, breakerSame
		}
		br.probing = true
		return true, breakerSame
	default: // breakerOpen
		if time.Since(br.openedAt) < cfg.Cooldown {
			return false, breakerSame
		}
		// Cooldown elapsed: half-open, admit this invocation as the probe.
		br.state = breakerHalfOpen
		br.probing = true
		return true, breakerWentHalf
	}
}

// record feeds one invocation's verdict into the machine. The returned
// consec is the consecutive-fault count at a trip, and probeFailed
// marks a trip caused by a failed half-open probe (for event detail).
func (br *breaker) record(faulted bool, cfg BreakerConfig) (tr breakerTransition, consec int, probeFailed bool) {
	br.mu.Lock()
	defer br.mu.Unlock()
	if faulted {
		wasHalfOpen := br.state == breakerHalfOpen
		br.consec++
		if br.state == breakerClosed && br.consec < cfg.Threshold {
			return breakerSame, br.consec, false
		}
		// Trip: threshold reached, or the half-open probe failed.
		br.state = breakerOpen
		br.openedAt = time.Now()
		br.probing = false
		return breakerTripped, br.consec, wasHalfOpen
	}
	wasOpenish := br.state != breakerClosed
	br.state = breakerClosed
	br.consec = 0
	br.probing = false
	if wasOpenish {
		return breakerReclosed, 0, false
	}
	return breakerSame, 0, false
}

// WithBreaker arms per-port circuit breaking. Call before traffic
// flows (like Observe); the configuration applies to every port on
// the bus.
func (b *Bus) WithBreaker(cfg BreakerConfig) *Bus {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.breakers = newBreakerSet(cfg)
	return b
}

// breakerGauge resolves the state gauge for a port; nil when
// uninstrumented.
func (b *Bus) breakerGauge(service, port string) *obs.Gauge {
	if b.reg == nil {
		return nil
	}
	return b.reg.Gauge("bus_breaker_state", "service", service, "port", port)
}

// admitBreaker decides whether an invocation may proceed. It returns
// true to admit (closed, or the single half-open probe) and false to
// fast-fail. Called with b.inflight held by Invoke, so a delivered
// fast-fail callback cannot race Close's inbox teardown.
func (b *Bus) admitBreaker(service, port string) bool {
	bs := b.breakers
	ok, tr := bs.get(service, port).admit(bs.cfg)
	if tr == breakerWentHalf {
		if g := b.breakerGauge(service, port); g != nil {
			g.Set(breakerHalfOpen)
		}
		b.emit(obs.Event{Kind: obs.EvBreakerHalfOpen, Service: service, Port: port})
	}
	return ok
}

// fastFail delivers the breaker-open callback for a rejected
// invocation without involving the service goroutine.
func (b *Bus) fastFail(service, port string) {
	if b.reg != nil {
		b.reg.Counter("bus_breaker_fastfail_total", "service", service, "port", port).Inc()
	}
	b.deliver(Callback{Service: service, Tag: port,
		Err: fmt.Errorf("services: %s.%s: %w", service, port, ErrBreakerOpen)})
}

// recordOutcome feeds a processed invocation's verdict into the port's
// breaker. Runs on the service goroutine, after process delivered the
// callback(s).
func (b *Bus) recordOutcome(service, port string, faulted bool) {
	if b.breakers == nil {
		return
	}
	bs := b.breakers
	switch tr, consec, probeFailed := bs.get(service, port).record(faulted, bs.cfg); tr {
	case breakerTripped:
		if b.reg != nil {
			b.reg.Counter("bus_breaker_trips_total", "service", service, "port", port).Inc()
		}
		if g := b.breakerGauge(service, port); g != nil {
			g.Set(breakerOpen)
		}
		ev := obs.Event{Kind: obs.EvBreakerOpen, Service: service, Port: port, Value: float64(consec)}
		if probeFailed {
			ev.Detail = "probe failed"
		}
		b.emit(ev)
	case breakerReclosed:
		if g := b.breakerGauge(service, port); g != nil {
			g.Set(breakerClosed)
		}
		b.emit(obs.Event{Kind: obs.EvBreakerClose, Service: service, Port: port})
	}
}
