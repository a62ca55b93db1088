package schedule

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/services"
)

// Binding wires a process's interaction activities to a services.Bus:
// invoke activities send their first read variable to the declared service
// port; receive activities block until the dispatcher routes a
// callback with a matching (service, tag) pair, where the tag is the
// variable the receive writes. A callback carrying an error — an
// injected fault or a sequential-port violation — fails the run.
type Binding struct {
	bus *services.Bus

	mu      sync.Mutex
	waiters map[string]chan services.Callback
	failed  chan error
	done    chan struct{}
	once    sync.Once
}

// NewBinding starts a dispatcher over the bus's inbox.
func NewBinding(bus *services.Bus) *Binding {
	b := &Binding{
		bus:     bus,
		waiters: map[string]chan services.Callback{},
		failed:  make(chan error, 1),
		done:    make(chan struct{}),
	}
	go b.dispatch()
	return b
}

func key(service, tag string) string { return service + "/" + tag }

func (b *Binding) channel(service, tag string) chan services.Callback {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := key(service, tag)
	ch, ok := b.waiters[k]
	if !ok {
		ch = make(chan services.Callback, 16)
		b.waiters[k] = ch
	}
	return ch
}

func (b *Binding) dispatch() {
	for cb := range b.bus.Inbox() {
		if cb.Err != nil {
			select {
			case b.failed <- cb.Err:
			default:
			}
			continue
		}
		b.channel(cb.Service, cb.Tag) <- cb
	}
	close(b.done)
}

// Close must be called after the bus is closed; it waits for the
// dispatcher to drain.
func (b *Binding) Close() {
	b.once.Do(func() { <-b.done })
}

// Executors builds the executor map for a process:
//
//   - invoke → bus.Invoke(service, port, vars[reads[0]]);
//   - receive with a service endpoint → await the matching callback
//     and store its payload in writes[0];
//   - receive without a service (client request) → read the input
//     variable writes[0] from the store (seeded via Options.Inputs);
//   - decision → branch from the string value of reads[0];
//   - reply/opaque → record into writes (opaque) or leave the reply
//     payload in the store for the caller.
//
// work adds simulated local computation time to every activity.
func (b *Binding) Executors(proc *core.Process, work time.Duration) map[core.ActivityID]Executor {
	out := map[core.ActivityID]Executor{}
	for _, act := range proc.Activities() {
		out[act.ID] = b.executor(act, work)
	}
	return out
}

func (b *Binding) executor(act *core.Activity, work time.Duration) Executor {
	return func(ctx context.Context, a *core.Activity, vars *Vars) (Outcome, error) {
		if work > 0 {
			time.Sleep(work)
		}
		switch a.Kind {
		case core.KindInvoke:
			var payload any
			if len(a.Reads) > 0 {
				payload, _ = vars.Get(a.Reads[0])
			}
			return Outcome{}, b.bus.Invoke(a.Service, a.Port, payload)
		case core.KindReceive:
			if a.Service == "" {
				// Client message: must be seeded as an input.
				if len(a.Writes) > 0 {
					if _, ok := vars.Get(a.Writes[0]); !ok {
						return Outcome{}, fmt.Errorf("no input for client receive %s (variable %s)", a.ID, a.Writes[0])
					}
				}
				return Outcome{}, nil
			}
			tag := ""
			if len(a.Writes) > 0 {
				tag = a.Writes[0]
			}
			ch := b.channel(a.Service, tag)
			select {
			case cb := <-ch:
				if len(a.Writes) > 0 {
					vars.Set(a.Writes[0], cb.Payload)
				}
				return Outcome{}, nil
			case err := <-b.failed:
				// Re-arm for other receives, then fail.
				select {
				case b.failed <- err:
				default:
				}
				return Outcome{}, err
			case <-ctx.Done():
				return Outcome{}, fmt.Errorf("receive %s: %w", a.ID, ctx.Err())
			}
		case core.KindDecision:
			if len(a.Reads) > 0 {
				if v, ok := vars.Get(a.Reads[0]); ok {
					if s, ok := v.(string); ok {
						return Outcome{Branch: s}, nil
					}
				}
			}
			return Outcome{}, fmt.Errorf("decision %s: predicate variable unavailable", a.ID)
		default: // opaque, reply
			for _, w := range a.Writes {
				vars.Set(w, fmt.Sprintf("%s(%s)", a.ID, w))
			}
			return Outcome{}, nil
		}
	}
}

// NoopExecutors builds executors that sleep for work and resolve every
// decision with branch — the synthetic-workload executor of the
// concurrency benches.
func NoopExecutors(proc *core.Process, work time.Duration, branch func(core.ActivityID) string) map[core.ActivityID]Executor {
	out := map[core.ActivityID]Executor{}
	for _, act := range proc.Activities() {
		id := act.ID
		out[id] = func(ctx context.Context, a *core.Activity, vars *Vars) (Outcome, error) {
			if work > 0 {
				time.Sleep(work)
			}
			if a.Kind == core.KindDecision && branch != nil {
				return Outcome{Branch: branch(id)}, nil
			}
			return Outcome{}, nil
		}
	}
	return out
}
