package services

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dscweaver/internal/obs"
)

// Conversation is the reconstructed interaction timeline of one
// service, rebuilt purely from bus-layer lifecycle events (a JSONL
// log read back with obs.ReadJSONL, or a MemSink). It is the oracle
// the tests below check the bus's event log against. It groups the
// paper's asynchronous conversation shape — invoke → fault* →
// callback — per port: Invokes and Faults are keyed by the invoked
// port, Callbacks by the reply tag the service emitted.
type Conversation struct {
	Service string
	// Up reports whether the log contains the service's registration.
	Up bool
	// Invokes counts invocations per invoked port.
	Invokes map[string]int
	// Faults counts error callbacks per port (fault callbacks carry
	// the port whose invocation failed).
	Faults map[string]int
	// Callbacks counts successful replies per emit tag.
	Callbacks map[string]int
	// Timeline is the service's bus events ordered by monotonic stamp,
	// ties broken by log order.
	Timeline []obs.Event
}

// TotalInvokes sums the per-port invocation counts.
func (c *Conversation) TotalInvokes() int { return sum(c.Invokes) }

// TotalFaults sums the per-port fault counts.
func (c *Conversation) TotalFaults() int { return sum(c.Faults) }

// TotalCallbacks sums the per-tag success-callback counts.
func (c *Conversation) TotalCallbacks() int { return sum(c.Callbacks) }

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Check verifies the invoke → fault* → callback shape the bus
// guarantees: a port can only fault on an invocation that happened,
// and no fault or callback may precede the port's (or service's)
// first invocation in the timeline.
func (c *Conversation) Check() error {
	for port, f := range c.Faults {
		if inv := c.Invokes[port]; f > inv {
			return fmt.Errorf("services: %s.%s: %d faults for %d invocations", c.Service, port, f, inv)
		}
	}
	invoked := map[string]int{}
	for _, e := range c.Timeline {
		switch e.Kind {
		case obs.EvInvoke:
			invoked[e.Port]++
		case obs.EvFault:
			if invoked[e.Port] == 0 {
				return fmt.Errorf("services: %s.%s: fault before any invocation", c.Service, e.Port)
			}
		case obs.EvCallback:
			if len(invoked) == 0 {
				return fmt.Errorf("services: %s: callback %s before any invocation", c.Service, e.Port)
			}
		}
	}
	return nil
}

// ConversationFromEvents reconstructs per-service conversations from a
// lifecycle event stream. Events from other layers are ignored, so the
// stream may be a merged process-wide log (engine + bus + minimizer).
// Timelines are re-sorted by the events' monotonic stamps: merged logs
// interleave concurrent emitters, and the stamp — taken before the
// serializing writer lock — is the bus's causal order.
func ConversationFromEvents(events []obs.Event) []*Conversation {
	byService := map[string]*Conversation{}
	order := []string{}
	get := func(name string) *Conversation {
		c, ok := byService[name]
		if !ok {
			c = &Conversation{
				Service: name,
				Invokes: map[string]int{}, Faults: map[string]int{}, Callbacks: map[string]int{},
			}
			byService[name] = c
			order = append(order, name)
		}
		return c
	}
	for _, e := range events {
		if e.Layer != obs.LayerBus || e.Service == "" {
			continue
		}
		c := get(e.Service)
		switch e.Kind {
		case obs.EvServiceUp:
			c.Up = true
		case obs.EvInvoke:
			c.Invokes[e.Port]++
		case obs.EvFault:
			c.Faults[e.Port]++
		case obs.EvCallback:
			c.Callbacks[e.Port]++
		default:
			continue
		}
		c.Timeline = append(c.Timeline, e)
	}
	out := make([]*Conversation, 0, len(order))
	for _, name := range order {
		c := byService[name]
		sort.SliceStable(c.Timeline, func(i, j int) bool { return c.Timeline[i].Mono < c.Timeline[j].Mono })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}

// busCounters reads the three bus counter families from a registry.
func busCounters(reg *obs.Registry) (invocations, deliveries, faults int64) {
	return reg.Counter("bus_invocations_total").Value(),
		reg.Counter("bus_callbacks_total").Value(),
		reg.Counter("bus_faults_total").Value()
}

// checkAgainstRegistry compares a replayed conversation set with the
// live Bus.Observe counters: the event log and the metrics are two
// independent views of the same traffic and must agree exactly.
func checkAgainstRegistry(t *testing.T, convs []*Conversation, reg *obs.Registry, b *Bus) {
	t.Helper()
	var invokes, callbacks, faults int
	for _, c := range convs {
		if err := c.Check(); err != nil {
			t.Errorf("conversation shape: %v", err)
		}
		invokes += c.TotalInvokes()
		callbacks += c.TotalCallbacks()
		faults += c.TotalFaults()
	}
	wantInv, wantDeliv, wantFaults := busCounters(reg)
	if int64(invokes) != wantInv {
		t.Errorf("replayed invokes = %d, registry bus_invocations_total = %d", invokes, wantInv)
	}
	if int64(callbacks+faults) != wantDeliv {
		t.Errorf("replayed deliveries = %d, registry bus_callbacks_total = %d", callbacks+faults, wantDeliv)
	}
	if int64(faults) != wantFaults {
		t.Errorf("replayed faults = %d, registry bus_faults_total = %d", faults, wantFaults)
	}
	delivered, liveFaults := b.Stats()
	if callbacks+faults != delivered || faults != liveFaults {
		t.Errorf("replayed %d deliveries / %d faults, live Stats %d / %d",
			callbacks+faults, faults, delivered, liveFaults)
	}
}

// TestConversationFromEventsRandomizedBusTraffic drives randomized
// service topologies and invocation mixes (faults, transients,
// out-of-order sequential ports) straight at the bus, then replays the
// event log into conversations and cross-checks every count against
// the metrics registry.
func TestConversationFromEventsRandomizedBusTraffic(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			reg := obs.NewRegistry()
			sink := &obs.MemSink{}
			b := NewBus(4096).Observe(reg, sink)

			nServices := 2 + rng.Intn(4)
			type svc struct {
				name  string
				ports []string
			}
			var svcs []svc
			for i := 0; i < nServices; i++ {
				name := fmt.Sprintf("S%d", i)
				nPorts := 1 + rng.Intn(3)
				var ports []string
				for p := 0; p < nPorts; p++ {
					ports = append(ports, fmt.Sprintf("%d", p+1))
				}
				cfg := Config{
					Name: name, Ports: ports,
					Sequential: rng.Intn(3) == 0,
					Latency:    time.Duration(rng.Intn(300)) * time.Microsecond,
				}
				if rng.Intn(3) == 0 {
					cfg.FailOn = map[string]error{ports[rng.Intn(len(ports))]: fmt.Errorf("injected")}
				}
				if rng.Intn(3) == 0 {
					cfg.FailFirst = map[string]int{ports[rng.Intn(len(ports))]: 1 + rng.Intn(3)}
				}
				if rng.Intn(2) == 0 {
					emits := 1 + rng.Intn(2)
					cfg.Handle = func(c *Call) ([]Emit, error) {
						var out []Emit
						for e := 0; e < emits; e++ {
							out = append(out, Emit{Tag: fmt.Sprintf("t%d", e), Payload: c.Seq})
						}
						return out, nil
					}
				}
				if err := b.Register(cfg); err != nil {
					t.Fatal(err)
				}
				svcs = append(svcs, svc{name: name, ports: ports})
			}

			nCalls := 20 + rng.Intn(60)
			for i := 0; i < nCalls; i++ {
				s := svcs[rng.Intn(len(svcs))]
				port := s.ports[rng.Intn(len(s.ports))] // any order: sequential services may fault
				if err := b.Invoke(s.name, port, i); err != nil {
					t.Fatal(err)
				}
			}
			b.Close() // drains every accepted invocation into the buffered inbox

			convs := ConversationFromEvents(sink.Events())
			if len(convs) != nServices {
				t.Fatalf("replayed %d conversations, want %d", len(convs), nServices)
			}
			for _, c := range convs {
				if !c.Up {
					t.Errorf("service %s missing registration event", c.Service)
				}
			}
			checkAgainstRegistry(t, convs, reg, b)
		})
	}
}

// TestConversationFromEventsPurchasingRun replays a live purchasing
// engine run (randomized approve outcome and latency) from its merged
// engine+bus event log; the bus slice must reconstruct the paper's
// conversations and match the registry exactly.
func TestConversationFromEventsPurchasingRun(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			approve := rng.Intn(2) == 0
			latency := time.Duration(rng.Intn(2)) * time.Millisecond

			reg := obs.NewRegistry()
			sink := &obs.MemSink{}
			b := NewBus(0).Observe(reg, sink)
			if err := RegisterPurchasing(b, latency, approve); err != nil {
				t.Fatal(err)
			}
			tr, err := runPurchasing(t, b, approve)
			if err != nil {
				t.Fatalf("purchasing run (approve=%v): %v\n%v", approve, err, tr)
			}
			b.Close()

			convs := ConversationFromEvents(sink.Events())
			checkAgainstRegistry(t, convs, reg, b)

			byName := map[string]*Conversation{}
			for _, c := range convs {
				byName[c.Service] = c
			}
			credit := byName["Credit"]
			if credit == nil || credit.Invokes["1"] != 1 || credit.Callbacks["au"] != 1 {
				t.Fatalf("credit conversation = %+v", credit)
			}
			if approve {
				ship := byName["Ship"]
				if ship == nil || ship.Invokes["1"] != 1 || ship.Callbacks["si"] != 1 || ship.Callbacks["ss"] != 1 {
					t.Errorf("ship conversation = %+v", ship)
				}
				purchase := byName["Purchase"]
				if purchase == nil || purchase.Invokes["1"] != 1 || purchase.Invokes["2"] != 1 || purchase.Callbacks["oi"] != 1 {
					t.Errorf("purchase conversation = %+v", purchase)
				}
				if got := byName["Production"]; got == nil || got.TotalInvokes() != 2 || got.TotalCallbacks() != 0 {
					t.Errorf("production conversation = %+v", got)
				}
			} else {
				// The F branch never reaches the other services.
				for _, name := range []string{"Purchase", "Ship", "Production"} {
					if c := byName[name]; c != nil && c.TotalInvokes() != 0 {
						t.Errorf("%s invoked on the F branch: %+v", name, c)
					}
				}
			}
		})
	}
}

// runPurchasing executes the purchasing process against the bus using
// the package's own conversation order (no schedule dependency — the
// services package sits below the engine): invoke Credit, read the
// authorization, then on approval walk the T branch exactly as the
// minimal constraint set orders it.
func runPurchasing(t *testing.T, b *Bus, approve bool) (map[string]any, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	vars := map[string]any{"po": "po-9"}

	await := func(service, tag string) (any, error) {
		for {
			select {
			case cb, ok := <-b.Inbox():
				if !ok {
					return nil, fmt.Errorf("inbox closed waiting for %s/%s", service, tag)
				}
				if cb.Err != nil {
					return nil, cb.Err
				}
				if cb.Service == service && cb.Tag == tag {
					return cb.Payload, nil
				}
				vars[cb.Tag] = cb.Payload // stash out-of-order arrivals
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	awaitVar := func(service, tag string) error {
		if _, ok := vars[tag]; ok {
			return nil
		}
		v, err := await(service, tag)
		if err != nil {
			return err
		}
		vars[tag] = v
		return nil
	}

	if err := b.Invoke("Credit", "1", vars["po"]); err != nil {
		return vars, err
	}
	if err := awaitVar("Credit", "au"); err != nil {
		return vars, err
	}
	if !approve {
		return vars, nil
	}
	if err := b.Invoke("Purchase", "1", vars["po"]); err != nil {
		return vars, err
	}
	if err := b.Invoke("Ship", "1", vars["po"]); err != nil {
		return vars, err
	}
	if err := b.Invoke("Production", "1", vars["po"]); err != nil {
		return vars, err
	}
	if err := awaitVar("Ship", "si"); err != nil {
		return vars, err
	}
	if err := awaitVar("Ship", "ss"); err != nil {
		return vars, err
	}
	if err := b.Invoke("Purchase", "2", vars["si"]); err != nil {
		return vars, err
	}
	if err := b.Invoke("Production", "2", vars["ss"]); err != nil {
		return vars, err
	}
	if err := awaitVar("Purchase", "oi"); err != nil {
		return vars, err
	}
	return vars, nil
}
