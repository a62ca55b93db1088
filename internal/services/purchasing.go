package services

import (
	"fmt"
	"time"
)

// purchasingConfigs builds the four services of the paper's running
// example:
//
//   - Credit authorizes purchase orders (port 1 → callback "au");
//     approve controls the authorization outcome, driving the process
//     down if_au's T or F branch.
//   - Purchase is state-aware and sequential: port 1 stores the
//     purchase order, port 2 combines it with the shipping invoice
//     into the order invoice (callback "oi"). Invoking port 2 first is
//     a conversation failure.
//   - Ship computes the shipping invoice and schedule from the
//     purchase order (callbacks "si" and "ss").
//   - Production consumes the purchase order and shipping schedule and
//     replies nothing.
func purchasingConfigs(latency time.Duration, approve bool) []Config {
	return []Config{
		{
			Name: "Credit", Ports: []string{"1"}, Latency: latency,
			Handle: func(c *Call) ([]Emit, error) {
				outcome := "F"
				if approve {
					outcome = "T"
				}
				return []Emit{{Tag: "au", Payload: outcome}}, nil
			},
		},
		{
			Name: "Purchase", Ports: []string{"1", "2"}, Sequential: true, Latency: latency,
			Handle: func(c *Call) ([]Emit, error) {
				switch c.Port {
				case "1":
					c.State["po"] = c.Payload
					return nil, nil
				case "2":
					po, ok := c.State["po"]
					if !ok {
						return nil, fmt.Errorf("purchase: shipping invoice without purchase order")
					}
					oi := fmt.Sprintf("invoice(%v+%v)", po, c.Payload)
					return []Emit{{Tag: "oi", Payload: oi}}, nil
				default:
					return nil, fmt.Errorf("purchase: unknown port %s", c.Port)
				}
			},
		},
		{
			Name: "Ship", Ports: []string{"1"}, Latency: latency,
			Handle: func(c *Call) ([]Emit, error) {
				return []Emit{
					{Tag: "si", Payload: fmt.Sprintf("shipInvoice(%v)", c.Payload)},
					{Tag: "ss", Payload: fmt.Sprintf("shipSchedule(%v)", c.Payload)},
				}, nil
			},
		},
		{
			Name: "Production", Ports: []string{"1", "2"}, Latency: latency,
			// Fire-and-forget: no callbacks.
		},
	}
}

// RegisterPurchasing registers the purchasing services on the bus.
func RegisterPurchasing(b *Bus, latency time.Duration, approve bool) error {
	for _, cfg := range purchasingConfigs(latency, approve) {
		if err := b.Register(cfg); err != nil {
			return err
		}
	}
	return nil
}
