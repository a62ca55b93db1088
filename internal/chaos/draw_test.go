package chaos

import (
	"fmt"
	"testing"
)

// TestDrawDecorrelatedAcrossAttempts: successive attempts on one key
// must draw distinct values. A draw that ignores the attempt makes
// every executor, bus, stage and disk fault all-or-nothing per key, and
// the "transient fault, then the retry succeeds" path never runs.
func TestDrawDecorrelatedAcrossAttempts(t *testing.T) {
	for _, seed := range []int64{1, 7, 12} {
		in := New(Config{Seed: seed})
		for _, domain := range []string{"fault", "latency", "disk", "cancel"} {
			for _, key := range []string{"exec/a0", "bus/svc.op", "stage/minimize", "disk/seg-000001"} {
				seen := map[string]int{}
				for attempt := 0; attempt < 6; attempt++ {
					v := fmt.Sprintf("%.6f", in.draw(domain, key, attempt))
					if prev, ok := seen[v]; ok {
						t.Errorf("seed %d %s %s: attempts %d and %d both draw %s", seed, domain, key, prev, attempt, v)
					}
					seen[v] = attempt
				}
			}
		}
	}
}
