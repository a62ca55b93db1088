package decentral

import (
	"fmt"
	"math/rand"
	"testing"

	"dscweaver/internal/core"
	"dscweaver/internal/workload"
)

// planFrom builds the minimal-set plan for one random layered
// workload.
func planFrom(t *testing.T, seed int64) (*core.ConstraintSet, *Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := workload.Layered(3+rng.Intn(3), 3+rng.Intn(4), 0.2+0.3*rng.Float64(), seed).
		WithShortcuts(rng.Intn(5)).
		WithServices(1 + rng.Intn(4))
	merged, err := w.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.TranslateServices(merged)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Minimize(sc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Place(res.Minimal, Pin(w.Proc))
	if err != nil {
		t.Fatal(err)
	}
	return res.Minimal, plan
}

// TestPlacePropertyTotalAndConsistent: across random workloads the
// partition is total (every activity on exactly one host), every
// constraint's endpoints are both placed, and the edge accounting adds
// up: local + cross = |HappenBefores|, and the per-pair message
// breakdown sums to the cross count with no same-host keys.
func TestPlacePropertyTotalAndConsistent(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc, plan := planFrom(t, seed)
			for _, a := range sc.Proc.Activities() {
				if plan.Partition[a.ID] == "" {
					t.Errorf("activity %s has no host", a.ID)
				}
			}
			hostSet := map[string]bool{}
			for _, h := range plan.Hosts {
				hostSet[h] = true
			}
			for _, h := range plan.Partition {
				if !hostSet[h] {
					t.Errorf("host %q used by the partition but missing from Hosts", h)
				}
			}
			local, cross := 0, 0
			for _, c := range sc.Constraints() {
				if c.Rel != core.HappenBefore {
					continue
				}
				f, ok1 := plan.Partition[c.From.Node.Activity]
				to, ok2 := plan.Partition[c.To.Node.Activity]
				if !ok1 || !ok2 {
					t.Fatalf("constraint %s has an unplaced endpoint", c)
				}
				if f == to {
					local++
				} else {
					cross++
				}
			}
			if local != plan.LocalEdges || cross != plan.CrossEdges {
				t.Errorf("recount: %d local, %d cross; plan says %d/%d",
					local, cross, plan.LocalEdges, plan.CrossEdges)
			}
			sum := 0
			for k, n := range plan.Messages {
				if k[0] == k[1] {
					t.Errorf("same-host message key %v", k)
				}
				if n <= 0 {
					t.Errorf("message key %v has non-positive count %d", k, n)
				}
				sum += n
			}
			if sum != plan.CrossEdges {
				t.Errorf("message breakdown sums to %d, cross edges %d", sum, plan.CrossEdges)
			}
		})
	}
}

// TestComparePropertySavingsNonNegative: minimization never adds
// cross-host messages — the minimal set is a subset of the unoptimized
// set, and the pinning is identical, so savings are >= 0 and the
// comparison numbers agree with independently computed plans.
func TestComparePropertySavingsNonNegative(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := workload.Layered(3+rng.Intn(3), 3+rng.Intn(4), 0.2+0.3*rng.Float64(), seed).
				WithShortcuts(rng.Intn(5)).
				WithServices(1 + rng.Intn(4))
			merged, err := w.Constraints()
			if err != nil {
				t.Fatal(err)
			}
			sc, err := core.TranslateServices(merged)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Minimize(sc)
			if err != nil {
				t.Fatal(err)
			}
			pin := Pin(w.Proc)
			cmp, err := Compare(sc, res.Minimal, pin)
			if err != nil {
				t.Fatal(err)
			}
			if cmp.MessageSavings() < 0 {
				t.Errorf("MessageSavings = %d (unopt %d, minimal %d), want >= 0",
					cmp.MessageSavings(), cmp.Unoptimized.CrossEdges, cmp.Minimal.CrossEdges)
			}
			u, err := Place(sc, pin)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Place(res.Minimal, pin)
			if err != nil {
				t.Fatal(err)
			}
			if u.CrossEdges != cmp.Unoptimized.CrossEdges || m.CrossEdges != cmp.Minimal.CrossEdges {
				t.Errorf("Compare disagrees with direct Place: (%d,%d) vs (%d,%d)",
					cmp.Unoptimized.CrossEdges, cmp.Minimal.CrossEdges, u.CrossEdges, m.CrossEdges)
			}
		})
	}
}

func TestPlanForRejectsPartialPartition(t *testing.T) {
	sc, plan := planFrom(t, 3)
	part := Partition{}
	for id, h := range plan.Partition {
		part[id] = h
	}
	for id := range part {
		delete(part, id)
		break
	}
	if _, err := PlanFor(sc, part); err == nil {
		t.Error("PlanFor accepted a partial partition")
	}
}

func TestPlanForMatchesPlace(t *testing.T) {
	sc, plan := planFrom(t, 5)
	again, err := PlanFor(sc, plan.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != plan.String() {
		t.Errorf("PlanFor(plan.Partition) differs from the plan:\n%s\nvs\n%s", again, plan)
	}
}

// exclusiveSet builds a small process with two exclusive activities
// pinned (via a data edge) to different hosts.
func exclusiveSet(t *testing.T) (*core.ConstraintSet, *Plan) {
	t.Helper()
	p := core.NewProcess("excl")
	p.MustAddService(&core.Service{Name: "A", Ports: []string{"1"}})
	p.MustAddService(&core.Service{Name: "B", Ports: []string{"1"}})
	p.MustAddActivity(&core.Activity{ID: "invA", Kind: core.KindInvoke, Service: "A", Port: "1"})
	p.MustAddActivity(&core.Activity{ID: "invB", Kind: core.KindInvoke, Service: "B", Port: "1"})
	p.MustAddActivity(&core.Activity{ID: "critA", Kind: core.KindOpaque})
	p.MustAddActivity(&core.Activity{ID: "critB", Kind: core.KindOpaque})
	sc := core.NewConstraintSet(p)
	sc.Before("invA", "critA", core.Data)
	sc.Before("invB", "critB", core.Data)
	sc.Add(core.Constraint{Rel: core.Exclusive,
		From: core.PointOf("critA", core.Run), To: core.PointOf("critB", core.Run)})
	plan, err := Place(sc, Pin(p))
	if err != nil {
		t.Fatal(err)
	}
	return sc, plan
}

func TestCoLocateMergesExclusiveGroups(t *testing.T) {
	sc, plan := exclusiveSet(t)
	if plan.Partition["critA"] == plan.Partition["critB"] {
		t.Fatalf("test premise broken: greedy placement already co-located (%q)", plan.Partition["critA"])
	}
	merged, err := CoLocate(sc, plan)
	if err != nil {
		t.Fatal(err)
	}
	hA, hB := merged.Partition["critA"], merged.Partition["critB"]
	if hA != hB {
		t.Errorf("exclusive activities on %q and %q after CoLocate", hA, hB)
	}
	// Deterministic choice: the lexicographically smallest member host.
	want := plan.Partition["critA"]
	if plan.Partition["critB"] < want {
		want = plan.Partition["critB"]
	}
	if hA != want {
		t.Errorf("group landed on %q, want smallest member host %q", hA, want)
	}
	// Idempotent.
	again, err := CoLocate(sc, merged)
	if err != nil {
		t.Fatal(err)
	}
	if again != merged {
		t.Error("CoLocate of an already co-located plan rebuilt it")
	}
}

func TestCoLocateNoExclusivesIsIdentity(t *testing.T) {
	sc, plan := planFrom(t, 9)
	out, err := CoLocate(sc, plan)
	if err != nil {
		t.Fatal(err)
	}
	if out != plan {
		t.Error("CoLocate without exclusive constraints returned a new plan")
	}
}
