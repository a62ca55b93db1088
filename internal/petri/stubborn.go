// Stubborn-set partial-order reduction for the packed kernel.
//
// Nets built from DSCL constraint sets are dominated by start/skip/
// finish transitions of concurrent activities that neither consume
// from nor test each other's places. Exploring every interleaving of
// such independent transitions multiplies the state space without
// changing which dead markings exist; a stubborn set per marking
// expands only a closed subset of transitions and provably preserves
// the set of reachable dead markings (Valmari's deadlock-preserving
// construction).
//
// Closure rules, per member t of the set:
//
//   - t enabled: add every transition that can disable t or that t can
//     disable — the statically precomputed disablers(t), i.e. all u
//     with In(u) ∩ (In(t) ∪ Read(t)) ≠ ∅ or In(t) ∩ (In(u) ∪ Read(u))
//     ≠ ∅. Transitions outside the set then neither touch t's inputs
//     nor compete for its tokens, so they commute with t (the
//     wildcardSafe gate makes wildcard consumption deterministic
//     per-place, closing the one hole colored tokens would open).
//   - t disabled: pick the first unsatisfied demand in canonical order
//     (the scapegoat) and add all producers of that slot/place — t
//     cannot become enabled before one of them fires. A transition
//     demanding a color its place can never hold contributes nothing:
//     its producer set is genuinely empty.
//
// The construction tries up to stubbornSeeds enabled seeds and keeps
// the closure with the fewest enabled members (they are what the
// explorer actually expands). Verdict preservation beyond deadlocks —
// the option-to-complete half of soundness — additionally needs the
// progressive + monotone-finals gate checked by the orchestrator; the
// argument lives in DESIGN.md.

package petri

// stubbornSeeds bounds how many enabled transitions are tried as
// closure seeds per marking.
const stubbornSeeds = 4

// stubbornCtx carries the per-exploration scratch state for stubborn
// set construction: epoch-stamped membership arrays so per-marking
// resets are O(1).
type stubbornCtx struct {
	c       *compiled
	inSet   []uint32 // closure membership, stamped by epoch
	isEn    []uint32 // enabled membership, stamped by enEpoch
	epoch   uint32
	enEpoch uint32
	queue   []int32
	best    []int32
}

func newStubbornCtx(c *compiled) *stubbornCtx {
	nt := len(c.trans)
	return &stubbornCtx{
		c:     c,
		inSet: make([]uint32, nt),
		isEn:  make([]uint32, nt),
		queue: make([]int32, 0, nt),
		best:  make([]int32, 0, nt),
	}
}

// reduce returns the enabled members of a stubborn set at state s, in
// ascending transition order; the explorer fires exactly these.
// enabled must be the full enabled list, ascending. The result aliases
// either enabled or an internal buffer valid until the next call.
func (sc *stubbornCtx) reduce(s []byte, enabled []int32) []int32 {
	if len(enabled) <= 1 {
		return enabled
	}
	sc.enEpoch++
	for _, t := range enabled {
		sc.isEn[t] = sc.enEpoch
	}
	seeds := stubbornSeeds
	if len(enabled) < seeds {
		seeds = len(enabled)
	}
	bestCount := len(enabled) + 1
	for i := 0; i < seeds; i++ {
		count, ok := sc.closure(s, enabled[i])
		if !ok {
			continue
		}
		if count < bestCount {
			bestCount = count
			sc.best = sc.best[:0]
			for _, t := range enabled {
				if sc.inSet[t] == sc.epoch {
					sc.best = append(sc.best, t)
				}
			}
			if count == 1 {
				break
			}
		}
	}
	if bestCount > len(enabled) {
		return enabled
	}
	return sc.best
}

// closure computes the stubborn closure of seed and returns how many
// enabled transitions it contains. ok is false when a disabled member
// had no identifiable scapegoat (defensive: callers then expand the
// full enabled set, which is always sound).
func (sc *stubbornCtx) closure(s []byte, seed int32) (int, bool) {
	c := sc.c
	sc.epoch++
	ep := sc.epoch
	q := sc.queue[:0]
	push := func(t int32) {
		if sc.inSet[t] != ep {
			sc.inSet[t] = ep
			q = append(q, t)
		}
	}
	push(seed)
	enabledCount := 0
	for qi := 0; qi < len(q); qi++ {
		t := q[qi]
		if sc.isEn[t] == sc.enEpoch {
			enabledCount++
			for _, u := range c.disablers[t] {
				push(u)
			}
			continue
		}
		prods, ok := c.scapegoat(s, t)
		if !ok {
			sc.queue = q
			return 0, false
		}
		for _, u := range prods {
			push(u)
		}
	}
	sc.queue = q
	return enabledCount, true
}

// scapegoat returns the producers of the first unsatisfied demand of
// disabled transition t at s, in the canonical demand order (exact
// slots, colored reads, wildcard reads, wildcard demands) so closures
// are deterministic across runs.
func (c *compiled) scapegoat(s []byte, t int32) ([]int32, bool) {
	tr := &c.trans[t]
	if tr.never {
		return nil, true
	}
	for _, d := range tr.exact {
		if int32(s[d.slot]) < d.k {
			return c.prodSlot[d.slot], true
		}
	}
	for _, sl := range tr.readSlots {
		if s[sl] == 0 {
			return c.prodSlot[sl], true
		}
	}
	for _, p := range tr.readPlaces {
		if c.placeTotal(s, p) == 0 {
			return c.prodPlace[p], true
		}
	}
	for _, d := range tr.any {
		if c.placeTotal(s, d.place)-d.exact < d.k {
			return c.prodPlace[d.place], true
		}
	}
	return nil, false
}

// ensureDisablers builds the symmetric static conflict relation used
// for enabled closure members. Call once before exploration.
func (c *compiled) ensureDisablers() {
	if c.disablers != nil {
		return
	}
	nt := len(c.trans)
	c.disablers = make([][]int32, nt)
	stamp := make([]int32, nt)
	for i := range stamp {
		stamp[i] = -1
	}
	for t := 0; t < nt; t++ {
		tr := &c.trans[t]
		var out []int32
		add := func(u int32) {
			if u != int32(t) && stamp[u] != int32(t) {
				stamp[u] = int32(t)
				out = append(out, u)
			}
		}
		// u consumes from, or tests, a place t consumes from.
		for _, p := range tr.inPlaces {
			for _, u := range c.consPlace[p] {
				add(u)
			}
			for _, u := range c.readPlace[p] {
				add(u)
			}
		}
		// u consumes from a place t tests.
		for _, p := range tr.rdPlaces {
			for _, u := range c.consPlace[p] {
				add(u)
			}
		}
		c.disablers[t] = out
	}
}
