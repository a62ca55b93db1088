// Structural classification and the polynomial soundness fast path.
//
// classify computes three properties of the compiled net:
//
//   - progressive: a 2/1/0 place-weight certificate of termination.
//     Places with no producers weigh 2 (the one-shot wait tokens of a
//     workflow net), places whose every producer consumes some
//     weight-2 place weigh 1 (running tokens), everything else 0.
//     When every transition consumes strictly more weight than it
//     produces (Σ_in ≥ 1 + Σ_out), every firing decreases the finite
//     weighted token sum, so all runs terminate — no livelocks, and
//     "cannot complete" collapses to "reaches a non-final dead
//     marking".
//   - conflictFree: no place feeds more than one consuming transition
//     and read arcs only test consumer-free places. Combined with
//     single-color palettes this makes the net persistent: an enabled
//     transition stays enabled until it fires.
//   - wildcardSafe: every place consumed by a wildcard arc holds at
//     most one color, so the smallest-color wildcard pick is
//     deterministic per place and independent transition firings
//     commute exactly (the gate partial-order reduction needs).
//
// A progressive + conflict-free + single-color net with monotone final
// places is confluent (persistence gives the diamond property, and
// termination turns local into global confluence by Newman's lemma):
// it has exactly one dead marking md, every run reaches it, and every
// reachable final marking forces md final. Soundness therefore
// collapses to one greedy maximal run — fire transitions until none is
// enabled and test md against the final places: sound iff md is final,
// with md the unique deadlock diagnostic otherwise. That is the
// structural fast path: linear in the number of firings instead of
// exponential in the concurrency width. Nets from decision-free
// constraint sets (no guard variants competing for a wait place, no
// mutexes) qualify; anything with real conflicts falls back to
// exploration.

package petri

import "context"

func (c *compiled) classify() {
	np := len(c.palette)

	// progressive: the 2/1/0 weight certificate.
	w := make([]int32, np)
	for p := 0; p < np; p++ {
		if len(c.prodPlace[p]) == 0 {
			w[p] = 2
		}
	}
	for p := 0; p < np; p++ {
		if w[p] != 0 || len(c.prodPlace[p]) == 0 {
			continue
		}
		all := true
		for _, t := range c.prodPlace[p] {
			has := false
			for _, ip := range c.trans[t].inPlaces {
				if w[ip] == 2 {
					has = true
					break
				}
			}
			if !has {
				all = false
				break
			}
		}
		if all {
			w[p] = 1
		}
	}
	c.progressive = true
	for t := range c.trans {
		tr := &c.trans[t]
		if tr.never {
			continue // never fires; exempt from the certificate
		}
		in := int32(0)
		for _, op := range tr.ops {
			p := op.place
			if op.slot >= 0 {
				p = c.slotPl[op.slot]
			}
			in += w[p]
		}
		out := int32(0)
		for _, d := range tr.prod {
			out += w[c.slotPl[d.slot]] * d.k
		}
		if in < 1+out {
			c.progressive = false
			break
		}
	}

	c.singleColor = true
	for p := 0; p < np; p++ {
		if c.width[p] > 1 {
			c.singleColor = false
			break
		}
	}

	c.conflictFree = true
	for p := 0; p < np; p++ {
		if len(c.consPlace[p]) > 1 ||
			(len(c.readPlace[p]) > 0 && len(c.consPlace[p]) > 0) {
			c.conflictFree = false
			break
		}
	}

	c.wildcardSafe = true
	for t := range c.trans {
		for _, d := range c.trans[t].any {
			if c.width[d.place] > 1 {
				c.wildcardSafe = false
			}
		}
	}
}

// fastpathEligible gates the greedy run on the confluence argument
// above plus a structural, monotone final predicate.
func (c *compiled) fastpathEligible(fp []int32) bool {
	return c.progressive && c.conflictFree && c.singleColor &&
		len(fp) > 0 && c.finalMonotone(fp)
}

// reductionEligible gates stubborn-set reduction: termination plus
// monotone structural finals make the deadlock-preserving construction
// preserve the full soundness verdict (DESIGN.md).
func (c *compiled) reductionEligible(fp []int32) bool {
	return c.progressive && c.wildcardSafe &&
		len(fp) > 0 && c.finalMonotone(fp)
}

// fastpath decides soundness via one greedy maximal run. It returns
// the report directly; StateSpace.States counts the markings along the
// run (the full interleaving count is never materialized — that is the
// point).
func (c *compiled) fastpath(ctx context.Context, fp []int32) (*SoundnessReport, error) {
	if err := ctxErrEvery(ctx, 0); err != nil {
		return nil, err
	}
	state := make([]byte, c.stateLen)
	copy(state, c.initial)
	nt := len(c.trans)
	inQ := make([]bool, nt)
	queue := make([]int32, 0, 4*nt)
	for t := 0; t < nt; t++ {
		inQ[t] = true
		queue = append(queue, int32(t))
	}
	push := func(t int32) {
		if !inQ[t] {
			inQ[t] = true
			queue = append(queue, t)
		}
	}
	fires := 0
	for qi := 0; qi < len(queue); qi++ {
		t := queue[qi]
		inQ[t] = false
		if !c.transEnabled(state, t) {
			continue
		}
		if err := c.fireInPlace(state, t); err != nil {
			return nil, err
		}
		fires++
		if err := ctxErrEvery(ctx, fires); err != nil {
			return nil, err
		}
		// Only a place gaining tokens can newly enable a transition:
		// re-test t itself plus the consumers and readers of everything
		// it produced into.
		push(t)
		for _, p := range c.trans[t].prodPlaces {
			for _, u := range c.consPlace[p] {
				push(u)
			}
			for _, u := range c.readPlace[p] {
				push(u)
			}
		}
	}
	final := c.isFinal(state, fp)
	rep := &SoundnessReport{
		Sound:        final,
		NoCompletion: !final,
		StateSpace:   &StateSpace{States: fires + 1},
		Method:       "fastpath",
	}
	if !final {
		rep.Deadlocks = []string{c.net.describeMarking(c.decode(state))}
	}
	return rep, nil
}

// fireInPlace is fireTo without the copy, for the single-trajectory
// fast path.
func (c *compiled) fireInPlace(state []byte, t int32) error {
	tr := &c.trans[t]
	for _, op := range tr.ops {
		if op.slot >= 0 {
			state[op.slot]--
			continue
		}
		off, w := c.offset[op.place], c.width[op.place]
		for j := off; j < off+w; j++ {
			if state[j] > 0 {
				state[j]--
				break
			}
		}
	}
	for _, d := range tr.prod {
		if int32(state[d.slot])+d.k > 255 {
			return &OverflowError{Place: c.net.places[c.slotPl[d.slot]].Name}
		}
		state[d.slot] += byte(d.k)
	}
	return nil
}
