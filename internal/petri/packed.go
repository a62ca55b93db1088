// Packed state-space kernel: the exploration hot path lowered from
// map-of-maps markings to dense byte vectors.
//
// A Net is compiled once per analysis into per-place color palettes
// (the colors a place can ever hold: its initial tokens plus every
// ArcOut color targeting it). Each (place, color) pair becomes one
// slot in a flat []uint8 state vector, so a marking is stateLen bytes,
// firing a transition is a handful of byte increments, and the visited
// set hashes raw bytes (FNV-1a) into an open-addressing table backed
// by an arena of fixed-size chunks — no per-state maps, no Marking.Key()
// strings.
//
// Token counts are capped at 255 per slot: a count that would
// overflow aborts the packed run with an overflowError and the caller
// falls back to the legacy map-based reference kernel (ref.go), which
// has no such cap.
package petri

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
)

// maxPackedStates caps MaxStates for every kernel. State ids are dense
// int32 indexes into the state table, so the cap keeps ids, edge lists and
// the per-state flag slices well inside their int32 and memory range.
const maxPackedStates = 1 << 26

// overflowError reports a packed token count exceeding the uint8 slot
// range; the analysis falls back to the unpacked reference kernel.
type overflowError struct{ place string }

func (e *overflowError) Error() string {
	return fmt.Sprintf("petri: packed token count overflow in place %s", e.place)
}

func isOverflow(err error) bool {
	var oe *overflowError
	return errors.As(err, &oe)
}

// slotDemand is an exact-color token demand or production: k tokens on
// one (place, color) slot.
type slotDemand struct {
	slot int32
	k    int32
}

// anyDemand is a wildcard consuming demand: k tokens of any color on a
// place, beyond the exact tokens the same transition already claims
// there.
type anyDemand struct {
	place int32
	k     int32
	exact int32 // total exact-color demand of this transition on place
}

// consumeOp replays one ArcIn in arc order. slot ≥ 0 removes from that
// slot; slot < 0 is a wildcard: remove from the first non-empty slot
// of place (ascending color — the same smallest-color-first choice
// Net.Fire makes).
type consumeOp struct {
	slot  int32
	place int32
}

// ctrans is a compiled transition.
type ctrans struct {
	never      bool // demands a color the place can never hold
	exact      []slotDemand
	readSlots  []int32 // exact-color test arcs
	readPlaces []int32 // wildcard test arcs
	any        []anyDemand
	ops        []consumeOp
	prod       []slotDemand
	prodPlaces []int32 // distinct output places
	inPlaces   []int32 // distinct ArcIn places (incl. wildcard)
	rdPlaces   []int32 // distinct ArcRead places
}

// compiled is a Net lowered to the packed representation plus the
// static relations the reduction and classification layers consult.
type compiled struct {
	net      *Net
	offset   []int32    // place → first slot
	width    []int32    // place → palette size
	palette  [][]string // place → sorted colors
	slotPl   []int32    // slot → place
	stateLen int
	initial  []byte
	trans    []ctrans

	consPlace [][]int32 // place → transitions with an ArcIn on it
	readPlace [][]int32 // place → transitions with an ArcRead on it
	prodPlace [][]int32 // place → transitions with an ArcOut into it
	prodSlot  [][]int32 // slot → transitions producing that exact color

	disablers [][]int32 // built lazily by ensureDisablers

	// Structural classification (see structural.go for how the
	// analysis uses these).
	progressive  bool // every firing strictly decreases the 2/1/0 weight measure
	conflictFree bool // no place feeds two consumers, reads only on consumer-free places
	wildcardSafe bool // wildcard-consumed places hold at most one color
	singleColor  bool // every palette has width ≤ 1 (plain P/T net)
}

// compile lowers n. It fails only when an initial token count already
// exceeds the packed range; all other nets compile.
func compile(n *Net) (*compiled, error) {
	np := len(n.places)
	c := &compiled{net: n}

	palSets := make([]map[string]bool, np)
	add := func(p PlaceID, col string) {
		if palSets[p] == nil {
			palSets[p] = map[string]bool{}
		}
		palSets[p][col] = true
	}
	for i, pl := range n.places {
		for _, col := range pl.Initial {
			add(PlaceID(i), col)
		}
	}
	for _, tr := range n.transitions {
		for _, a := range tr.Arcs {
			if a.Kind == ArcOut {
				add(a.Place, a.Color)
			}
		}
	}

	c.offset = make([]int32, np)
	c.width = make([]int32, np)
	c.palette = make([][]string, np)
	slot := int32(0)
	for p := 0; p < np; p++ {
		cols := make([]string, 0, len(palSets[p]))
		for col := range palSets[p] {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		c.palette[p] = cols
		c.offset[p] = slot
		c.width[p] = int32(len(cols))
		slot += int32(len(cols))
	}
	c.stateLen = int(slot)
	c.slotPl = make([]int32, c.stateLen)
	for p := 0; p < np; p++ {
		for j := int32(0); j < c.width[p]; j++ {
			c.slotPl[c.offset[p]+j] = int32(p)
		}
	}

	slotOf := func(p PlaceID, col string) (int32, bool) {
		cols := c.palette[p]
		i := sort.SearchStrings(cols, col)
		if i < len(cols) && cols[i] == col {
			return c.offset[p] + int32(i), true
		}
		return -1, false
	}

	c.initial = make([]byte, c.stateLen)
	for i, pl := range n.places {
		for _, col := range pl.Initial {
			s, _ := slotOf(PlaceID(i), col) // always present: palette includes initials
			if c.initial[s] == 255 {
				return nil, &overflowError{place: pl.Name}
			}
			c.initial[s]++
		}
	}

	c.consPlace = make([][]int32, np)
	c.readPlace = make([][]int32, np)
	c.prodPlace = make([][]int32, np)
	c.prodSlot = make([][]int32, c.stateLen)

	appendOnce := func(list []int32, t int32) []int32 {
		if k := len(list); k > 0 && list[k-1] == t {
			return list
		}
		return append(list, t)
	}

	c.trans = make([]ctrans, len(n.transitions))
	for ti, tr := range n.transitions {
		ct := &c.trans[ti]
		exactCount := map[int32]int32{}
		anyCount := map[int32]int32{}
		prodCount := map[int32]int32{}
		inSet := map[int32]bool{}
		rdSet := map[int32]bool{}
		prodSet := map[int32]bool{}
		for _, a := range tr.Arcs {
			p := int32(a.Place)
			switch a.Kind {
			case ArcIn:
				inSet[p] = true
				c.consPlace[p] = appendOnce(c.consPlace[p], int32(ti))
				if a.Color == "" {
					anyCount[p]++
					ct.ops = append(ct.ops, consumeOp{slot: -1, place: p})
				} else if s, ok := slotOf(a.Place, a.Color); ok {
					exactCount[s]++
					ct.ops = append(ct.ops, consumeOp{slot: s, place: p})
				} else {
					ct.never = true
				}
			case ArcRead:
				rdSet[p] = true
				c.readPlace[p] = appendOnce(c.readPlace[p], int32(ti))
				if a.Color == "" {
					ct.readPlaces = append(ct.readPlaces, p)
				} else if s, ok := slotOf(a.Place, a.Color); ok {
					ct.readSlots = append(ct.readSlots, s)
				} else {
					ct.never = true
				}
			case ArcOut:
				prodSet[p] = true
				c.prodPlace[p] = appendOnce(c.prodPlace[p], int32(ti))
				s, _ := slotOf(a.Place, a.Color) // always present: palette includes productions
				prodCount[s]++
				c.prodSlot[s] = appendOnce(c.prodSlot[s], int32(ti))
			}
		}
		exactPerPlace := map[int32]int32{}
		for s, k := range exactCount {
			exactPerPlace[c.slotPl[s]] += k
		}
		for s, k := range exactCount {
			ct.exact = append(ct.exact, slotDemand{slot: s, k: k})
		}
		sort.Slice(ct.exact, func(i, j int) bool { return ct.exact[i].slot < ct.exact[j].slot })
		sort.Slice(ct.readSlots, func(i, j int) bool { return ct.readSlots[i] < ct.readSlots[j] })
		sort.Slice(ct.readPlaces, func(i, j int) bool { return ct.readPlaces[i] < ct.readPlaces[j] })
		for p, k := range anyCount {
			ct.any = append(ct.any, anyDemand{place: p, k: k, exact: exactPerPlace[p]})
		}
		sort.Slice(ct.any, func(i, j int) bool { return ct.any[i].place < ct.any[j].place })
		for s, k := range prodCount {
			ct.prod = append(ct.prod, slotDemand{slot: s, k: k})
		}
		sort.Slice(ct.prod, func(i, j int) bool { return ct.prod[i].slot < ct.prod[j].slot })
		ct.inPlaces = sortedKeys(inSet)
		ct.rdPlaces = sortedKeys(rdSet)
		ct.prodPlaces = sortedKeys(prodSet)
	}

	c.classify()
	return c, nil
}

func sortedKeys(set map[int32]bool) []int32 {
	if len(set) == 0 {
		return nil
	}
	out := make([]int32, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// placeTotal sums a place's slots (all colors).
func (c *compiled) placeTotal(s []byte, p int32) int32 {
	off, w := c.offset[p], c.width[p]
	tot := int32(0)
	for j := off; j < off+w; j++ {
		tot += int32(s[j])
	}
	return tot
}

// transEnabled mirrors Net.enabled on the packed representation.
func (c *compiled) transEnabled(s []byte, t int32) bool {
	tr := &c.trans[t]
	if tr.never {
		return false
	}
	for _, d := range tr.exact {
		if int32(s[d.slot]) < d.k {
			return false
		}
	}
	for _, sl := range tr.readSlots {
		if s[sl] == 0 {
			return false
		}
	}
	for _, p := range tr.readPlaces {
		if c.placeTotal(s, p) == 0 {
			return false
		}
	}
	for _, d := range tr.any {
		if c.placeTotal(s, d.place)-d.exact < d.k {
			return false
		}
	}
	return true
}

// enabledList appends the enabled transitions (ascending) to buf[:0].
func (c *compiled) enabledList(s []byte, buf []int32) []int32 {
	out := buf[:0]
	for t := range c.trans {
		if c.transEnabled(s, int32(t)) {
			out = append(out, int32(t))
		}
	}
	return out
}

// fireTo fires t (which must be enabled) from src into dst. Consuming
// ops replay in arc order with the same smallest-color wildcard pick
// as Net.Fire, so packed successors decode to exactly the markings the
// reference kernel computes.
func (c *compiled) fireTo(src []byte, t int32, dst []byte) error {
	copy(dst, src)
	tr := &c.trans[t]
	for _, op := range tr.ops {
		if op.slot >= 0 {
			dst[op.slot]--
			continue
		}
		off, w := c.offset[op.place], c.width[op.place]
		fired := false
		for j := off; j < off+w; j++ {
			if dst[j] > 0 {
				dst[j]--
				fired = true
				break
			}
		}
		if !fired {
			return fmt.Errorf("petri: internal: no token for wildcard arc on %s", c.net.places[op.place].Name)
		}
	}
	for _, d := range tr.prod {
		if int32(dst[d.slot])+d.k > 255 {
			return &overflowError{place: c.net.places[c.slotPl[d.slot]].Name}
		}
		dst[d.slot] += byte(d.k)
	}
	return nil
}

// decode expands a packed state back to a Marking (diagnostics and
// generic Final predicates only — never on the exploration hot path
// for structural finals).
func (c *compiled) decode(s []byte) Marking {
	m := make(Marking, len(c.palette))
	for p := range c.palette {
		tokens := map[string]int{}
		for j, col := range c.palette[p] {
			if k := s[int(c.offset[p])+j]; k > 0 {
				tokens[col] = int(k)
			}
		}
		m[p] = tokens
	}
	return m
}

// compileFinalPlaces validates and lowers an ExploreOptions.FinalPlaces
// list.
func (c *compiled) compileFinalPlaces(fp []PlaceID) []int32 {
	out := make([]int32, 0, len(fp))
	for _, p := range fp {
		out = append(out, int32(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// finalMonotone reports whether no final place has a consumer: once a
// marking is final, every successor is final. The reduction and
// fast-path verdict arguments need this (see DESIGN.md).
func (c *compiled) finalMonotone(fp []int32) bool {
	for _, p := range fp {
		if len(c.consPlace[p]) > 0 {
			return false
		}
	}
	return true
}

// --- visited-state table -------------------------------------------------

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashState(s []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range s {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// stateChunkBytes is the target size of one arena chunk.
const stateChunkBytes = 16 << 10

// stateTable is an open-addressing hash set of packed states. States
// live back-to-back in fixed-size arena chunks of 1<<shift states
// each (one state per chunk when a state is larger than
// stateChunkBytes). A chunk never moves once allocated, so a slice
// returned by state stays valid across insert, and growing the table
// never copies a state. The table stores id+1 (0 = empty) and probes
// linearly over stored hashes.
type stateTable struct {
	stateLen int
	shift    uint
	chunks   [][]byte
	hashes   []uint64
	slots    []int32
	mask     uint64
}

func newStateTable(stateLen, sizeHint int) *stateTable {
	capacity := 64
	for capacity < sizeHint*2 {
		capacity <<= 1
	}
	shift := uint(0)
	for stateLen<<(shift+1) <= stateChunkBytes && shift < 30 {
		shift++
	}
	return &stateTable{
		stateLen: stateLen,
		shift:    shift,
		slots:    make([]int32, capacity),
		mask:     uint64(capacity - 1),
	}
}

func (st *stateTable) count() int { return len(st.hashes) }

func (st *stateTable) state(id int32) []byte {
	off := int(id&(1<<st.shift-1)) * st.stateLen
	return st.chunks[id>>st.shift][off : off+st.stateLen : off+st.stateLen]
}

// find returns the id of s if present.
func (st *stateTable) find(h uint64, s []byte) (int32, bool) {
	i := h & st.mask
	for {
		e := st.slots[i]
		if e == 0 {
			return 0, false
		}
		id := e - 1
		if st.hashes[id] == h && bytes.Equal(st.state(id), s) {
			return id, true
		}
		i = (i + 1) & st.mask
	}
}

// insert adds s (which must be absent) and returns its dense id.
func (st *stateTable) insert(h uint64, s []byte) int32 {
	id := int32(len(st.hashes))
	if int(id>>st.shift) == len(st.chunks) {
		st.chunks = append(st.chunks, make([]byte, st.stateLen<<st.shift))
	}
	st.hashes = append(st.hashes, h)
	copy(st.state(id), s)
	i := h & st.mask
	for st.slots[i] != 0 {
		i = (i + 1) & st.mask
	}
	st.slots[i] = id + 1
	if uint64(len(st.hashes))*4 >= uint64(len(st.slots))*3 {
		st.grow()
	}
	return id
}

func (st *stateTable) grow() {
	slots := make([]int32, len(st.slots)*2)
	mask := uint64(len(slots) - 1)
	for id, h := range st.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id) + 1
	}
	st.slots = slots
	st.mask = mask
}

// --- soundness graph -----------------------------------------------------

// sgraph is the successor graph a soundness exploration produces:
// dense node ids, a flat edge list, per-node final/dead flags and the
// visited table holding each node's packed state (diagnostics).
type sgraph struct {
	n         int
	edgeFrom  []int32
	edgeTo    []int32
	final     []bool
	dead      []bool
	st        *stateTable
	truncated bool
}

// exploreGraph runs the sequential packed forward exploration for
// CheckSoundness, optionally expanding only a stubborn set per
// marking. Node ids are BFS (insertion) order, matching the reference
// kernel's, so even MaxStates-truncated runs retain the same state
// prefix. Dead detection always uses the full enabled set.
func (c *compiled) exploreGraph(ctx context.Context, maxStates int, isFinal func([]byte) bool, reduce bool) (*sgraph, error) {
	st := newStateTable(c.stateLen, 1024)
	st.insert(hashState(c.initial), c.initial)
	g := &sgraph{}
	var sb *stubbornCtx
	if reduce {
		c.ensureDisablers()
		sb = newStubbornCtx(c)
	}
	enabledBuf := make([]int32, 0, len(c.trans))
	dst := make([]byte, c.stateLen)
	for i := int32(0); int(i) < st.count(); i++ {
		if err := ctxErrEvery(ctx, int(i)); err != nil {
			return nil, err
		}
		s := st.state(i)
		enabled := c.enabledList(s, enabledBuf)
		g.final = append(g.final, isFinal(s))
		g.dead = append(g.dead, len(enabled) == 0)
		expand := enabled
		if sb != nil && len(enabled) > 1 {
			expand = sb.reduce(s, enabled)
		}
		for _, t := range expand {
			if err := c.fireTo(s, t, dst); err != nil {
				return nil, err
			}
			h := hashState(dst)
			id, ok := st.find(h, dst)
			if !ok {
				if st.count() >= maxStates {
					g.truncated = true
					continue
				}
				id = st.insert(h, dst)
			}
			g.edgeFrom = append(g.edgeFrom, i)
			g.edgeTo = append(g.edgeTo, id)
		}
	}
	g.n = st.count()
	g.st = st
	return g, nil
}

// exploreStats is the packed core of Explore: a full (unreduced) BFS
// that gathers the StateSpace statistics. Max-token tracking is
// incremental — only the places the fired transition produced into are
// rescanned — which observes the same maximum as the reference
// kernel's all-places scan on every run that is not truncated.
func (c *compiled) exploreStats(ctx context.Context, opts ExploreOptions, isFinal func([]byte) bool) (*StateSpace, error) {
	ss := &StateSpace{Bounded: true}
	st := newStateTable(c.stateLen, 1024)
	st.insert(hashState(c.initial), c.initial)
	fired := make([]bool, len(c.trans))
	for p := range c.palette {
		if tot := int(c.placeTotal(c.initial, int32(p))); tot > ss.MaxTokens {
			ss.MaxTokens = tot
			if tot > opts.Bound {
				ss.Bounded = false
			}
		}
	}
	enabledBuf := make([]int32, 0, len(c.trans))
	dst := make([]byte, c.stateLen)
	for i := int32(0); int(i) < st.count() && !ss.Truncated; i++ {
		ss.States++
		if err := ctxErrEvery(ctx, ss.States); err != nil {
			return nil, err
		}
		s := st.state(i)
		enabled := c.enabledList(s, enabledBuf)
		fin := isFinal != nil && isFinal(s)
		if fin {
			ss.Finals = append(ss.Finals, c.decode(s))
		}
		if len(enabled) == 0 && !fin {
			ss.Deadlocks = append(ss.Deadlocks, c.decode(s))
		}
		for _, t := range enabled {
			fired[t] = true
			if err := c.fireTo(s, t, dst); err != nil {
				return nil, err
			}
			h := hashState(dst)
			if _, ok := st.find(h, dst); ok {
				ss.Transitions++
				continue
			}
			if st.count() >= opts.MaxStates {
				// Short-circuit: no further successors are counted once
				// the cap refuses a state (see StateSpace.Truncated).
				ss.Truncated = true
				break
			}
			ss.Transitions++
			st.insert(h, dst)
			for _, p := range c.trans[t].prodPlaces {
				if tot := int(c.placeTotal(dst, p)); tot > ss.MaxTokens {
					ss.MaxTokens = tot
					if tot > opts.Bound {
						ss.Bounded = false
					}
				}
			}
		}
	}
	for t, f := range fired {
		if !f {
			ss.DeadTransitions = append(ss.DeadTransitions, TransitionID(t))
		}
	}
	return ss, nil
}
