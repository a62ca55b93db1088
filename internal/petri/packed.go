// Packed state-space kernel: the exploration hot path lowered from
// map-of-maps markings to dense byte vectors.
//
// A Net is compiled once per analysis into per-place color palettes
// (the colors a place can ever hold: its initial tokens plus every
// ArcOut color targeting it). Each (place, color) pair becomes one
// slot in a flat []uint8 state vector, so a marking is stateLen bytes,
// firing a transition is a handful of byte increments, and the visited
// set hashes raw bytes (hash/maphash) into an open-addressing table
// backed by an arena of fixed-size chunks — no per-state maps, no
// string keys.
//
// Token counts are capped at 255 per slot: a count that would
// overflow aborts the analysis with an *OverflowError. Build nets
// never reach it, because every place of a Build net holds at most one
// token (DESIGN.md); the map-based reference kernel in ref_test.go is
// the differential oracle, not a fallback.
package petri

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"slices"
)

// maxPackedStates caps MaxStates for every kernel. State ids are dense
// int32 indexes into the state table, so the cap keeps ids, edge lists and
// the per-state flag slices well inside their int32 and memory range.
const maxPackedStates = 1 << 26

// OverflowError reports a token count exceeding a packed slot's uint8
// range. CheckSoundness returns it instead of a verdict.
type OverflowError struct{ Place string }

func (e *OverflowError) Error() string {
	return fmt.Sprintf("petri: packed token count overflow in place %s", e.Place)
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
// the reference interpreter's Fire makes).
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

	// A place's palette: its initial colors and every color an arc
	// produces into it, sorted and deduplicated.
	c.palette = make([][]string, np)
	for i, pl := range n.places {
		c.palette[i] = append(c.palette[i], pl.Initial...)
	}
	for _, tr := range n.transitions {
		for _, a := range tr.Arcs {
			if a.Kind == ArcOut {
				c.palette[a.Place] = append(c.palette[a.Place], a.Color)
			}
		}
	}
	c.offset = make([]int32, np)
	c.width = make([]int32, np)
	slot := int32(0)
	for p, cols := range c.palette {
		slices.Sort(cols)
		cols = slices.Compact(cols)
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
		if i, ok := slices.BinarySearch(c.palette[p], col); ok {
			return c.offset[p] + int32(i), true
		}
		return -1, false
	}

	c.initial = make([]byte, c.stateLen)
	for i, pl := range n.places {
		for _, col := range pl.Initial {
			s, _ := slotOf(PlaceID(i), col) // always present: palette includes initials
			if c.initial[s] == 255 {
				return nil, &OverflowError{Place: pl.Name}
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
		for _, a := range tr.Arcs {
			p := int32(a.Place)
			switch a.Kind {
			case ArcIn:
				ct.inPlaces = append(ct.inPlaces, p)
				c.consPlace[p] = appendOnce(c.consPlace[p], int32(ti))
				if a.Color == "" {
					ct.any = append(ct.any, anyDemand{place: p, k: 1})
					ct.ops = append(ct.ops, consumeOp{slot: -1, place: p})
				} else if s, ok := slotOf(a.Place, a.Color); ok {
					ct.exact = append(ct.exact, slotDemand{slot: s, k: 1})
					ct.ops = append(ct.ops, consumeOp{slot: s, place: p})
				} else {
					ct.never = true
				}
			case ArcRead:
				ct.rdPlaces = append(ct.rdPlaces, p)
				c.readPlace[p] = appendOnce(c.readPlace[p], int32(ti))
				if a.Color == "" {
					ct.readPlaces = append(ct.readPlaces, p)
				} else if s, ok := slotOf(a.Place, a.Color); ok {
					ct.readSlots = append(ct.readSlots, s)
				} else {
					ct.never = true
				}
			case ArcOut:
				ct.prodPlaces = append(ct.prodPlaces, p)
				c.prodPlace[p] = appendOnce(c.prodPlace[p], int32(ti))
				s, _ := slotOf(a.Place, a.Color) // always present: palette includes productions
				ct.prod = append(ct.prod, slotDemand{slot: s, k: 1})
				c.prodSlot[s] = appendOnce(c.prodSlot[s], int32(ti))
			}
		}
		ct.exact = sumDemands(ct.exact)
		ct.prod = sumDemands(ct.prod)
		ct.any = sumAnyDemands(ct.any)
		for i := range ct.any {
			for _, d := range ct.exact {
				if c.slotPl[d.slot] == ct.any[i].place {
					ct.any[i].exact += d.k
				}
			}
		}
		slices.Sort(ct.readSlots)
		slices.Sort(ct.readPlaces)
		ct.inPlaces = sortedUnique(ct.inPlaces)
		ct.rdPlaces = sortedUnique(ct.rdPlaces)
		ct.prodPlaces = sortedUnique(ct.prodPlaces)
	}

	c.classify()
	return c, nil
}

// sumDemands sorts demands by slot and merges each slot's demands into
// one, summing k.
func sumDemands(ds []slotDemand) []slotDemand {
	slices.SortFunc(ds, func(a, b slotDemand) int { return int(a.slot - b.slot) })
	out := ds[:0]
	for _, d := range ds {
		if k := len(out); k > 0 && out[k-1].slot == d.slot {
			out[k-1].k += d.k
			continue
		}
		out = append(out, d)
	}
	return out
}

// sumAnyDemands sorts wildcard demands by place and merges each
// place's demands into one, summing k.
func sumAnyDemands(ds []anyDemand) []anyDemand {
	slices.SortFunc(ds, func(a, b anyDemand) int { return int(a.place - b.place) })
	out := ds[:0]
	for _, d := range ds {
		if k := len(out); k > 0 && out[k-1].place == d.place {
			out[k-1].k += d.k
			continue
		}
		out = append(out, d)
	}
	return out
}

func sortedUnique(xs []int32) []int32 {
	slices.Sort(xs)
	return slices.Compact(xs)
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

// transEnabled decides whether transition t may fire in s. Consuming
// arcs with empty color pick an arbitrary token; multiple consuming
// arcs on the same place require that many tokens.
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

// enabledList appends the transitions enabled in s to out, ascending,
// testing every transition of the net.
func (c *compiled) enabledList(out []int32, s []byte) []int32 {
	for t := range c.trans {
		if c.transEnabled(s, int32(t)) {
			out = append(out, int32(t))
		}
	}
	return out
}

// affectedSets returns, per transition t, the ascending transitions
// whose enabledness firing t can change: every consumer and reader of
// a place t consumes from or produces into. Firing t changes only
// those places' slots, and an enabling test reads only the slots of
// the places its transition consumes from or reads.
func (c *compiled) affectedSets() [][]int32 {
	nt := len(c.trans)
	stamp := make([]int32, nt)
	for i := range stamp {
		stamp[i] = -1
	}
	ends := make([]int, nt)
	var flat []int32
	for t := range c.trans {
		start := len(flat)
		tr := &c.trans[t]
		for _, places := range [2][]int32{tr.inPlaces, tr.prodPlaces} {
			for _, p := range places {
				for _, users := range [2][]int32{c.consPlace[p], c.readPlace[p]} {
					for _, u := range users {
						if stamp[u] != int32(t) {
							stamp[u] = int32(t)
							flat = append(flat, u)
						}
					}
				}
			}
		}
		slices.Sort(flat[start:])
		ends[t] = len(flat)
	}
	out := make([][]int32, nt)
	start := 0
	for t, end := range ends {
		out[t] = flat[start:end:end]
		start = end
	}
	return out
}

// appendDerivedEnabled appends the enabled list of s = fire(p, t) to
// out, ascending, from p's enabled list parent and aff = affected(t):
// transitions outside aff keep their verdict at p, and only the
// members of aff are tested on s.
func (c *compiled) appendDerivedEnabled(out, parent, aff []int32, s []byte) []int32 {
	i := 0
	for _, u := range aff {
		for i < len(parent) && parent[i] < u {
			out = append(out, parent[i])
			i++
		}
		if i < len(parent) && parent[i] == u {
			i++
		}
		if c.transEnabled(s, u) {
			out = append(out, u)
		}
	}
	return append(out, parent[i:]...)
}

// enabledQueue holds the enabled lists of inserted, not yet expanded
// states, in insertion order, in one flat buffer: each list is its
// length followed by its members. The explorer expands states in
// insertion order, so the head is always the list of the state it
// expands next.
type enabledQueue struct {
	buf  []int32
	head int
}

// pushDerived enqueues appendDerivedEnabled(parent, aff, s). parent
// may alias the buffer: appends write only past its end.
func (q *enabledQueue) pushDerived(c *compiled, parent, aff []int32, s []byte) {
	at := len(q.buf)
	q.buf = c.appendDerivedEnabled(append(q.buf, 0), parent, aff, s)
	q.buf[at] = int32(len(q.buf) - at - 1)
}

// pop dequeues the head list. The list stays valid until the next pop,
// which first moves the live lists to the front once the consumed
// prefix is the larger half of the buffer.
func (q *enabledQueue) pop() []int32 {
	if q.head > len(q.buf)/2 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	start := q.head + 1
	end := start + int(q.buf[q.head])
	q.head = end
	return q.buf[start:end:end]
}

// fireTo fires t (which must be enabled) from src into dst. Consuming
// ops replay in arc order and a wildcard arc removes the smallest
// color first, so packed successors decode to exactly the markings the
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
			return &OverflowError{Place: c.net.places[c.slotPl[d.slot]].Name}
		}
		dst[d.slot] += byte(d.k)
	}
	return nil
}

// decode expands a packed state back to a Marking (deadlock
// diagnostics only).
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

// compileFinalPlaces lowers an ExploreOptions.FinalPlaces list to
// ascending packed place indexes.
func (c *compiled) compileFinalPlaces(fp []PlaceID) []int32 {
	out := make([]int32, 0, len(fp))
	for _, p := range fp {
		out = append(out, int32(p))
	}
	slices.Sort(out)
	return out
}

// isFinal reports whether every final place is marked in s.
func (c *compiled) isFinal(s []byte, fp []int32) bool {
	for _, p := range fp {
		if c.placeTotal(s, p) == 0 {
			return false
		}
	}
	return true
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

// stateSeed keys hashState. The hash picks only where a state is
// probed in the table, never its id, so a per-process seed leaves every
// exploration's ids and edges unchanged.
var stateSeed = maphash.MakeSeed()

func hashState(s []byte) uint64 { return maphash.Bytes(stateSeed, s) }

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
//
// Only the initial state's enabled set is a scan of the whole net.
// Every inserted state derives its set from the state it was first
// reached from (appendDerivedEnabled), so a successor costs work
// proportional to the transition that fired, and the list comes out
// ascending: reduce sees exactly the list a full scan would give.
func (c *compiled) exploreGraph(ctx context.Context, maxStates int, fp []int32, reduce bool) (*sgraph, error) {
	st := newStateTable(c.stateLen, 1024)
	st.insert(hashState(c.initial), c.initial)
	g := &sgraph{}
	var sb *stubbornCtx
	if reduce {
		c.ensureDisablers()
		sb = newStubbornCtx(c)
	}
	affected := c.affectedSets()
	q := enabledQueue{buf: make([]int32, 1, 1+len(c.trans))}
	q.buf = c.enabledList(q.buf, c.initial)
	q.buf[0] = int32(len(q.buf) - 1)
	dst := make([]byte, c.stateLen)
	for i := int32(0); int(i) < st.count(); i++ {
		if err := ctxErrEvery(ctx, int(i)); err != nil {
			return nil, err
		}
		s := st.state(i)
		enabled := q.pop()
		g.final = append(g.final, c.isFinal(s, fp))
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
				q.pushDerived(c, enabled, affected[t], dst)
			}
			g.edgeFrom = append(g.edgeFrom, i)
			g.edgeTo = append(g.edgeTo, id)
		}
	}
	g.n = st.count()
	g.st = st
	return g, nil
}
