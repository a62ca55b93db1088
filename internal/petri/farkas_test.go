// Farkas P-invariants, kept in test code: the 1-boundedness property
// test uses them to confirm that every activity of a Build net keeps
// wait + running + done = 1.

package petri

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// PlaceInvariant is a nonnegative integer weighting of places whose
// weighted token count is constant under every transition firing
// (xᵀ·C = 0 for the incidence matrix C). Invariants are computed on
// the color-abstracted net (token counts per place, colors ignored),
// which is sound: a colored firing moves the same token counts.
type PlaceInvariant struct {
	// Weights maps place → weight; places with weight zero are
	// omitted.
	Weights map[PlaceID]int64
	// Constant is the invariant's value under the initial marking.
	Constant int64
}

// String renders "wait/a + running/a + done/a = 1" style.
func (inv PlaceInvariant) render(n *Net) string {
	type term struct {
		name string
		w    int64
	}
	var terms []term
	for p, w := range inv.Weights {
		terms = append(terms, term{name: n.places[p].Name, w: w})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].name < terms[j].name })
	parts := make([]string, len(terms))
	for i, t := range terms {
		if t.w == 1 {
			parts[i] = t.name
		} else {
			parts[i] = fmt.Sprintf("%d·%s", t.w, t.name)
		}
	}
	return fmt.Sprintf("%s = %d", strings.Join(parts, " + "), inv.Constant)
}

// Describe renders an invariant against this net's place names.
func (n *Net) Describe(inv PlaceInvariant) string { return inv.render(n) }

// incidence builds the color-abstracted incidence matrix: one row per
// place, one column per transition, entry = tokens produced − tokens
// consumed.
func (n *Net) incidence() [][]int64 {
	c := make([][]int64, len(n.places))
	for p := range c {
		c[p] = make([]int64, len(n.transitions))
	}
	for t, tr := range n.transitions {
		for _, a := range tr.Arcs {
			switch a.Kind {
			case ArcIn:
				c[a.Place][t]--
			case ArcOut:
				c[a.Place][t]++
			}
		}
	}
	return c
}

// PlaceInvariants computes a basis of nonnegative place invariants
// using the Farkas algorithm (the standard method for P-semiflows):
// start from the identity alongside the incidence matrix and
// repeatedly combine rows to cancel each transition column, keeping
// only nonnegative combinations. The result is a generating set of
// minimal-support semiflows, capped at maxInvariants to bound the
// (worst-case exponential) enumeration.
func (n *Net) PlaceInvariants(maxInvariants int) ([]PlaceInvariant, error) {
	if maxInvariants <= 0 {
		maxInvariants = 256
	}
	nP, nT := len(n.places), len(n.transitions)
	inc := n.incidence()

	// Rows: [ D | B ] with D the evolving incidence part and B the
	// place combination that produced it.
	newRow := func() frow {
		r := frow{d: make([]*big.Int, nT), b: make([]*big.Int, nP)}
		for i := range r.d {
			r.d[i] = new(big.Int)
		}
		for i := range r.b {
			r.b[i] = new(big.Int)
		}
		return r
	}
	rows := make([]frow, nP)
	for p := 0; p < nP; p++ {
		rows[p] = newRow()
		for t := 0; t < nT; t++ {
			rows[p].d[t].SetInt64(inc[p][t])
		}
		rows[p].b[p].SetInt64(1)
	}

	for t := 0; t < nT; t++ {
		var zero, pos, neg []frow
		for _, r := range rows {
			switch r.d[t].Sign() {
			case 0:
				zero = append(zero, r)
			case 1:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		// Combine every positive with every negative row to cancel
		// column t.
		for _, rp := range pos {
			for _, rn := range neg {
				if len(zero) > 4*maxInvariants {
					return nil, fmt.Errorf("petri: invariant basis exceeds %d rows", 4*maxInvariants)
				}
				a := new(big.Int).Abs(rn.d[t])  // multiplier for rp
				bm := new(big.Int).Set(rp.d[t]) // multiplier for rn
				nr := newRow()
				for i := 0; i < nT; i++ {
					nr.d[i].Mul(rp.d[i], a)
					nr.d[i].Add(nr.d[i], new(big.Int).Mul(rn.d[i], bm))
				}
				for i := 0; i < nP; i++ {
					nr.b[i].Mul(rp.b[i], a)
					nr.b[i].Add(nr.b[i], new(big.Int).Mul(rn.b[i], bm))
				}
				normalizeRow(nr.d, nr.b)
				zero = append(zero, nr)
			}
		}
		rows = dedupRows(zero)
	}

	initial := n.InitialMarking()
	var out []PlaceInvariant
	for _, r := range rows {
		inv := PlaceInvariant{Weights: map[PlaceID]int64{}}
		nonzero := false
		ok := true
		for p := 0; p < nP; p++ {
			if r.b[p].Sign() == 0 {
				continue
			}
			if !r.b[p].IsInt64() {
				ok = false
				break
			}
			w := r.b[p].Int64()
			inv.Weights[PlaceID(p)] = w
			inv.Constant += w * int64(initial.Tokens(PlaceID(p)))
			nonzero = true
		}
		if !ok || !nonzero {
			continue
		}
		out = append(out, inv)
		if len(out) >= maxInvariants {
			break
		}
	}
	return out, nil
}

// normalizeRow divides both halves by their common gcd.
func normalizeRow(d, b []*big.Int) {
	g := new(big.Int)
	for _, x := range append(append([]*big.Int{}, d...), b...) {
		if x.Sign() != 0 {
			if g.Sign() == 0 {
				g.Abs(x)
			} else {
				g.GCD(nil, nil, g, new(big.Int).Abs(x))
			}
		}
	}
	if g.Sign() == 0 || g.Cmp(big.NewInt(1)) == 0 {
		return
	}
	for _, x := range d {
		x.Div(x, g)
	}
	for _, x := range b {
		x.Div(x, g)
	}
}

// frow is one working row of the Farkas construction.
type frow struct {
	d []*big.Int // incidence part, length = transitions
	b []*big.Int // place-combination part, length = places
}

// dedupRows removes duplicate rows and rows whose place support
// strictly contains another row's support (only minimal-support
// semiflows are kept).
func dedupRows(rows []frow) []frow {
	// Exact duplicates first.
	seen := map[string]bool{}
	uniq := rows[:0]
	for _, r := range rows {
		var b strings.Builder
		for _, x := range r.b {
			b.WriteString(x.String())
			b.WriteByte(',')
		}
		b.WriteByte('|')
		for _, x := range r.d {
			b.WriteString(x.String())
			b.WriteByte(',')
		}
		if key := b.String(); !seen[key] {
			seen[key] = true
			uniq = append(uniq, r)
		}
	}
	// Support minimality (only among settled rows, i.e. d all-zero
	// rows; combining rows never resurrects dominated supports for the
	// still-active ones, so restrict the filter to avoid losing
	// progress rows).
	support := func(r frow) map[int]bool {
		s := map[int]bool{}
		for i, x := range r.b {
			if x.Sign() != 0 {
				s[i] = true
			}
		}
		return s
	}
	settled := func(r frow) bool {
		for _, x := range r.d {
			if x.Sign() != 0 {
				return false
			}
		}
		return true
	}
	var out []frow
	for i, r := range uniq {
		if !settled(r) {
			out = append(out, r)
			continue
		}
		ri := support(r)
		dominated := false
		for j, o := range uniq {
			if i == j || !settled(o) {
				continue
			}
			oj := support(o)
			if len(oj) >= len(ri) {
				continue
			}
			subset := true
			for p := range oj {
				if !ri[p] {
					subset = false
					break
				}
			}
			if subset {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

// CheckInvariants verifies that every invariant holds in every
// reachable marking (bounded exploration), returning the first
// violation.
func (n *Net) CheckInvariants(invs []PlaceInvariant, maxStates int) error {
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	seen := map[string]bool{}
	start := n.InitialMarking()
	queue := []Marking{start}
	seen[start.Key()] = true
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		for _, inv := range invs {
			var sum int64
			for p, w := range inv.Weights {
				sum += w * int64(m.Tokens(p))
			}
			if sum != inv.Constant {
				return fmt.Errorf("petri: invariant %s violated in %s (value %d)",
					n.Describe(inv), n.describeMarking(m), sum)
			}
		}
		for _, t := range n.Enabled(m) {
			next, err := n.Fire(m, t)
			if err != nil {
				return err
			}
			if key := next.Key(); !seen[key] {
				if len(seen) >= maxStates {
					return nil
				}
				seen[key] = true
				queue = append(queue, next)
			}
		}
	}
	return nil
}
