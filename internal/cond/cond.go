// Package cond implements a small boolean condition algebra over
// decision literals.
//
// A decision is a named choice point in a business process (for example
// the if_au activity of the Purchasing process) whose outcome ranges
// over a finite domain of branch values (usually "T"/"F", but switch
// constructs may declare any label set). A Literal asserts that a
// particular decision took a particular value. Expressions are kept in
// disjunctive normal form (DNF): a disjunction of conjunctive terms.
//
// The package exists to support the condition-annotated transitive
// closure of the dependency optimizer (paper Definition 3): every path
// through a dependency graph accumulates the conjunction of the branch
// conditions along it, and alternative paths between the same pair of
// activities combine by disjunction. Deciding whether a constraint is
// redundant then reduces to semantic equivalence of two expressions
// over the finite branch domains, which Equal performs by bounded
// enumeration.
package cond

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Literal asserts that decision Decision resolved to branch Value.
type Literal struct {
	Decision string
	Value    string
}

// String renders the literal as "decision=value".
func (l Literal) String() string { return l.Decision + "=" + l.Value }

func compareLiterals(a, b Literal) int {
	if a.Decision != b.Decision {
		if a.Decision < b.Decision {
			return -1
		}
		return 1
	}
	if a.Value != b.Value {
		if a.Value < b.Value {
			return -1
		}
		return 1
	}
	return 0
}

// term is a conjunction of literals, sorted by decision then value,
// with no duplicates. A term containing two different values for the
// same decision is contradictory and is never stored.
type term []Literal

// Expr is a boolean expression in canonical DNF. The zero value is
// False (no terms). Expressions are immutable; all operations return
// new values.
type Expr struct {
	terms []term
}

// trueTerms is True's one empty term. Expressions are immutable, so
// every True shares it; its capacity of one makes any append copy.
var trueTerms = []term{{}}

// True returns the expression satisfied by every assignment.
func True() Expr { return Expr{terms: trueTerms} }

// False returns the unsatisfiable expression.
func False() Expr { return Expr{} }

// Lit returns the expression consisting of the single literal
// decision=value.
func Lit(decision, value string) Expr {
	return Expr{terms: []term{{Literal{Decision: decision, Value: value}}}}
}

// FromLiterals returns the conjunction of the given literals. It
// returns False if the literals are contradictory.
func FromLiterals(lits []Literal) Expr {
	t, ok := normalizeTerm(lits)
	if !ok {
		return False()
	}
	return Expr{terms: []term{t}}
}

// IsTrue reports whether the expression is syntactically the canonical
// True (a single empty term). Expressions built by And/Or are
// absorption-normalized, so tautologies that require domain knowledge
// (e.g. x=T ∨ x=F) are not detected here; use Equal with Domains for
// semantic checks, or Simplify to fold full-domain disjunctions.
func (e Expr) IsTrue() bool { return len(e.terms) == 1 && len(e.terms[0]) == 0 }

// IsFalse reports whether the expression has no satisfying terms.
func (e Expr) IsFalse() bool { return len(e.terms) == 0 }

// normalizeTerm sorts and deduplicates the literals of a conjunction.
// The second result is false if the term is contradictory.
func normalizeTerm(lits []Literal) (term, bool) {
	t := make(term, len(lits))
	copy(t, lits)
	return normalizeOwnedTerm(t)
}

// normalizeOwnedTerm is normalizeTerm on a slice the caller hands
// over: it sorts and deduplicates t in place.
func normalizeOwnedTerm(t term) (term, bool) {
	slices.SortFunc(t, compareLiterals)
	out := t[:0]
	for i, l := range t {
		if i > 0 && l == t[i-1] {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Decision == l.Decision {
			return nil, false // same decision, different value
		}
		out = append(out, l)
	}
	return out, true
}

// subsumes reports whether every literal of a also occurs in b, i.e.
// a is weaker (covers at least the assignments of b).
func (a term) subsumes(b term) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, l := range b {
		if i < len(a) && a[i] == l {
			i++
		}
	}
	return i == len(a)
}

func compareTerms(a, b term) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareLiterals(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// normalize sorts terms, removes duplicates, and applies absorption
// (a term subsumed by a weaker term is dropped).
func normalize(ts []term) Expr {
	// Absorption.
	kept := make([]term, 0, len(ts))
	for i, t := range ts {
		absorbed := false
		for j, u := range ts {
			if i == j {
				continue
			}
			if u.subsumes(t) && (!t.subsumes(u) || j < i) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, t)
		}
	}
	slices.SortFunc(kept, compareTerms)
	out := kept[:0]
	for i, t := range kept {
		if i > 0 && compareTerms(t, kept[i-1]) == 0 {
			continue
		}
		out = append(out, t)
	}
	return Expr{terms: out}
}

// Or returns the disjunction of the operands.
func Or(es ...Expr) Expr {
	var ts []term
	for _, e := range es {
		if e.IsTrue() {
			return True()
		}
		ts = append(ts, e.terms...)
	}
	return normalize(ts)
}

// And returns the conjunction of the operands, distributing over the
// DNF terms. Contradictory cross-terms are dropped. True operands are
// the identity and are skipped.
func And(es ...Expr) Expr {
	acc := trueTerms
	for _, e := range es {
		if e.IsFalse() {
			return False()
		}
		if e.IsTrue() {
			continue
		}
		next := make([]term, 0, len(acc)*len(e.terms))
		for _, a := range acc {
			for _, b := range e.terms {
				merged := make(term, 0, len(a)+len(b))
				merged = append(merged, a...)
				merged = append(merged, b...)
				if t, ok := normalizeOwnedTerm(merged); ok {
					next = append(next, t)
				}
			}
		}
		if len(next) == 0 {
			return False()
		}
		acc = next
	}
	return normalize(acc)
}

// AndLit returns e ∧ decision=value.
func AndLit(e Expr, decision, value string) Expr {
	return And(e, Lit(decision, value))
}

// Assume returns the cofactor of e under the given partial assignment:
// literals satisfied by the assignment are dropped from their terms,
// and terms contradicted by it are removed. Decisions not mentioned in
// the assignment are untouched.
func (e Expr) Assume(assign map[string]string) Expr {
	var ts []term
	for _, t := range e.terms {
		keep := true
		var reduced []Literal
		for _, l := range t {
			if v, ok := assign[l.Decision]; ok {
				if v != l.Value {
					keep = false
					break
				}
				continue // satisfied, drop
			}
			reduced = append(reduced, l)
		}
		if keep {
			nt, _ := normalizeTerm(reduced)
			ts = append(ts, nt)
		}
	}
	return normalize(ts)
}

// Eval reports whether the expression is satisfied by the (total, with
// respect to the expression's decisions) assignment. A literal whose
// decision is missing from the assignment counts as unsatisfied.
func (e Expr) Eval(assign map[string]string) bool {
	for _, t := range e.terms {
		ok := true
		for _, l := range t {
			if assign[l.Decision] != l.Value {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Decisions returns the sorted set of decision names mentioned by the
// expression.
func (e Expr) Decisions() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range e.terms {
		for _, l := range t {
			if !seen[l.Decision] {
				seen[l.Decision] = true
				out = append(out, l.Decision)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Terms exposes the DNF structure as a copy: one slice of literals per
// conjunctive term. An empty outer slice means False; a single empty
// inner slice means True.
func (e Expr) Terms() [][]Literal {
	out := make([][]Literal, len(e.terms))
	for i, t := range e.terms {
		out[i] = append([]Literal(nil), t...)
	}
	return out
}

// Same reports structural identity of two expressions: the same
// canonical DNF terms in the same order. Because And/Or/Simplify keep
// expressions normalized (sorted, deduplicated, absorbed), Same-equal
// expressions are always semantically equal; the converse requires
// Equal's domain enumeration (e.g. x=T ∨ x=F vs ⊤). Unlike comparing
// String() renderings, Same walks the terms without allocating — it is
// the fast path of the optimizer's closure comparisons.
func (e Expr) Same(o Expr) bool {
	if len(e.terms) != len(o.terms) {
		return false
	}
	for i, t := range e.terms {
		u := o.terms[i]
		if len(t) != len(u) {
			return false
		}
		for j, l := range t {
			if l != u[j] {
				return false
			}
		}
	}
	return true
}

// AppendKey appends a compact canonical encoding of the expression to
// dst and returns the extended slice. Two expressions produce the same
// key iff they are Same, so the key can index memo tables without
// holding on to the expressions themselves. The encoding opens every
// term with '(' (distinguishing True, one empty term, from False, no
// terms) and separates literals with '&'.
func (e Expr) AppendKey(dst []byte) []byte {
	for _, t := range e.terms {
		dst = append(dst, '(')
		for j, l := range t {
			if j > 0 {
				dst = append(dst, '&')
			}
			dst = append(dst, l.Decision...)
			dst = append(dst, '=')
			dst = append(dst, l.Value...)
		}
	}
	return dst
}

// String renders the expression, e.g. "(if_au=T) ∨ (if_au=F ∧ retry=T)".
// True renders as "⊤" and False as "⊥".
func (e Expr) String() string {
	if e.IsFalse() {
		return "⊥"
	}
	if e.IsTrue() {
		return "⊤"
	}
	parts := make([]string, len(e.terms))
	for i, t := range e.terms {
		lits := make([]string, len(t))
		for j, l := range t {
			lits[j] = l.String()
		}
		parts[i] = strings.Join(lits, " ∧ ")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(" + strings.Join(parts, ") ∨ (") + ")"
}

// Domains maps each decision name to its finite set of branch values.
type Domains map[string][]string

// DefaultDomain is assumed for decisions absent from a Domains map:
// the boolean branch labels used throughout the paper.
var DefaultDomain = []string{"T", "F"}

func (d Domains) valuesOf(decision string) []string {
	if vs, ok := d[decision]; ok && len(vs) > 0 {
		return vs
	}
	return DefaultDomain
}

// Values returns the branch domain of a decision, falling back to
// DefaultDomain for decisions the map does not mention.
func (d Domains) Values(decision string) []string {
	return append([]string(nil), d.valuesOf(decision)...)
}

// MaxEnumeration bounds the number of assignments Equal and Implies
// will enumerate before giving up with an error.
const MaxEnumeration = 1 << 20

// enumerate calls fn with every total assignment over the given
// decisions and returns false as soon as fn does.
func enumerate(decisions []string, doms Domains, fn func(map[string]string) bool) (bool, error) {
	total := 1
	for _, d := range decisions {
		total *= len(doms.valuesOf(d))
		if total > MaxEnumeration {
			return false, fmt.Errorf("cond: %d decisions exceed enumeration bound %d", len(decisions), MaxEnumeration)
		}
	}
	assign := make(map[string]string, len(decisions))
	var walk func(i int) bool
	walk = func(i int) bool {
		if i == len(decisions) {
			return fn(assign)
		}
		for _, v := range doms.valuesOf(decisions[i]) {
			assign[decisions[i]] = v
			if !walk(i + 1) {
				return false
			}
		}
		delete(assign, decisions[i])
		return true
	}
	return walk(0), nil
}

func unionDecisions(a, b Expr) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range []Expr{a, b} {
		for _, d := range e.Decisions() {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Equal reports semantic equivalence of a and b over the branch
// domains: the two expressions evaluate identically under every total
// assignment of the decisions either mentions.
func Equal(a, b Expr, doms Domains) (bool, error) {
	return enumerate(unionDecisions(a, b), doms, func(assign map[string]string) bool {
		return a.Eval(assign) == b.Eval(assign)
	})
}

// Implies reports whether every assignment satisfying a also
// satisfies b.
func Implies(a, b Expr, doms Domains) (bool, error) {
	return enumerate(unionDecisions(a, b), doms, func(assign map[string]string) bool {
		return !a.Eval(assign) || b.Eval(assign)
	})
}

// Tautology reports whether e is satisfied by every assignment over
// the branch domains.
func Tautology(e Expr, doms Domains) (bool, error) {
	return Equal(e, True(), doms)
}

// Simplify folds full-domain disjunctions: whenever the expression
// contains, for some decision d and context term t, one term
// t ∧ d=v for every v in d's domain, those terms are replaced by t.
// The result is semantically equal to the input and never larger.
// Unlike Equal, Simplify is purely syntactic and cheap; it is applied
// opportunistically to keep DNF sizes small during closure
// computation.
func Simplify(e Expr, doms Domains) Expr {
	ts := append([]term(nil), e.terms...)
	for changed := true; changed; {
		changed = false
	outer:
		for _, t := range ts {
			for _, l := range t {
				rest := make(term, 0, len(t)-1)
				for _, m := range t {
					if m != l {
						rest = append(rest, m)
					}
				}
				if coversDomain(ts, rest, l.Decision, doms) {
					ts = append(ts, rest)
					res := normalize(ts)
					ts = res.terms
					changed = true
					break outer
				}
			}
		}
	}
	return normalize(ts)
}

// coversDomain reports whether ts contains rest ∧ d=v (or something
// weaker) for every value v of decision d.
func coversDomain(ts []term, rest term, decision string, doms Domains) bool {
	for _, v := range doms.valuesOf(decision) {
		want := append(append(term{}, rest...), Literal{Decision: decision, Value: v})
		want, ok := normalizeTerm(want)
		if !ok {
			return false
		}
		covered := false
		for _, t := range ts {
			if t.subsumes(want) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
