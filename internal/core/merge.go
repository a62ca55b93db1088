package core

import (
	"fmt"

	"dscweaver/internal/cond"
)

// Merge builds the synchronization constraint set P of Definition 1
// from a four-dimension dependency catalog (§4.2):
//
//   - data, cooperation and service dependencies become unconditional
//     HappenBefore constraints F(from) → S(to);
//   - control dependencies become conditional HappenBefore constraints
//     F(decision) →[decision=branch] S(target); a control dependency
//     with the NONE annotation (empty branch) is unconditional.
//
// Dependencies that impose the same (from, to) pair are folded into a
// single constraint whose condition is the disjunction of the
// contributors and whose Origins record every dimension involved —
// this is how the duplicate recPurchase_oi → replyClient_oi data and
// cooperation rows of Table 1 become one entry of Figure 7.
func Merge(p *Process, deps *DependencySet) (*ConstraintSet, error) {
	if err := deps.Validate(p); err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	sc := newConstraintSetSize(p, deps.Len())
	for _, d := range deps.deps {
		c := Constraint{
			Rel:     HappenBefore,
			From:    Point{Node: d.From, State: Finish},
			To:      Point{Node: d.To, State: Start},
			Cond:    cond.True(),
			Origins: []Dimension{d.Dim},
		}
		if d.Label != "" {
			c.Labels = []string{d.Label}
		}
		if d.Dim == Control && d.Branch != "" {
			c.Cond = cond.Lit(string(d.From.Activity), d.Branch)
		}
		sc.Add(c)
	}
	return sc, nil
}

// MergeSets merges multiple dependency catalogs (e.g. one per
// participating service, as in automatic service composition — §1's
// scheduling-engine scenario) into a single constraint set.
func MergeSets(p *Process, sets ...*DependencySet) (*ConstraintSet, error) {
	all := NewDependencySet()
	for _, s := range sets {
		all.AddAll(s)
	}
	return Merge(p, all)
}
