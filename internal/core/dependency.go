package core

import (
	"fmt"
	"sort"
	"strings"
)

// Dimension is one of the paper's four dependency categories (§3).
type Dimension int

const (
	// Data marks definition-use dependencies between a producer and a
	// consumer of a process variable (§3.1).
	Data Dimension = iota
	// Control marks branch dependencies from a decision activity to
	// the activities on its descendant branches (§3.1).
	Control
	// ServiceDim marks interaction constraints between the process and
	// a remote service, or within a remote service (§3.2).
	ServiceDim
	// Cooperation marks application-level constraints superimposed by
	// analysts or domain experts that no other dimension captures
	// (§3.2).
	Cooperation
)

var dimensionNames = map[Dimension]string{
	Data:        "data",
	Control:     "control",
	ServiceDim:  "service",
	Cooperation: "cooperation",
}

func (d Dimension) String() string {
	if s, ok := dimensionNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Dimension(%d)", int(d))
}

// Arrow returns the paper's arrow notation for the dimension
// (→d, →c, →s, →o).
func (d Dimension) Arrow() string {
	switch d {
	case Data:
		return "→d"
	case Control:
		return "→c"
	case ServiceDim:
		return "→s"
	case Cooperation:
		return "→o"
	default:
		return "→?"
	}
}

// Dimensions lists all four categories in the paper's presentation
// order.
var Dimensions = []Dimension{Data, Control, ServiceDim, Cooperation}

// Dependency is one entry of a dependency catalog (one row of the
// paper's Table 1).
type Dependency struct {
	From, To Node
	Dim      Dimension
	// Branch carries the control condition ("T", "F", or a switch
	// label). Empty means unconditional — the paper's NONE annotation,
	// which also applies to all non-control dimensions.
	Branch string
	// Label records provenance: the variable name for data
	// dependencies, the business reason for cooperation dependencies,
	// the conversation document for service dependencies.
	Label string
}

// String renders the dependency in the paper's notation, e.g.
// "if_au →c[T] invPurchase_po" or "recShip_si →d invPurchase_si".
func (d Dependency) String() string {
	arrow := d.Dim.Arrow()
	if d.Dim == Control && d.Branch != "" {
		arrow = "→c[" + d.Branch + "]"
	}
	return d.From.String() + " " + arrow + " " + d.To.String()
}

// depKey identifies a dependency for deduplication: everything but
// its provenance label.
type depKey struct {
	from, to Node
	dim      Dimension
	branch   string
}

func (d Dependency) key() depKey {
	return depKey{from: d.From, to: d.To, dim: d.Dim, branch: d.Branch}
}

// DependencySet is an ordered, duplicate-free collection of
// dependencies across all four dimensions.
type DependencySet struct {
	deps []Dependency
	seen map[depKey]bool
}

// NewDependencySet returns an empty set.
func NewDependencySet() *DependencySet {
	return &DependencySet{seen: map[depKey]bool{}}
}

// Add inserts a dependency, ignoring exact duplicates. It reports
// whether the dependency was new.
func (s *DependencySet) Add(d Dependency) bool {
	k := d.key()
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.deps = append(s.deps, d)
	return true
}

// AddAll inserts every dependency of other.
func (s *DependencySet) AddAll(other *DependencySet) {
	for _, d := range other.deps {
		s.Add(d)
	}
}

// All returns the dependencies in insertion order (copy).
func (s *DependencySet) All() []Dependency {
	return append([]Dependency(nil), s.deps...)
}

// ByDimension returns the dependencies of one dimension in insertion
// order.
func (s *DependencySet) ByDimension(dim Dimension) []Dependency {
	var out []Dependency
	for _, d := range s.deps {
		if d.Dim == dim {
			out = append(out, d)
		}
	}
	return out
}

// Len returns the total number of dependencies.
func (s *DependencySet) Len() int { return len(s.deps) }

// CountByDimension returns the per-dimension tally — the row counts of
// Table 1.
func (s *DependencySet) CountByDimension() map[Dimension]int {
	out := map[Dimension]int{}
	for _, d := range s.deps {
		out[d.Dim]++
	}
	return out
}

// Nodes returns every node mentioned by the set, sorted.
func (s *DependencySet) Nodes() []Node {
	seen := map[Node]bool{}
	var out []Node
	for _, d := range s.deps {
		for _, n := range [2]Node{d.From, d.To} {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	SortNodes(out)
	return out
}

// String renders the set grouped by dimension in the paper's Table 1
// layout.
func (s *DependencySet) String() string {
	var b strings.Builder
	for _, dim := range Dimensions {
		deps := s.ByDimension(dim)
		if len(deps) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s {%s}: %d\n", dim, dim.Arrow(), len(deps))
		for _, d := range deps {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	return b.String()
}

// Validate checks every dependency against the process: internal nodes
// must name declared activities, external nodes declared service
// ports, control dependencies must originate at decisions with a
// declared branch label, and no dependency may be reflexive.
func (s *DependencySet) Validate(p *Process) error {
	for _, d := range s.deps {
		if d.From == d.To {
			return fmt.Errorf("reflexive dependency %s", d)
		}
		for _, n := range []Node{d.From, d.To} {
			if n.IsService() {
				if d.Dim != ServiceDim {
					return fmt.Errorf("dependency %s: external node %s outside the service dimension", d, n)
				}
				svc, ok := p.Service(n.Service)
				if !ok {
					return fmt.Errorf("dependency %s: undeclared service %s", d, n.Service)
				}
				if n.Port == DummyPort {
					if !svc.Async {
						return fmt.Errorf("dependency %s: dummy port on synchronous service %s", d, n.Service)
					}
				} else if n.Port != "" && !contains(svc.Ports, n.Port) {
					return fmt.Errorf("dependency %s: undeclared port %s", d, n)
				}
			} else if _, ok := p.Activity(n.Activity); !ok {
				return fmt.Errorf("dependency %s: undeclared activity %s", d, n.Activity)
			}
		}
		if d.Dim == Control {
			if d.From.IsService() {
				return fmt.Errorf("control dependency %s from external node", d)
			}
			a, _ := p.Activity(d.From.Activity)
			if a.Kind != KindDecision {
				return fmt.Errorf("control dependency %s from non-decision %s", d, a.ID)
			}
			if d.Branch != "" && !contains(a.BranchDomain(), d.Branch) {
				return fmt.Errorf("control dependency %s: branch %q not in domain %v", d, d.Branch, a.BranchDomain())
			}
		} else if d.Branch != "" {
			return fmt.Errorf("dependency %s: branch annotation outside the control dimension", d)
		}
	}
	return nil
}

// SortedKeys renders each dependency and sorts the strings; useful for
// golden comparisons in tests.
func (s *DependencySet) SortedKeys() []string {
	out := make([]string, len(s.deps))
	for i, d := range s.deps {
		out[i] = d.String()
	}
	sort.Strings(out)
	return out
}
