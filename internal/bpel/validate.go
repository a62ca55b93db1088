package bpel

import (
	"fmt"

	"dscweaver/internal/graph"
)

// Validate performs the static checks of the BPEL flow/link subset:
//
//   - activity names are unique and nonempty;
//   - every declared link has exactly one source and one target
//     attachment, and every attachment references a declared link;
//   - no activity is both source and target of the same link;
//   - the link graph is acyclic (a BPEL static-analysis requirement:
//     links must not create control cycles).
//
// It returns nil when the document is well-formed. A document with
// several faults reports the first in declaration order: activities
// in flow order, links in <links> order.
func Validate(p *Process) error {
	if p.Flow == nil {
		return fmt.Errorf("bpel: process %s has no flow", p.Name)
	}
	acts := p.Flow.activities()
	byName := make(map[string]int, len(acts))
	for i, a := range acts {
		if a.Name == "" {
			return fmt.Errorf("bpel: unnamed activity at index %d", i)
		}
		if _, dup := byName[a.Name]; dup {
			return fmt.Errorf("bpel: duplicate activity name %q", a.Name)
		}
		byName[a.Name] = i
	}

	var links []Link
	if p.Flow.Links != nil {
		links = p.Flow.Links.Items
	}
	pos := make(map[string]int, len(links))
	for i, l := range links {
		if l.Name == "" {
			return fmt.Errorf("bpel: unnamed link")
		}
		if _, dup := pos[l.Name]; dup {
			return fmt.Errorf("bpel: duplicate link %q", l.Name)
		}
		pos[l.Name] = i
	}

	// src[i] and dst[i] are the activities attached to link i, or -1.
	ends := make([]int, 2*len(links))
	for i := range ends {
		ends[i] = -1
	}
	src, dst := ends[:len(links)], ends[len(links):]
	for v, a := range acts {
		for _, s := range a.Sources {
			i, ok := pos[s.LinkName]
			if !ok {
				return fmt.Errorf("bpel: activity %q sources undeclared link %q", a.Name, s.LinkName)
			}
			if src[i] >= 0 {
				return fmt.Errorf("bpel: link %q has two sources (%q, %q)", s.LinkName, acts[src[i]].Name, a.Name)
			}
			src[i] = v
		}
		for _, t := range a.Targets {
			i, ok := pos[t.LinkName]
			if !ok {
				return fmt.Errorf("bpel: activity %q targets undeclared link %q", a.Name, t.LinkName)
			}
			if dst[i] >= 0 {
				return fmt.Errorf("bpel: link %q has two targets (%q, %q)", t.LinkName, acts[dst[i]].Name, a.Name)
			}
			dst[i] = v
		}
	}
	for i, l := range links {
		switch {
		case src[i] < 0:
			return fmt.Errorf("bpel: link %q has no source", l.Name)
		case dst[i] < 0:
			return fmt.Errorf("bpel: link %q has no target", l.Name)
		case src[i] == dst[i]:
			return fmt.Errorf("bpel: link %q loops on activity %q", l.Name, acts[src[i]].Name)
		}
	}

	// Acyclicity of the control graph: links plus the implicit order
	// of nested sequences.
	edges := make([][2]int, len(links), len(links)+len(acts))
	for i := range links {
		edges[i] = [2]int{src[i], dst[i]}
	}
	for _, s := range p.Flow.Sequences {
		if s == nil {
			continue
		}
		items := s.activities()
		for i := 0; i+1 < len(items); i++ {
			edges = append(edges, [2]int{byName[items[i].Name], byName[items[i+1].Name]})
		}
	}
	if acyclic(len(acts), edges) {
		return nil
	}
	g := graph.New(len(acts))
	for range acts {
		g.AddNode()
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	cyc := g.FindCycle()
	names := make([]string, len(cyc))
	for i, v := range cyc {
		names[i] = acts[v].Name
	}
	return fmt.Errorf("bpel: links form a control cycle: %v", names)
}

// acyclic reports whether the graph over nodes 0..n-1 with the given
// edges has no cycle (Kahn's algorithm over a flat successor array).
func acyclic(n int, edges [][2]int) bool {
	start := make([]int, n+1)
	indeg := make([]int, n)
	for _, e := range edges {
		start[e[0]+1]++
		indeg[e[1]]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	succ := make([]int, len(edges))
	next := append([]int(nil), start[:n]...)
	for _, e := range edges {
		succ[next[e[0]]] = e[1]
		next[e[0]]++
	}
	ready := next[:0] // next is spent; reuse it as the queue
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	for k := 0; k < len(ready); k++ {
		u := ready[k]
		for _, v := range succ[start[u]:start[u+1]] {
			if indeg[v]--; indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return len(ready) == n
}

// Stats summarizes a document for reporting.
type Stats struct {
	Activities  int
	Links       int
	Conditional int // links with a transitionCondition
	Sequences   int // nested sequences (GenerateStructured)
	Implicit    int // orderings implicit in nested sequences
}

// Summarize counts the document's elements.
func Summarize(p *Process) Stats {
	var s Stats
	if p.Flow == nil {
		return s
	}
	acts := p.Flow.activities()
	s.Activities = len(acts)
	if p.Flow.Links != nil {
		s.Links = len(p.Flow.Links.Items)
	}
	for _, a := range acts {
		for _, src := range a.Sources {
			if src.TransitionCondition != "" {
				s.Conditional++
			}
		}
	}
	s.Sequences = len(p.Flow.Sequences)
	for _, seq := range p.Flow.Sequences {
		if n := len(seq.activities()); n > 1 {
			s.Implicit += n - 1
		}
	}
	return s
}
