package core

import (
	"fmt"
	"sort"
	"strings"
)

// DependencyDOT renders a dependency catalog as a Graphviz digraph in
// the style of the paper's Figures 4–5: data dependencies dashed,
// control dependencies solid with their branch annotation, service
// dependencies gray with boxed external nodes, cooperation
// dependencies dotted. Output is deterministic.
func DependencyDOT(name string, deps *DependencySet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n  node [shape=ellipse, fontsize=10];\n")

	for _, n := range deps.Nodes() {
		if n.IsService() {
			fmt.Fprintf(&b, "  %q [shape=box, style=filled, fillcolor=lightgray];\n", n.String())
		}
	}

	var lines []string
	for _, d := range deps.All() {
		attrs := map[string]string{}
		switch d.Dim {
		case Data:
			attrs["style"] = "dashed"
			if d.Label != "" {
				attrs["label"] = d.Label
			}
		case Control:
			attrs["style"] = "solid"
			if d.Branch != "" {
				attrs["label"] = d.Branch
			} else {
				attrs["label"] = "NONE"
			}
		case ServiceDim:
			attrs["color"] = "gray40"
		case Cooperation:
			attrs["style"] = "dotted"
		}
		lines = append(lines, edgeLine(d.From.String(), d.To.String(), attrs))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
	}
	b.WriteString("}\n")
	return b.String()
}

// ConstraintDOT renders a constraint set as a Graphviz digraph in the
// style of Figures 7–9: one edge per HappenBefore constraint (labeled
// with its condition when conditional, bold when service-derived),
// Exclusive constraints as red undirected-looking double arrows.
// Points other than the default F→S render their states on the label.
func ConstraintDOT(name string, sc *ConstraintSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=TB;\n  node [shape=ellipse, fontsize=10];\n")

	for _, n := range sc.ServiceNodes() {
		fmt.Fprintf(&b, "  %q [shape=box, style=filled, fillcolor=lightgray];\n", n.String())
	}

	var lines []string
	for _, c := range sc.constraints {
		attrs := map[string]string{}
		var labels []string
		switch c.Rel {
		case HappenBefore:
			if !c.Cond.IsTrue() {
				labels = append(labels, c.Cond.String())
			}
			if c.From.State != Finish || c.To.State != Start {
				labels = append(labels, fmt.Sprintf("%s→%s", c.From.State, c.To.State))
			}
			if c.HasOrigin(ServiceDim) {
				attrs["style"] = "bold"
			}
		case HappenTogether:
			attrs["dir"] = "both"
			attrs["color"] = "blue"
		case Exclusive:
			attrs["dir"] = "both"
			attrs["color"] = "red"
			labels = append(labels, "excl")
		}
		if len(labels) > 0 {
			attrs["label"] = strings.Join(labels, ", ")
		}
		lines = append(lines, edgeLine(c.From.Node.String(), c.To.Node.String(), attrs))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
	}
	b.WriteString("}\n")
	return b.String()
}

func edgeLine(from, to string, attrs map[string]string) string {
	if len(attrs) == 0 {
		return fmt.Sprintf("  %q -> %q;\n", from, to)
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, attrs[k])
	}
	return fmt.Sprintf("  %q -> %q [%s];\n", from, to, strings.Join(parts, ", "))
}
