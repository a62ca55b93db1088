package dscl

import (
	"context"
	"fmt"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/weave"
)

// Document is the semantic result of loading a DSCL file: the process
// model, its dependency catalog, and any raw DSCL constraints that
// were declared directly (state-level synchronization, HappenTogether,
// Exclusive).
type Document struct {
	Proc  *core.Process
	Deps  *core.DependencySet
	Extra *core.ConstraintSet
}

// Load parses and builds a DSCL document in one step.
func Load(src string) (*Document, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Build(f)
}

// Build lowers a parsed AST to core types, validating references as it
// goes.
func Build(f *File) (*Document, error) {
	pd := f.Process
	proc := core.NewProcess(pd.Name)

	for _, s := range pd.Services {
		svc := &core.Service{
			Name:            s.Name,
			Ports:           append([]string(nil), s.Ports...),
			Async:           s.Async,
			SequentialPorts: s.Sequential,
		}
		if err := proc.AddService(svc); err != nil {
			return nil, declErr(s.Line, err)
		}
	}

	for _, a := range pd.Activities {
		act := &core.Activity{
			ID:       core.ActivityID(a.Name),
			Service:  a.Service,
			Port:     a.Port,
			Reads:    append([]string(nil), a.Reads...),
			Writes:   append([]string(nil), a.Writes...),
			Branches: append([]string(nil), a.Branches...),
		}
		switch a.Kind {
		case "receive":
			act.Kind = core.KindReceive
		case "invoke":
			act.Kind = core.KindInvoke
		case "reply":
			act.Kind = core.KindReply
		case "opaque":
			act.Kind = core.KindOpaque
		case "decision":
			act.Kind = core.KindDecision
		default:
			return nil, &Error{Line: a.Line, Msg: fmt.Sprintf("unknown activity kind %q", a.Kind)}
		}
		if err := proc.AddActivity(act); err != nil {
			return nil, declErr(a.Line, err)
		}
	}
	if err := proc.Validate(); err != nil {
		return nil, fmt.Errorf("dscl: %w", err)
	}

	doc := &Document{Proc: proc, Deps: core.NewDependencySet(), Extra: core.NewConstraintSet(proc)}

	resolveNode := func(ref NodeRef) (core.Node, error) {
		if ref.Port != "" {
			if _, ok := proc.Service(ref.Name); !ok {
				return core.Node{}, &Error{Line: ref.Line, Msg: fmt.Sprintf("undeclared service %q", ref.Name)}
			}
			return core.ServiceNode(ref.Name, ref.Port), nil
		}
		if _, ok := proc.Activity(core.ActivityID(ref.Name)); !ok {
			return core.Node{}, &Error{Line: ref.Line, Msg: fmt.Sprintf("undeclared activity %q", ref.Name)}
		}
		return core.ActivityNode(core.ActivityID(ref.Name)), nil
	}

	for _, d := range pd.Dependencies {
		from, err := resolveNode(d.From)
		if err != nil {
			return nil, err
		}
		to, err := resolveNode(d.To)
		if err != nil {
			return nil, err
		}
		dep := core.Dependency{From: from, To: to, Branch: d.Branch}
		switch d.Dim {
		case "data":
			dep.Dim = core.Data
			dep.Label = d.Var
		case "control":
			dep.Dim = core.Control
		case "service":
			dep.Dim = core.ServiceDim
		case "cooperation":
			dep.Dim = core.Cooperation
			dep.Label = d.Why
		}
		if d.Branch != "" && d.Dim != "control" {
			return nil, &Error{Line: d.Line, Msg: fmt.Sprintf("branch annotation on %s dependency", d.Dim)}
		}
		doc.Deps.Add(dep)
	}
	if err := doc.Deps.Validate(proc); err != nil {
		return nil, fmt.Errorf("dscl: %w", err)
	}

	for _, c := range pd.Constraints {
		// Positional defaults for bare activity references: F → S for
		// ordering relations (the paper's F_i → S_j reading), R >< R
		// for exclusion.
		defaultFrom, defaultTo := core.Finish, core.Start
		if c.Rel == "><" {
			defaultFrom, defaultTo = core.Run, core.Run
		}
		from, err := resolvePoint(c.From, resolveNode, defaultFrom)
		if err != nil {
			return nil, err
		}
		to, err := resolvePoint(c.To, resolveNode, defaultTo)
		if err != nil {
			return nil, err
		}
		con := core.Constraint{From: from, To: to, Cond: cond.True(), Origins: []core.Dimension{core.Cooperation}}
		switch c.Rel {
		case "->":
			con.Rel = core.HappenBefore
			if len(c.Literals) > 0 {
				// Compound condition: a conjunction of decision
				// literals. The constraint is conditional ordering
				// (cooperation origin) — it vacates when the condition
				// fails but does not guard the target's execution.
				expr := cond.True()
				for _, l := range c.Literals {
					dec, ok := proc.Activity(core.ActivityID(l.Decision))
					if !ok || dec.Kind != core.KindDecision {
						return nil, &Error{Line: c.Line, Msg: fmt.Sprintf("condition references non-decision %q", l.Decision)}
					}
					found := false
					for _, b := range dec.BranchDomain() {
						if b == l.Value {
							found = true
						}
					}
					if !found {
						return nil, &Error{Line: c.Line, Msg: fmt.Sprintf("branch %q not in domain of %q", l.Value, dec.ID)}
					}
					expr = cond.And(expr, cond.Lit(l.Decision, l.Value))
				}
				if expr.IsFalse() {
					return nil, &Error{Line: c.Line, Msg: "contradictory condition"}
				}
				con.Cond = expr
			} else if c.Branch != "" {
				dec, ok := proc.Activity(core.ActivityID(c.From.Node.Name))
				if !ok || dec.Kind != core.KindDecision {
					return nil, &Error{Line: c.Line, Msg: fmt.Sprintf("conditional constraint from non-decision %q", c.From.Node.Name)}
				}
				found := false
				for _, b := range dec.BranchDomain() {
					if b == c.Branch {
						found = true
					}
				}
				if !found {
					return nil, &Error{Line: c.Line, Msg: fmt.Sprintf("branch %q not in domain of %q", c.Branch, dec.ID)}
				}
				con.Cond = cond.Lit(c.From.Node.Name, c.Branch)
				con.Origins = []core.Dimension{core.Control}
			}
		case "<->":
			con.Rel = core.HappenTogether
		case "><":
			con.Rel = core.Exclusive
		default:
			return nil, &Error{Line: c.Line, Msg: fmt.Sprintf("unknown relation %q", c.Rel)}
		}
		doc.Extra.Add(con)
	}

	return doc, nil
}

func resolvePoint(ref PointRef, resolveNode func(NodeRef) (core.Node, error), def core.State) (core.Point, error) {
	n, err := resolveNode(ref.Node)
	if err != nil {
		return core.Point{}, err
	}
	st := def
	switch ref.State {
	case "S":
		st = core.Start
	case "R":
		st = core.Run
	case "F":
		st = core.Finish
	case "":
	default:
		return core.Point{}, &Error{Line: ref.Line, Msg: fmt.Sprintf("unknown state %q", ref.State)}
	}
	if n.IsService() && st == core.Run {
		return core.Point{}, &Error{Line: ref.Line, Msg: "external nodes have no run state"}
	}
	return core.Point{Node: n, State: st}, nil
}

func declErr(line int, err error) error {
	return &Error{Line: line, Msg: err.Error()}
}

// ConstraintSet merges the document's dependency catalog (§4.2) and
// folds in the raw DSCL constraints, producing the full
// pre-translation synchronization constraint set.
func (d *Document) ConstraintSet() (*core.ConstraintSet, error) {
	sc, err := core.Merge(d.Proc, d.Deps)
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.Extra.Len(); i++ {
		sc.Add(d.Extra.At(i))
	}
	return sc, nil
}

// Parsed adapts the document to the weave pipeline's pre-parsed input
// shape.
func (d *Document) Parsed() *weave.Parsed {
	return &weave.Parsed{Proc: d.Proc, Deps: d.Deps, Extra: d.Extra}
}

// Weave runs the document through the full optimization pipeline:
// merge, desugar, service translation, minimization. It returns the
// translated ASC and the minimization result. Both Weave and WeaveOpt
// are thin wrappers over internal/weave — the one canonical pipeline.
func (d *Document) Weave() (*core.ConstraintSet, *core.MinimizeResult, error) {
	return d.WeaveOpt(core.MinimizeOptions{})
}

// WeaveOpt is Weave with explicit minimization options (cache
// configuration, observability); the minimal set is identical for
// every engine configuration.
func (d *Document) WeaveOpt(opts core.MinimizeOptions) (*core.ConstraintSet, *core.MinimizeResult, error) {
	res, err := weave.Run(context.Background(), weave.Input{Parsed: d.Parsed()}, weave.Options{
		Guards:            opts.Guards,
		NoCache:           opts.NoCache,
		StrictAnnotations: opts.StrictAnnotations,
		Metrics:           opts.Metrics,
		Events:            opts.Events,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Translated, res.Minimize, nil
}
