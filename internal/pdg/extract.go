package pdg

import (
	"fmt"
	"slices"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
)

// Extraction is the result of analyzing a seqlang program.
type Extraction struct {
	Proc *core.Process
	// Deps holds the extracted data and control dependencies — the
	// top half of the paper's Table 1, derived mechanically instead of
	// hand-written (§3.1, Figure 5).
	Deps *core.DependencySet
}

// Extract parses and analyzes seqlang source.
func Extract(src string) (*Extraction, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return ExtractProgram(prog)
}

// ExtractProgram analyzes a parsed program: it registers activities
// and services on a fresh core.Process, computes definition-use data
// dependencies with a reaching-definitions walk (parallel flow
// branches see each other's definitions — that is exactly the
// cross-branch synchronization of recShip_si → invPurchase_si), and
// derives control dependencies from switch/while nesting (every
// activity inside a branch depends on its nearest enclosing decision
// with the branch label; the statement following a switch in sequence
// order receives the paper's NONE-annotated edge, as Table 1 gives
// if_au → replyClient_oi).
func ExtractProgram(prog *Program) (*Extraction, error) {
	proc := core.NewProcess(prog.Name)
	for _, s := range prog.Services {
		if err := proc.AddService(&core.Service{
			Name: s.Name, Ports: s.Ports, Async: s.Async, SequentialPorts: s.Sequential,
		}); err != nil {
			return nil, err
		}
	}

	ex := &extractor{proc: proc, deps: core.NewDependencySet()}
	if err := ex.declare(prog.Body); err != nil {
		return nil, err
	}
	if err := proc.Validate(); err != nil {
		return nil, err
	}
	ex.order = make(map[core.ActivityID]int, len(proc.Activities()))
	for i, a := range proc.Activities() {
		ex.order[a.ID] = i
	}
	if _, err := ex.analyze(prog.Body, defs{}); err != nil {
		return nil, err
	}
	ex.controlDeps(prog.Body, "", "")
	if err := ex.deps.Validate(proc); err != nil {
		return nil, err
	}
	return &Extraction{Proc: proc, Deps: ex.deps}, nil
}

// defs maps a variable to the set of activities whose definition may
// reach the current point.
type defs map[string]map[core.ActivityID]bool

func (d defs) clone() defs {
	out := make(defs, len(d))
	for v, set := range d {
		cp := make(map[core.ActivityID]bool, len(set))
		for a := range set {
			cp[a] = true
		}
		out[v] = cp
	}
	return out
}

func (d defs) define(v string, a core.ActivityID) {
	d[v] = map[core.ActivityID]bool{a: true}
}

func (d defs) merge(other defs) {
	for v, set := range other {
		if d[v] == nil {
			d[v] = map[core.ActivityID]bool{}
		}
		for a := range set {
			d[v][a] = true
		}
	}
}

type extractor struct {
	proc *core.Process
	deps *core.DependencySet
	// order is each activity's statement index: use adds a read's
	// reaching definitions in this order, not in map order.
	order map[core.ActivityID]int
}

// declare registers every activity (switch/while predicates become
// decision activities).
func (ex *extractor) declare(s Stmt) error {
	switch st := s.(type) {
	case *SequenceStmt:
		for _, c := range st.Body {
			if err := ex.declare(c); err != nil {
				return err
			}
		}
	case *FlowStmt:
		for _, c := range st.Body {
			if err := ex.declare(c); err != nil {
				return err
			}
		}
	case *SwitchStmt:
		branches := make([]string, len(st.Cases))
		for i, c := range st.Cases {
			branches[i] = c.Label
		}
		if err := ex.proc.AddActivity(&core.Activity{
			ID: core.ActivityID(st.Name), Kind: core.KindDecision,
			Reads: st.Reads, Branches: branches,
		}); err != nil {
			return err
		}
		for _, c := range st.Cases {
			for _, b := range c.Body {
				if err := ex.declare(b); err != nil {
					return err
				}
			}
		}
	case *WhileStmt:
		if err := ex.proc.AddActivity(&core.Activity{
			ID: core.ActivityID(st.Name), Kind: core.KindDecision,
			Reads: st.Reads, Branches: []string{"T", "F"},
		}); err != nil {
			return err
		}
		for _, b := range st.Body {
			if err := ex.declare(b); err != nil {
				return err
			}
		}
	case *ActivityStmt:
		kind := core.KindOpaque
		switch st.Kind {
		case "receive":
			kind = core.KindReceive
		case "invoke":
			kind = core.KindInvoke
		case "reply":
			kind = core.KindReply
		case "assign":
			kind = core.KindOpaque
		}
		if err := ex.proc.AddActivity(&core.Activity{
			ID: core.ActivityID(st.Name), Kind: kind,
			Service: st.Service, Port: st.Port,
			Reads: st.Reads, Writes: st.Writes,
		}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pdg: unknown statement %T", s)
	}
	return nil
}

// use records def-use dependencies for every variable the activity
// reads, one per reaching definition in statement order.
func (ex *extractor) use(a core.ActivityID, reads []string, in defs) {
	for _, v := range reads {
		srcs := make([]core.ActivityID, 0, len(in[v]))
		for def := range in[v] {
			if def != a {
				srcs = append(srcs, def)
			}
		}
		slices.SortFunc(srcs, func(x, y core.ActivityID) int { return ex.order[x] - ex.order[y] })
		for _, def := range srcs {
			ex.deps.Add(core.Dependency{
				From: core.ActivityNode(def), To: core.ActivityNode(a),
				Dim: core.Data, Label: v,
			})
		}
	}
}

// analyze performs the reaching-definitions walk and returns the defs
// flowing out of the statement.
func (ex *extractor) analyze(s Stmt, in defs) (defs, error) {
	switch st := s.(type) {
	case *SequenceStmt:
		cur := in
		for _, c := range st.Body {
			out, err := ex.analyze(c, cur)
			if err != nil {
				return nil, err
			}
			cur = out
		}
		return cur, nil
	case *FlowStmt:
		// Parallel branches: every branch sees the incoming defs plus
		// the definitions produced by its sibling branches (the
		// dataflow reading of a flow — a consumer waits for its
		// producer wherever it runs). Each branch's own sequential
		// shadowing still applies inside the branch.
		sibling := make([]defs, len(st.Body))
		for i, c := range st.Body {
			d := collectDefs(c)
			sibling[i] = d
		}
		out := in.clone()
		for i, c := range st.Body {
			entry := in.clone()
			for j := range st.Body {
				if j != i {
					entry.merge(sibling[j])
				}
			}
			branchOut, err := ex.analyze(c, entry)
			if err != nil {
				return nil, err
			}
			out.merge(branchOut)
		}
		return out, nil
	case *SwitchStmt:
		ex.use(core.ActivityID(st.Name), st.Reads, in)
		out := defs{}
		for _, c := range st.Cases {
			cur := in.clone()
			for _, b := range c.Body {
				next, err := ex.analyze(b, cur)
				if err != nil {
					return nil, err
				}
				cur = next
			}
			out.merge(cur)
		}
		return out, nil
	case *WhileStmt:
		ex.use(core.ActivityID(st.Name), st.Reads, in)
		// One symbolic iteration: body defs may reach past the loop
		// (zero-trip defs also survive, hence the merge with in).
		cur := in.clone()
		for _, b := range st.Body {
			next, err := ex.analyze(b, cur)
			if err != nil {
				return nil, err
			}
			cur = next
		}
		cur.merge(in)
		return cur, nil
	case *ActivityStmt:
		ex.use(core.ActivityID(st.Name), st.Reads, in)
		out := in.clone()
		for _, v := range st.Writes {
			out.define(v, core.ActivityID(st.Name))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pdg: unknown statement %T", s)
	}
}

// collectDefs gathers every definition a statement may produce.
func collectDefs(s Stmt) defs {
	out := defs{}
	switch st := s.(type) {
	case *SequenceStmt:
		for _, c := range st.Body {
			out.merge(collectDefs(c))
		}
	case *FlowStmt:
		for _, c := range st.Body {
			out.merge(collectDefs(c))
		}
	case *SwitchStmt:
		for _, c := range st.Cases {
			for _, b := range c.Body {
				out.merge(collectDefs(b))
			}
		}
	case *WhileStmt:
		for _, b := range st.Body {
			out.merge(collectDefs(b))
		}
	case *ActivityStmt:
		for _, v := range st.Writes {
			if out[v] == nil {
				out[v] = map[core.ActivityID]bool{}
			}
			out[v][core.ActivityID(st.Name)] = true
		}
	}
	return out
}

// controlDeps walks the tree issuing control edges from the nearest
// enclosing decision (dec, branch); sequences additionally route the
// paper's NONE edge from a switch to the entry activities of the next
// statement.
func (ex *extractor) controlDeps(s Stmt, dec core.ActivityID, branch string) {
	emit := func(to core.ActivityID) {
		if dec == "" {
			return
		}
		ex.deps.Add(core.Dependency{
			From: core.ActivityNode(dec), To: core.ActivityNode(to),
			Dim: core.Control, Branch: branch,
		})
	}
	switch st := s.(type) {
	case *SequenceStmt:
		for i, c := range st.Body {
			ex.controlDeps(c, dec, branch)
			// Join edge: the statement after a switch starts only
			// when the switch has completed — Table 1's NONE-annotated
			// if_au → replyClient_oi.
			if sw, ok := c.(*SwitchStmt); ok && i+1 < len(st.Body) {
				for _, entry := range entryActivities(st.Body[i+1]) {
					ex.deps.Add(core.Dependency{
						From: core.ActivityNode(core.ActivityID(sw.Name)),
						To:   core.ActivityNode(entry),
						Dim:  core.Control, Branch: "",
					})
				}
			}
		}
	case *FlowStmt:
		for _, c := range st.Body {
			ex.controlDeps(c, dec, branch)
		}
	case *SwitchStmt:
		emit(core.ActivityID(st.Name))
		for _, c := range st.Cases {
			for _, b := range c.Body {
				ex.controlDeps(b, core.ActivityID(st.Name), c.Label)
			}
		}
	case *WhileStmt:
		emit(core.ActivityID(st.Name))
		for _, b := range st.Body {
			ex.controlDeps(b, core.ActivityID(st.Name), "T")
		}
	case *ActivityStmt:
		emit(core.ActivityID(st.Name))
	}
}

// entryActivities returns the activities that begin a statement.
func entryActivities(s Stmt) []core.ActivityID {
	switch st := s.(type) {
	case *SequenceStmt:
		if len(st.Body) == 0 {
			return nil
		}
		return entryActivities(st.Body[0])
	case *FlowStmt:
		var out []core.ActivityID
		for _, c := range st.Body {
			out = append(out, entryActivities(c)...)
		}
		return out
	case *SwitchStmt:
		return []core.ActivityID{core.ActivityID(st.Name)}
	case *WhileStmt:
		return []core.ActivityID{core.ActivityID(st.Name)}
	case *ActivityStmt:
		return []core.ActivityID{core.ActivityID(st.Name)}
	default:
		return nil
	}
}

// exitActivities returns the activities that terminate a statement.
func exitActivities(s Stmt) []core.ActivityID {
	switch st := s.(type) {
	case *SequenceStmt:
		if len(st.Body) == 0 {
			return nil
		}
		return exitActivities(st.Body[len(st.Body)-1])
	case *FlowStmt:
		var out []core.ActivityID
		for _, c := range st.Body {
			out = append(out, exitActivities(c)...)
		}
		return out
	case *SwitchStmt:
		var out []core.ActivityID
		for _, c := range st.Cases {
			if len(c.Body) == 0 {
				out = append(out, core.ActivityID(st.Name))
				continue
			}
			out = append(out, exitActivities(c.Body[len(c.Body)-1])...)
		}
		return out
	case *WhileStmt:
		return []core.ActivityID{core.ActivityID(st.Name)}
	case *ActivityStmt:
		return []core.ActivityID{core.ActivityID(st.Name)}
	default:
		return nil
	}
}

// SequencingConstraints returns the happen-before constraints the
// constructs themselves impose — the direct encoding of the
// sequencing-construct implementation of Figure 2, including its
// over-specifications (e.g. invProduction_po → invProduction_ss, which
// no dependency requires). The comparison benches run this baseline
// against the optimizer's minimal set.
func SequencingConstraints(prog *Program, proc *core.Process) (*core.ConstraintSet, error) {
	sc := core.NewConstraintSet(proc)
	var walk func(s Stmt) error
	walk = func(s Stmt) error {
		switch st := s.(type) {
		case *SequenceStmt:
			for _, c := range st.Body {
				if err := walk(c); err != nil {
					return err
				}
			}
			for i := 0; i+1 < len(st.Body); i++ {
				for _, from := range exitActivities(st.Body[i]) {
					for _, to := range entryActivities(st.Body[i+1]) {
						if from == to {
							continue
						}
						sc.Add(core.Constraint{
							Rel:  core.HappenBefore,
							From: core.PointOf(from, core.Finish),
							To:   core.PointOf(to, core.Start),
							Cond: cond.True(), Origins: []core.Dimension{core.Control},
							Labels: []string{"sequence construct"},
						})
					}
				}
			}
		case *FlowStmt:
			for _, c := range st.Body {
				if err := walk(c); err != nil {
					return err
				}
			}
		case *SwitchStmt:
			for _, c := range st.Cases {
				// A case body is an implicit sequence.
				if err := walk(&SequenceStmt{Body: c.Body}); err != nil {
					return err
				}
				for _, entry := range caseEntries(c) {
					sc.Add(core.Constraint{
						Rel:  core.HappenBefore,
						From: core.PointOf(core.ActivityID(st.Name), core.Finish),
						To:   core.PointOf(entry, core.Start),
						Cond: cond.Lit(st.Name, c.Label), Origins: []core.Dimension{core.Control},
						Labels: []string{"switch construct"},
					})
				}
			}
		case *WhileStmt:
			// The body is an implicit sequence guarded by the
			// condition; a single symbolic iteration is encoded, in
			// line with the extractor's loop treatment.
			body := &SequenceStmt{Body: st.Body}
			if err := walk(body); err != nil {
				return err
			}
			for _, entry := range entryActivities(body) {
				sc.Add(core.Constraint{
					Rel:  core.HappenBefore,
					From: core.PointOf(core.ActivityID(st.Name), core.Finish),
					To:   core.PointOf(entry, core.Start),
					Cond: cond.Lit(st.Name, "T"), Origins: []core.Dimension{core.Control},
					Labels: []string{"while construct"},
				})
			}
		case *ActivityStmt:
		}
		return nil
	}
	if err := walk(prog.Body); err != nil {
		return nil, err
	}
	return sc, nil
}

func caseEntries(c SwitchCase) []core.ActivityID {
	if len(c.Body) == 0 {
		return nil
	}
	return entryActivities(c.Body[0])
}
