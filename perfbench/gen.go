package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
	"dscweaver/internal/workload"
)

// op is one operation class a client sends.
type op string

const (
	opWeave    op = "weave"
	opSimulate op = "simulate"
	opEnact    op = "enact"
	opRuns     op = "runs"
	opEvents   op = "events"
)

var allOps = [...]op{opWeave, opSimulate, opEnact, opRuns, opEvents}

// weight is one entry of a workload's operation mix.
type weight struct {
	op op
	n  int
}

// workloadSpec is one traffic mix. The mixes and shapes are fixed here
// and documented in README.md; only the seed varies between runs.
type workloadSpec struct {
	name  string
	mix   []weight
	shape string
}

var workloads = []workloadSpec{
	{
		name: "serve-mixed",
		mix:  []weight{{opWeave, 2}, {opSimulate, 2}, {opRuns, 3}, {opEvents, 3}},
		shape: "pool of 16 sources: internal/dscl/testdata/purchasing.dscl plus 15 layered " +
			"processes alternating 4x3 and 8x4 (density 0.3, width shortcuts, 1 decision); " +
			"half of the events reads target runs older than the 128-run ring",
	},
	{
		name: "weave-heavy",
		mix:  []weight{{opWeave, 1}},
		shape: "a unique layered 16x16 process per request (density 0.3, 16 shortcuts, " +
			"1 decision), POST /v1/weave with validate and bpel",
	},
	{
		name: "execute",
		mix:  []weight{{opSimulate, 1}, {opEnact, 1}},
		shape: "pool of 8 layered 8x4 processes with 3 services (density 0.3, 4 shortcuts, " +
			"no decision); each enact names a second in-process server as its peer",
	},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want serve-mixed, weave-heavy or execute)", name)
}

// density is the extra data-dependency probability of every generated
// process.
const density = 0.3

// source is one process text plus the answers a correct server must
// give for it, computed by the benchmark itself.
type source struct {
	name string
	text string
	// purchasing marks the paper's process, whose minimal-set and
	// soundness figures are known exactly.
	purchasing bool
	// minimal is the paper-naive engine's minimal set, rendered as the
	// server renders it; translated and guards are what a trace of the
	// process must satisfy (Def. 5).
	minimal    []string
	translated *core.ConstraintSet
	guards     map[core.Node]cond.Expr
}

// mix64 derives independent sub-seeds from the run seed (splitmix64),
// so adding a stream never shifts another stream's inputs.
func mix64(seed int64, stream, i int) int64 {
	z := uint64(seed) + uint64(stream)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & (1<<63 - 1))
}

// layeredSource renders one generated process as DSCL.
func layeredSource(layers, width, decisions, services int, seed int64) string {
	w := workload.Layered(layers, width, density, seed).WithShortcuts(width).WithDecisions(decisions)
	if services > 0 {
		w = w.WithServices(services)
	}
	return dscl.PrintDocument(&dscl.Document{Proc: w.Proc, Deps: w.Deps, Extra: core.NewConstraintSet(w.Proc)})
}

// heavySource is the weave-heavy request k of client c: unique per
// (seed, client, k), so the verdict cache never hits.
func heavySource(seed int64, c, k int) string {
	return layeredSource(16, 16, 1, 0, mix64(seed, 1000+c, k))
}

// pool builds a workload's fixed source pool (nil for weave-heavy,
// whose sources are generated per request) without reference answers.
func pool(name string, seed int64, root string) ([]*source, error) {
	var out []*source
	switch name {
	case "serve-mixed":
		text, err := os.ReadFile(filepath.Join(root, "internal", "dscl", "testdata", "purchasing.dscl"))
		if err != nil {
			return nil, fmt.Errorf("purchasing fixture: %w", err)
		}
		out = append(out, &source{name: "purchasing", text: string(text), purchasing: true})
		for i := 0; i < 15; i++ {
			layers, width := 4, 3
			if i%2 == 1 {
				layers, width = 8, 4
			}
			s := mix64(seed, 1, i)
			out = append(out, &source{
				name: fmt.Sprintf("layered_%dx%d_%d", layers, width, i),
				text: layeredSource(layers, width, 1, 0, s),
			})
		}
	case "execute":
		// No decisions here: a decision guarding a service invoke but
		// not its receive leaves the receive waiting for a callback that
		// never comes, and the run times out.
		for i := 0; i < 8; i++ {
			out = append(out, &source{
				name: fmt.Sprintf("services_8x4_%d", i),
				text: layeredSource(8, 4, 0, 3, mix64(seed, 2, i)),
			})
		}
	}
	return out, nil
}

// prepare computes a source's reference answers with the paper-naive
// engine: no closure cache, no verdict cache, one worker.
func (s *source) prepare() error {
	res, err := weave.Run(context.Background(), weave.Input{Source: s.text}, weave.Options{
		Frontend:    front.DSCL,
		NoCache:     true,
		Parallelism: 1,
	})
	if err != nil {
		return fmt.Errorf("reference weave of %s: %w", s.name, err)
	}
	s.minimal = render(res.Minimize.Minimal)
	s.translated = res.Translated
	s.guards = res.Guards
	return nil
}

// sequentialWeave is the weave-heavy oracle: one worker and no verdict
// cache, with validation, so minimal set and verdict can be compared.
func sequentialWeave(text string) (minimal []string, sound bool, err error) {
	res, err := weave.Run(context.Background(), weave.Input{Source: text}, weave.Options{
		Frontend:    front.DSCL,
		Parallelism: 1,
		Validate:    true,
	})
	if err != nil {
		return nil, false, err
	}
	return render(res.Minimize.Minimal), res.Soundness.Sound, nil
}

// render lists a constraint set the way the weave response does.
func render(sc *core.ConstraintSet) []string {
	var out []string
	for _, c := range sc.Constraints() {
		out = append(out, c.String())
	}
	return out
}
