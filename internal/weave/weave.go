// Package weave is the one canonical implementation of the DSCWeaver
// pipeline (§4–5): parse → merge → desugar → translate → minimize →
// validate → bpel, as a first-class Pipeline of named stages. Every
// frontend — cmd/dscweaver, cmd/dscsim, dscweaverd's /v1/weave and
// /v1/simulate, dscl.Document.Weave and the repro harness — builds its
// pipeline here instead of assembling the stages ad hoc.
//
// Each stage takes a context.Context and the two heavy kernels
// (core.MinimizeOpt and petri.CheckSoundness) check it cooperatively,
// so a canceled run — a dropped HTTP client, a drain deadline, a
// Ctrl-C — aborts mid-minimize or mid-exploration instead of running
// to completion. An uncancelled run is bit-identical to the stages run
// by hand.
//
// Observability rides along: with Options.Metrics each stage records a
// duration histogram (weave_stage_seconds{stage=...}) in the shared
// registry, and with Options.Events the pipeline emits
// obs.LayerWeave lifecycle events (weave_begin, stage_begin/stage_end
// per stage, weave_end) into the run's sink alongside the minimizer's
// own minimize_begin/minimize_end events, the latter carrying its
// decision record.
package weave

import (
	"context"
	"fmt"
	"time"

	"dscweaver/internal/bpel"
	"dscweaver/internal/cond"
	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/obs"
	"dscweaver/internal/petri"
)

// Stage names, in pipeline order. Parse runs only for source input,
// validate and bpel only when the corresponding Options toggles are
// set.
const (
	StageParse     = "parse"
	StageMerge     = "merge"
	StageDesugar   = "desugar"
	StageTranslate = "translate"
	StageMinimize  = "minimize"
	StagePlace     = "place"
	StageValidate  = "validate"
	StageBPEL      = "bpel"
)

// Parsed is a frontend's output: the process model, its dependency
// catalog and any directly declared constraints (nil when the
// frontend has none, e.g. seqlang/PDG extraction).
type Parsed struct {
	Proc  *core.Process
	Deps  *core.DependencySet
	Extra *core.ConstraintSet
}

// Frontend parses source text into a Parsed. Frontends live above
// this package (internal/weave/front wires dscl and seqlang), so the
// language packages can in turn build their convenience wrappers on
// the pipeline without an import cycle.
type Frontend func(ctx context.Context, source string) (*Parsed, error)

// Options configures one pipeline. It subsumes the engine knobs of
// core.MinimizeOptions plus the validate/BPEL toggles the frontends
// used to wire by hand; the zero value runs parse through minimize
// with the paper-faithful engine and no instrumentation.
type Options struct {
	// Frontend parses Input.Source; required for source input, unused
	// for pre-parsed input.
	Frontend Frontend

	// Guards overrides the execution-guard context handed to the
	// minimizer (nil derives guards from the constraint set, the
	// normal case).
	Guards map[core.Node]cond.Expr
	// NoCache tunes the minimizer engine exactly as core.MinimizeOptions
	// does; it never changes the minimal set. StrictAnnotations selects
	// the strict-comparison ablation.
	NoCache           bool
	StrictAnnotations bool
	// Parallelism is ignored: the minimizer decides every candidate on
	// the calling goroutine. The field remains for callers that still
	// set it.
	Parallelism int

	// VerdictCache, when non-nil, lets repeated runs over the same
	// desugared constraint set skip Definition 6 entirely: the minimize
	// stage replays the recorded removal sequence on a content hash
	// match (core.VerdictCache is safe for concurrent pipelines, so one
	// cache is typically shared server-wide).
	VerdictCache *core.VerdictCache

	// Validate enables the Petri-net soundness stage; MaxStates bounds
	// its exploration (0 = the petri default, 1<<20).
	Validate  bool
	MaxStates int

	// Decentral enables the place stage: partition the process across
	// per-service hosts (decentral.Place) for both the unoptimized and
	// the minimal set, reporting predicted cross-host message counts.
	// The enactment layer executes Result.Decentral.Minimal.
	Decentral bool

	// BPEL enables document generation; StructuredBPEL folds
	// unconditional chains into <sequence> constructs.
	BPEL           bool
	StructuredBPEL bool

	// StageHook, when non-nil, runs before every stage with the stage
	// name; a returned error aborts the run exactly like a stage
	// failure. Chaos and fault-injection harnesses hang latency spikes
	// and injected faults on the pipeline here; production paths leave
	// it nil.
	StageHook func(ctx context.Context, stage string) error

	// Metrics, when non-nil, receives weave_runs_total,
	// weave_canceled_total and the per-stage
	// weave_stage_seconds{stage=...} histograms, plus whatever the
	// minimizer records through the same registry.
	Metrics *obs.Registry
	// Events, when non-nil, receives obs.LayerWeave lifecycle events
	// and is forwarded to the minimizer for its begin/end events and
	// decision record.
	Events obs.Sink

	// candidateHook is forwarded to core.MinimizeOptions.CandidateHook;
	// tests set it (export_test.go) to act between candidates.
	candidateHook core.CandidateHook
}

// Input selects the pipeline entry point: Source text (parsed by
// Options.Frontend) or a pre-parsed document. Exactly one must be
// set; Parsed wins when both are.
type Input struct {
	Source string
	Parsed *Parsed
}

// StageTiming is one stage's measured wall-clock duration, in
// pipeline order.
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// Result carries every pipeline artifact. Stages that did not run
// leave their fields nil.
type Result struct {
	// Parsed is the frontend output (or the caller's pre-parsed input).
	Parsed *Parsed
	// Merged is the desugared synchronization constraint set SC
	// (Definition 1, §4.2).
	Merged *core.ConstraintSet
	// Guards is the execution-guard context derived from Merged —
	// downstream consumers (validation, scheduling) must use these,
	// not guards re-derived from the minimal set.
	Guards map[core.Node]cond.Expr
	// Translated is the activity-level set after service translation
	// (§4.3).
	Translated *core.ConstraintSet
	// Minimize is the Definition 6 minimization outcome.
	Minimize *core.MinimizeResult
	// Decentral compares decentralized placements of the unoptimized
	// and minimal sets (nil unless Options.Decentral).
	Decentral *decentral.Comparison
	// Soundness is the Petri-net verdict (nil unless Options.Validate).
	// Soundness.StateSpace.Truncated means the verdict came from a
	// capped exploration and is inconclusive, not a proof.
	Soundness *petri.SoundnessReport
	// BPELDoc / BPELXML are the generated document and its validated
	// serialization (nil unless Options.BPEL).
	BPELDoc *bpel.Process
	BPELXML []byte
	// Stages records per-stage wall-clock durations in execution order.
	Stages []StageTiming
}

// Pipeline is a configured, reusable weave pipeline; Run executes it
// once. A Pipeline is safe for concurrent Runs (the options are read-
// only and all run state is per-call).
type Pipeline struct {
	opts Options
}

// New builds a pipeline from opts.
func New(opts Options) *Pipeline { return &Pipeline{opts: opts} }

// Run is shorthand for New(opts).Run(ctx, in).
func Run(ctx context.Context, in Input, opts Options) (*Result, error) {
	return New(opts).Run(ctx, in)
}

// stage is one named pipeline step.
type stage struct {
	name string
	run  func(ctx context.Context, res *Result) error
}

// stageSeconds buckets: the pipeline spans sub-millisecond parses and
// multi-second minimizations of large workloads.
var stageBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30}

// Run executes the pipeline on one input. ctx cancellation aborts
// between stages and inside the minimize/validate kernels; the error
// then wraps ctx.Err() (use errors.Is). Every other error is wrapped
// with the failing stage's name.
func (p *Pipeline) Run(ctx context.Context, in Input) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stages, err := p.stages(in)
	if err != nil {
		return nil, err
	}
	res := &Result{Parsed: in.Parsed}
	emit := func(ev obs.Event) {
		if p.opts.Events != nil {
			ev.Layer = obs.LayerWeave
			p.opts.Events.Emit(obs.Stamp(ev))
		}
	}
	began := time.Now()
	emit(obs.Event{Kind: obs.EvWeaveBegin, Value: float64(len(stages))})
	if p.opts.Metrics != nil {
		p.opts.Metrics.Counter("weave_runs_total").Inc()
	}
	finish := func(err error) {
		ev := obs.Event{Kind: obs.EvWeaveEnd, DurNS: int64(time.Since(began))}
		if res.Parsed != nil && res.Parsed.Proc != nil {
			ev.Detail = res.Parsed.Proc.Name
		}
		if err != nil {
			ev.Err = err.Error()
		}
		emit(ev)
		if p.opts.Metrics != nil {
			if core.ErrCanceled(err) {
				p.opts.Metrics.Counter("weave_canceled_total").Inc()
			}
			p.opts.Metrics.Histogram("weave_run_seconds", stageBuckets).ObserveDuration(time.Since(began))
		}
	}
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			err = fmt.Errorf("weave: %s: %w", st.name, err)
			finish(err)
			return nil, err
		}
		if p.opts.StageHook != nil {
			if err := p.opts.StageHook(ctx, st.name); err != nil {
				err = fmt.Errorf("weave: %s: %w", st.name, err)
				finish(err)
				return nil, err
			}
		}
		stBegan := time.Now()
		emit(obs.Event{Kind: obs.EvStageBegin, Detail: st.name})
		err := st.run(ctx, res)
		dur := time.Since(stBegan)
		ev := obs.Event{Kind: obs.EvStageEnd, Detail: st.name, DurNS: int64(dur)}
		if err != nil {
			ev.Err = err.Error()
		}
		emit(ev)
		if p.opts.Metrics != nil {
			p.opts.Metrics.Histogram("weave_stage_seconds", stageBuckets, "stage", st.name).ObserveDuration(dur)
		}
		res.Stages = append(res.Stages, StageTiming{Stage: st.name, Duration: dur})
		if err != nil {
			err = fmt.Errorf("weave: %s: %w", st.name, err)
			finish(err)
			return nil, err
		}
	}
	finish(nil)
	return res, nil
}

// stages assembles the stage list for one input shape.
func (p *Pipeline) stages(in Input) ([]stage, error) {
	var out []stage
	if in.Parsed == nil {
		if p.opts.Frontend == nil {
			return nil, fmt.Errorf("weave: source input requires Options.Frontend (see internal/weave/front)")
		}
		if in.Source == "" {
			return nil, fmt.Errorf("weave: empty input (set Source or Parsed)")
		}
		out = append(out, stage{StageParse, p.parse(in.Source)})
	} else if in.Parsed.Proc == nil || in.Parsed.Deps == nil {
		return nil, fmt.Errorf("weave: pre-parsed input requires Proc and Deps")
	}
	out = append(out,
		stage{StageMerge, p.merge},
		stage{StageDesugar, p.desugar},
		stage{StageTranslate, p.translate},
		stage{StageMinimize, p.minimize},
	)
	if p.opts.Decentral {
		out = append(out, stage{StagePlace, p.place})
	}
	if p.opts.Validate {
		out = append(out, stage{StageValidate, p.validate})
	}
	if p.opts.BPEL {
		out = append(out, stage{StageBPEL, p.bpel})
	}
	return out, nil
}

func (p *Pipeline) parse(source string) func(ctx context.Context, res *Result) error {
	return func(ctx context.Context, res *Result) error {
		parsed, err := p.opts.Frontend(ctx, source)
		if err != nil {
			return err
		}
		res.Parsed = parsed
		return nil
	}
}

func (p *Pipeline) merge(ctx context.Context, res *Result) error {
	sc, err := core.Merge(res.Parsed.Proc, res.Parsed.Deps)
	if err != nil {
		return err
	}
	if res.Parsed.Extra != nil {
		for i := 0; i < res.Parsed.Extra.Len(); i++ {
			sc.Add(res.Parsed.Extra.At(i))
		}
	}
	res.Merged = sc
	return nil
}

func (p *Pipeline) desugar(ctx context.Context, res *Result) error {
	if err := res.Merged.Desugar(); err != nil {
		return err
	}
	guards, err := core.DeriveGuards(res.Merged)
	if err != nil {
		return err
	}
	res.Guards = guards
	return nil
}

func (p *Pipeline) translate(ctx context.Context, res *Result) error {
	asc, err := core.TranslateServices(res.Merged)
	if err != nil {
		return err
	}
	res.Translated = asc
	return nil
}

func (p *Pipeline) minimize(ctx context.Context, res *Result) error {
	min, err := core.MinimizeOpt(ctx, res.Translated, core.MinimizeOptions{
		Guards:            p.opts.Guards,
		NoCache:           p.opts.NoCache,
		VerdictCache:      p.opts.VerdictCache,
		StrictAnnotations: p.opts.StrictAnnotations,
		Metrics:           p.opts.Metrics,
		Events:            p.opts.Events,
		CandidateHook:     p.opts.candidateHook,
	})
	if err != nil {
		return err
	}
	res.Minimize = min
	return nil
}

func (p *Pipeline) place(ctx context.Context, res *Result) error {
	cmp, err := decentral.Compare(res.Translated, res.Minimize.Minimal,
		decentral.Pin(res.Parsed.Proc))
	if err != nil {
		return err
	}
	res.Decentral = cmp
	return nil
}

func (p *Pipeline) validate(ctx context.Context, res *Result) error {
	rep, err := petri.ValidateOpt(ctx, res.Minimize.Minimal, res.Guards,
		petri.ExploreOptions{MaxStates: p.opts.MaxStates, Metrics: p.opts.Metrics})
	if err != nil {
		return err
	}
	res.Soundness = rep
	return nil
}

func (p *Pipeline) bpel(ctx context.Context, res *Result) error {
	var doc *bpel.Process
	var err error
	if p.opts.StructuredBPEL {
		doc, err = bpel.GenerateStructured(res.Minimize.Minimal, res.Guards)
	} else {
		doc, err = bpel.Generate(res.Minimize.Minimal)
	}
	if err != nil {
		return err
	}
	if err := bpel.Validate(doc); err != nil {
		return err
	}
	data, err := bpel.Marshal(doc)
	if err != nil {
		return err
	}
	res.BPELDoc = doc
	res.BPELXML = data
	return nil
}
