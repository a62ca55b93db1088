package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"

	"dscweaver/internal/obs"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
)

// WeaveRequest is the body of POST /v1/weave (and, embedded, of
// /v1/simulate): a process description plus pipeline options.
type WeaveRequest struct {
	// Source is the process text.
	Source string `json:"source"`
	// Lang selects the front end: "dscl" (default) or "seqlang"
	// (sequencing constructs, dependencies extracted via PDG).
	Lang string `json:"lang,omitempty"`
	// Validate runs Petri-net soundness checking (default true).
	Validate *bool `json:"validate,omitempty"`
	// BPEL emits a generated BPEL document in the response;
	// Structured folds unconditional chains into <sequence> constructs.
	BPEL       bool `json:"bpel,omitempty"`
	Structured bool `json:"structured,omitempty"`
	// MaxStates bounds the soundness exploration for this request
	// (0 = the petri default, 1<<20).
	MaxStates int `json:"max_states,omitempty"`
}

func (q *WeaveRequest) validate() error {
	if q.Source == "" {
		return fmt.Errorf("empty source")
	}
	if _, err := front.ByLang(q.Lang); err != nil {
		return fmt.Errorf("unknown lang %q (want dscl or seqlang)", q.Lang)
	}
	if q.MaxStates < 0 {
		return fmt.Errorf("max_states %d must be ≥ 0", q.MaxStates)
	}
	return nil
}

func (q *WeaveRequest) wantValidate() bool { return q.Validate == nil || *q.Validate }

// WeaveResponse is the body of a successful POST /v1/weave.
type WeaveResponse struct {
	RunID      string `json:"run_id"`
	Process    string `json:"process"`
	Activities int    `json:"activities"`

	MergedConstraints     int `json:"merged_constraints"`
	TranslatedConstraints int `json:"translated_constraints"`
	MinimalConstraints    int `json:"minimal_constraints"`
	Removed               int `json:"removed"`
	EquivalenceChecks     int `json:"equivalence_checks"`
	// VerdictCacheHit reports that the weave resumed from the compile
	// cache: an earlier request compiled the same source, so this one
	// replayed its minimal set and decided no candidate
	// (EquivalenceChecks is 0).
	VerdictCacheHit bool `json:"verdict_cache_hit,omitempty"`

	// Minimal renders the minimal constraint set, one constraint per
	// entry, in the minimizer's deterministic order.
	Minimal []string `json:"minimal"`

	// Sound carries the Petri-net verdict when validation ran.
	// Truncated flags a verdict from a MaxStates-capped exploration: the
	// set was NOT certified sound (Sound is false) but no conflict was
	// exhibited either — the exploration simply ran out of budget.
	// ValidateMethod names the kernel that produced the verdict
	// (fastpath, reduced or full), so /metrics rates have per-response
	// ground truth.
	Sound          *bool    `json:"sound,omitempty"`
	States         int      `json:"states,omitempty"`
	Truncated      bool     `json:"truncated,omitempty"`
	Deadlocks      []string `json:"deadlocks,omitempty"`
	ValidateMethod string   `json:"validate_method,omitempty"`

	BPEL string `json:"bpel,omitempty"`
}

// weaveOptions builds the pipeline configuration for one request.
// withOutputs gates the validate/BPEL stages: the simulate path runs
// only through minimization (it checks the result at runtime by
// validating the executed trace instead).
func (s *Server) weaveOptions(q *WeaveRequest, sink obs.Sink, withOutputs bool) weave.Options {
	fe, _ := front.ByLang(q.Lang) // lang was validated at decode time
	opts := weave.Options{
		Frontend: fe,
		Metrics:  s.reg,
		Events:   sink,
		NoCache:  s.naiveMinimize,
	}
	if withOutputs {
		opts.Validate = q.wantValidate()
		opts.BPEL = q.BPEL
		opts.StructuredBPEL = q.Structured
		opts.MaxStates = q.MaxStates
	}
	return opts
}

// runWeave executes the canonical §5 pipeline (internal/weave) on a
// request, with ctx threaded through every stage: a dropped client
// connection, the request timeout or the drain-deadline abort cancels
// the minimizer's candidate loop and the Petri exploration mid-flight
// instead of letting an admitted weave run to completion.
//
// A source the compile cache holds resumes from its compiled prefix,
// so only validate and bpel run, on the request's own copy of the
// prefix; the entry comes back for the enactment paths' memoized
// placement. A missed source is compiled in full. On its second
// sighting it is compiled from a clone of the source, so that the
// entry owns its strings, and stored. The naive minimizer bypasses the
// cache, so that every weave decides every candidate.
func (s *Server) runWeave(ctx context.Context, q *WeaveRequest, sink obs.Sink, withOutputs bool) (*weave.Result, *compiledEntry, error) {
	opts := s.weaveOptions(q, sink, withOutputs)
	if s.naiveMinimize {
		res, err := weave.Run(ctx, weave.Input{Source: q.Source}, opts)
		return res, nil, err
	}
	lang := langKey(q.Lang)
	if e := s.compiled.get(lang, q.Source); e != nil {
		res, err := weave.Run(ctx, weave.Input{Compiled: e.prefix}, opts)
		return res, e, err
	}
	if !s.compiled.sighted(lang, q.Source) {
		res, err := weave.Run(ctx, weave.Input{Source: q.Source}, opts)
		return res, nil, err
	}
	src := strings.Clone(q.Source)
	res, err := weave.Run(ctx, weave.Input{Source: src}, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, s.compiled.put(lang, src, res), nil
}

// langKey names a request's front end in the compile cache's key, with
// the default spelled out, so "" and "dscl" share entries.
func langKey(lang string) string {
	if lang == "seqlang" {
		return "seqlang"
	}
	return "dscl"
}

// weaveRoute is POST /v1/weave: the full pipeline, rendered.
func (s *Server) weaveRoute(ctx context.Context, q *WeaveRequest, rn *run, sink obs.Sink, _ *http.Request) (*WeaveResponse, error) {
	out, _, err := s.runWeave(ctx, q, sink, true)
	if err != nil {
		return nil, err
	}
	rn.setProcess(out.Parsed.Proc.Name)
	return buildWeaveResponse(out, rn.Summary().ID), nil
}

// buildWeaveResponse renders a completed pipeline run.
func buildWeaveResponse(res *weave.Result, runID string) *WeaveResponse {
	min := res.Minimize
	resp := &WeaveResponse{
		RunID:                 runID,
		Process:               res.Parsed.Proc.Name,
		Activities:            len(res.Parsed.Proc.Activities()),
		MergedConstraints:     res.Merged.Len(),
		TranslatedConstraints: res.Translated.Len(),
		MinimalConstraints:    min.Minimal.Len(),
		Removed:               len(min.Removed),
		EquivalenceChecks:     min.EquivalenceChecks,
		VerdictCacheHit:       min.VerdictCacheHit,
	}
	for i := 0; i < min.Minimal.Len(); i++ {
		resp.Minimal = append(resp.Minimal, min.Minimal.At(i).String())
	}
	if rep := res.Soundness; rep != nil {
		sound := rep.Sound
		resp.Sound = &sound
		resp.States = rep.StateSpace.States
		resp.Truncated = rep.StateSpace.Truncated
		resp.Deadlocks = rep.Deadlocks
		resp.ValidateMethod = rep.Method
	}
	if len(res.BPELXML) > 0 {
		resp.BPEL = string(bytes.TrimSpace(res.BPELXML))
	}
	return resp
}
