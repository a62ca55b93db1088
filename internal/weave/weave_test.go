// Pipeline tests: the weave package is the one canonical pipeline, so
// these pin (1) bit-identity with the hand-rolled stage sequence the
// purchasing fixture keeps (the fixture sits below weave in the import
// graph and promises the two paths never diverge), (2) the stage
// lifecycle — events, metrics, timings, skip toggles — and (3)
// cancellation semantics end to end.
package weave_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/obs"
	"dscweaver/internal/purchasing"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
)

// purchasingParsed rebuilds the fixture as a frontend-shaped input.
func purchasingParsed() *weave.Parsed {
	return &weave.Parsed{Proc: purchasing.Process(), Deps: purchasing.Dependencies()}
}

func purchasingSource(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "dscl", "testdata", "purchasing.dscl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPipelineMatchesHandRolledStages is the bit-identity contract
// purchasing.Pipeline documents: running the stages through weave
// produces the same merged set, translated set, minimal set, removal
// order and check count as assembling them by hand.
func TestPipelineMatchesHandRolledStages(t *testing.T) {
	merged, asc, min, err := purchasing.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	res, err := weave.Run(context.Background(), weave.Input{Parsed: purchasingParsed()}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.String() != merged.String() {
		t.Errorf("merged set diverges from purchasing.Pipeline:\nweave:\n%s\nhand:\n%s", res.Merged, merged)
	}
	if res.Translated.String() != asc.String() {
		t.Errorf("translated set diverges from purchasing.Pipeline:\nweave:\n%s\nhand:\n%s", res.Translated, asc)
	}
	if res.Minimize.Minimal.String() != min.Minimal.String() {
		t.Errorf("minimal set diverges from purchasing.Pipeline:\nweave:\n%s\nhand:\n%s", res.Minimize.Minimal, min.Minimal)
	}
	if len(res.Minimize.Removed) != len(min.Removed) {
		t.Fatalf("removals = %d, hand-rolled = %d", len(res.Minimize.Removed), len(min.Removed))
	}
	for i := range min.Removed {
		if res.Minimize.Removed[i].String() != min.Removed[i].String() {
			t.Errorf("removal %d = %s, hand-rolled %s", i, res.Minimize.Removed[i], min.Removed[i])
		}
	}
	if res.Minimize.EquivalenceChecks != min.EquivalenceChecks {
		t.Errorf("EquivalenceChecks = %d, hand-rolled = %d", res.Minimize.EquivalenceChecks, min.EquivalenceChecks)
	}
}

// TestPipelineFullFromSource runs every stage from DSCL source and
// checks the stage ledger and every artifact.
func TestPipelineFullFromSource(t *testing.T) {
	res, err := weave.Run(context.Background(), weave.Input{Source: purchasingSource(t)}, weave.Options{
		Frontend: front.DSCL,
		Validate: true,
		BPEL:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		weave.StageParse, weave.StageMerge, weave.StageDesugar, weave.StageTranslate,
		weave.StageMinimize, weave.StageValidate, weave.StageBPEL,
	}
	if len(res.Stages) != len(want) {
		t.Fatalf("ran %d stages, want %d: %+v", len(res.Stages), len(want), res.Stages)
	}
	for i, stage := range want {
		if res.Stages[i].Stage != stage {
			t.Errorf("stage %d = %s, want %s", i, res.Stages[i].Stage, stage)
		}
		if res.Stages[i].Duration <= 0 {
			t.Errorf("stage %s: non-positive duration %v", stage, res.Stages[i].Duration)
		}
	}
	if res.Parsed == nil || res.Parsed.Proc == nil {
		t.Fatal("no parsed output")
	}
	if res.Minimize.Minimal.Len() != 17 {
		t.Errorf("minimal = %d constraints, want the purchasing 17", res.Minimize.Minimal.Len())
	}
	if res.Soundness == nil || !res.Soundness.Sound {
		t.Errorf("soundness = %+v, want sound", res.Soundness)
	}
	if res.BPELDoc == nil || len(res.BPELXML) == 0 {
		t.Error("BPEL stage produced no document")
	}
	if d := stageDuration(res, weave.StageMinimize); d <= 0 {
		t.Errorf("stageDuration(minimize) = %v", d)
	}
	if d := stageDuration(res, "no-such-stage"); d != 0 {
		t.Errorf("stageDuration(no-such-stage) = %v, want 0", d)
	}
}

// stageDuration returns the recorded duration of one stage (0 when it
// did not run).
func stageDuration(r *weave.Result, stage string) time.Duration {
	for _, s := range r.Stages {
		if s.Stage == stage {
			return s.Duration
		}
	}
	return 0
}

// TestPipelineSkipsTogglesOff: with the toggles off the optional
// stages neither run nor leave artifacts.
func TestPipelineSkipsTogglesOff(t *testing.T) {
	res, err := weave.Run(context.Background(), weave.Input{Parsed: purchasingParsed()}, weave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Soundness != nil || res.BPELDoc != nil || res.BPELXML != nil {
		t.Errorf("skipped stages left artifacts: soundness=%v bpel=%v", res.Soundness, res.BPELDoc)
	}
	if d := stageDuration(res, weave.StageValidate); d != 0 {
		t.Errorf("validate ran despite Validate=false: %v", d)
	}
	if len(res.Stages) != 4 {
		t.Errorf("ran %d stages, want 4 (merge..minimize)", len(res.Stages))
	}
}

// TestPipelineTruncatedValidation: a capped exploration surfaces
// Truncated and withholds the soundness certificate — the signal
// /v1/weave and the CLI warn on.
func TestPipelineTruncatedValidation(t *testing.T) {
	res, err := weave.Run(context.Background(), weave.Input{Parsed: purchasingParsed()}, weave.Options{
		Validate:  true,
		MaxStates: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Soundness.StateSpace.Truncated {
		t.Fatal("MaxStates=2 exploration not truncated")
	}
	if res.Soundness.Sound {
		t.Error("truncated exploration certified soundness")
	}
}

func TestPipelineInputErrors(t *testing.T) {
	cases := []struct {
		name string
		in   weave.Input
		opts weave.Options
		want string
	}{
		{"source-without-frontend", weave.Input{Source: "process P { }"}, weave.Options{}, "requires Options.Frontend"},
		{"empty-input", weave.Input{}, weave.Options{Frontend: front.DSCL}, "empty input"},
		{"parsed-missing-deps", weave.Input{Parsed: &weave.Parsed{Proc: purchasing.Process()}}, weave.Options{}, "requires Proc and Deps"},
		{"parse-failure", weave.Input{Source: `process "unterminated`}, weave.Options{Frontend: front.DSCL}, "weave: parse:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := weave.Run(context.Background(), tc.in, tc.opts)
			if res != nil || err == nil {
				t.Fatalf("Run = (%v, %v), want error", res, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// recordSink collects events; the pipeline and the minimizer emit from
// the Run goroutine, so no locking is needed.
type recordSink struct {
	events []obs.Event
}

func (s *recordSink) Emit(e obs.Event) {
	s.events = append(s.events, e)
}

func (s *recordSink) kinds(layer string) []string {
	var out []string
	for _, e := range s.events {
		if e.Layer == layer {
			out = append(out, e.Kind)
		}
	}
	return out
}

// TestPipelineEventsAndMetrics pins the observability contract: one
// weave_begin/weave_end envelope, a stage_begin/stage_end pair per
// stage, and the registry counters/histograms the dashboards read.
func TestPipelineEventsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &recordSink{}
	res, err := weave.Run(context.Background(), weave.Input{Parsed: purchasingParsed()}, weave.Options{
		Metrics: reg,
		Events:  sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{obs.EvWeaveBegin}
	for _, st := range res.Stages {
		_ = st
		want = append(want, obs.EvStageBegin, obs.EvStageEnd)
	}
	want = append(want, obs.EvWeaveEnd)
	got := sink.kinds(obs.LayerWeave)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("weave event kinds = %v, want %v", got, want)
	}
	// The final weave_end names the process and carries no error.
	last := sink.events[len(sink.events)-1]
	if last.Kind != obs.EvWeaveEnd || last.Detail != "Purchasing" || last.Err != "" {
		t.Errorf("last event = %+v, want clean weave_end for Purchasing", last)
	}
	// Minimizer lifecycle events ride the same sink on their own layer:
	// a begin marker and one end event carrying the decision record.
	if got := sink.kinds(obs.LayerMinimize); fmt.Sprint(got) != fmt.Sprint([]string{obs.EvMinimizeBegin, obs.EvMinimizeEnd}) {
		t.Errorf("minimizer event kinds = %v, want begin/end", got)
	}
	if got := reg.Counter("weave_runs_total").Value(); got != 1 {
		t.Errorf("weave_runs_total = %d, want 1", got)
	}
	if got := reg.Counter("weave_canceled_total").Value(); got != 0 {
		t.Errorf("weave_canceled_total = %d, want 0", got)
	}
	if got := reg.Counter("minimize_runs_total").Value(); got != 1 {
		t.Errorf("minimize_runs_total = %d, want 1 (registry not forwarded to the minimizer)", got)
	}
}

// TestPipelineCancelMidMinimize cancels from inside the minimizer's
// candidate loop (its candidate hook runs synchronously before each
// check) and checks the abort surfaces through the pipeline: a minimize-stage
// error wrapping context.Canceled, a stage_end and weave_end carrying
// the error, and the weave_canceled_total counter.
func TestPipelineCancelMidMinimize(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	sink := &recordSink{}
	onCand := func(context.Context, core.Constraint) error {
		// The fourth hook call runs after three checks.
		if seen++; seen == 4 {
			cancel()
		}
		return nil
	}
	res, err := weave.Run(ctx, weave.Input{Parsed: purchasingParsed()}, weave.WithCandidateHook(weave.Options{
		Metrics: reg,
		Events:  sink,
	}, onCand))
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, context.Canceled) || !core.ErrCanceled(err) {
		t.Fatalf("err = %v, want context.Canceled via the minimize stage", err)
	}
	var ce *core.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *core.CancelError with partial progress", err)
	}
	if !strings.Contains(err.Error(), "weave: minimize:") {
		t.Errorf("err = %q, want the minimize stage named", err)
	}
	if got := reg.Counter("weave_canceled_total").Value(); got != 1 {
		t.Errorf("weave_canceled_total = %d, want 1", got)
	}
	last := sink.events[len(sink.events)-1]
	if last.Kind != obs.EvWeaveEnd || last.Err == "" {
		t.Errorf("last event = %+v, want weave_end carrying the abort", last)
	}
}

// TestPipelinePreCanceled: a context canceled before Run aborts ahead
// of the first stage and still closes the event envelope.
func TestPipelinePreCanceled(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &recordSink{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := weave.Run(ctx, weave.Input{Parsed: purchasingParsed()}, weave.Options{
		Metrics: reg,
		Events:  sink,
	})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if got := sink.kinds(obs.LayerWeave); fmt.Sprint(got) != fmt.Sprint([]string{obs.EvWeaveBegin, obs.EvWeaveEnd}) {
		t.Errorf("event kinds = %v, want bare begin/end envelope", got)
	}
	if got := reg.Counter("weave_canceled_total").Value(); got != 1 {
		t.Errorf("weave_canceled_total = %d, want 1", got)
	}
}

// TestPipelineReusable: one Pipeline value runs repeatedly and
// concurrently (the race detector guards the claimed safety).
func TestPipelineReusable(t *testing.T) {
	p := weave.New(weave.Options{})
	ref, err := p.Run(context.Background(), weave.Input{Parsed: purchasingParsed()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			res, err := p.Run(context.Background(), weave.Input{Parsed: purchasingParsed()})
			if err == nil && res.Minimize.Minimal.String() != ref.Minimize.Minimal.String() {
				err = errors.New("concurrent run diverged")
			}
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestPipelineNilContext mirrors the kernels' nil-ctx tolerance.
func TestPipelineNilContext(t *testing.T) {
	var nilCtx context.Context
	res, err := weave.Run(nilCtx, weave.Input{Parsed: purchasingParsed()}, weave.Options{})
	if err != nil || res.Minimize.Minimal.Len() != 17 {
		t.Fatalf("Run(nil ctx) = (%v, %v), want the purchasing 17", res, err)
	}
}

// TestSeqlangFrontend drives the second frontend through the pipeline
// and the ByLang dispatcher.
func TestSeqlangFrontend(t *testing.T) {
	fe, err := front.ByLang("seqlang")
	if err != nil {
		t.Fatal(err)
	}
	src := "process P { sequence { assign a writes(x) assign b reads(x) } }"
	res, err := weave.Run(context.Background(), weave.Input{Source: src}, weave.Options{Frontend: fe})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed.Deps.Len() == 0 {
		t.Error("PDG extraction found no dependencies")
	}
	if _, err := front.ByLang("cobol"); err == nil {
		t.Error("ByLang accepted an unknown language")
	}
	if fe, err := front.ByLang(""); err != nil || fe == nil {
		t.Errorf("ByLang(\"\") = (%v, %v), want the DSCL default", fe, err)
	}
}
