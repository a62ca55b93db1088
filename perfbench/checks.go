package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/server"
)

// The answer checks. Each returns nil for a correct answer; a non-nil
// error counts the operation as failed. They follow the paper's own
// invariants: Def. 6 minimal sets, Def. 5 trace validity and the live
// cross-edge count of §5.

// Purchasing is the paper's running example; these figures are fixed.
const (
	purchasingMinimal = 17
	purchasingRemoved = 13
	purchasingStates  = 41
	purchasingMethod  = "reduced"
)

// checkWeave compares a weave answer with the source's reference
// minimal set, and for purchasing with its known figures.
func checkWeave(resp *server.WeaveResponse, src *source) error {
	if resp.Sound == nil || !*resp.Sound {
		return fmt.Errorf("%s: not reported sound", src.name)
	}
	if src.purchasing {
		if resp.MinimalConstraints != purchasingMinimal || resp.Removed != purchasingRemoved ||
			resp.States != purchasingStates || resp.ValidateMethod != purchasingMethod {
			return fmt.Errorf("purchasing: %d minimal, %d removed, %d states via %q; want %d, %d, %d via %q",
				resp.MinimalConstraints, resp.Removed, resp.States, resp.ValidateMethod,
				purchasingMinimal, purchasingRemoved, purchasingStates, purchasingMethod)
		}
	}
	if !slices.Equal(resp.Minimal, src.minimal) {
		return fmt.Errorf("%s: minimal set differs from the paper-naive engine's (%d vs %d constraints)",
			src.name, len(resp.Minimal), len(src.minimal))
	}
	return nil
}

// checkSimulate requires a run whose trace the server validated.
func checkSimulate(resp *server.SimulateResponse) error {
	if !resp.Valid || resp.Error != "" {
		return fmt.Errorf("simulate %s: valid=%v error=%q", resp.RunID, resp.Valid, resp.Error)
	}
	return nil
}

// checkEnact requires a valid merged trace and exactly as many edge
// notes as the placement predicted.
func checkEnact(resp *server.EnactResponse) error {
	if !resp.Valid || resp.Error != "" {
		return fmt.Errorf("enact %s: valid=%v error=%q", resp.RunID, resp.Valid, resp.Error)
	}
	if resp.EdgeMessages != resp.PredictedCrossEdges {
		return fmt.Errorf("enact %s: %d edge messages, %d predicted cross edges",
			resp.RunID, resp.EdgeMessages, resp.PredictedCrossEdges)
	}
	return nil
}

// checkEvents parses a run's event log. A simulate run's log must
// rebuild a trace that satisfies the translated set the client derived
// itself; a weave run's log must end its pipeline without error.
func checkEvents(body []byte, truncated bool, kind op, src *source) error {
	if truncated {
		return errors.New("events: replay truncated")
	}
	evs, err := obs.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if kind == opSimulate {
		return checkTrace(evs, src)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Layer == obs.LayerWeave && evs[i].Kind == obs.EvWeaveEnd {
			if evs[i].Err != "" {
				return fmt.Errorf("events: weave ended with %q", evs[i].Err)
			}
			return nil
		}
	}
	return errors.New("events: no weave_end event")
}

// checkTrace replays an engine event stream into a trace and validates
// it against the source's translated constraint set.
func checkTrace(evs []obs.Event, src *source) error {
	tr, err := schedule.TraceFromEvents(evs)
	if err != nil {
		return fmt.Errorf("trace replay: %w", err)
	}
	if err := tr.Validate(src.translated, src.guards); err != nil {
		return fmt.Errorf("trace of %s: %w", src.name, err)
	}
	return nil
}

// checkRuns requires a newest-first listing and returns the ids the
// client does not know yet; a listing may name a run whose request is
// still in flight, so those are verified once every client has stopped.
func checkRuns(list []server.RunSummary, known func(id string) bool) (unknown []string, err error) {
	for i := range list {
		if i > 0 && list[i].Began.After(list[i-1].Began) {
			return nil, fmt.Errorf("runs: %s listed after older %s", list[i].ID, list[i-1].ID)
		}
		if !known(list[i].ID) {
			unknown = append(unknown, list[i].ID)
		}
	}
	return unknown, nil
}
