package weave

import "dscweaver/internal/core"

// WithCandidateHook returns opts with the minimizer's candidate hook
// set, so tests can act between candidate checks.
func WithCandidateHook(opts Options, hook core.CandidateHook) Options {
	opts.candidateHook = hook
	return opts
}
