// Command dscsim runs analytic what-if studies on a DSCL process: it
// weaves the document to its minimal constraint set and estimates the
// makespan distribution under a sampled latency model, optionally
// comparing against the unoptimized constraint set.
//
// Usage:
//
//	dscsim [flags] process.dscl
//
//	-trials N        Monte-Carlo trials (default 1000)
//	-seed N          RNG seed (default 1)
//	-min/-max DUR    uniform activity latency bounds (default 1ms/5ms)
//	-branch B        force every decision to branch B ("" = uniform)
//	-compare         also estimate the unoptimized (pre-minimization)
//	                 set; equal distributions are the observable form of
//	                 transitive equivalence (Definition 5). To quantify
//	                 the gain over sequencing constructs instead, see
//	                 examples/concurrency.
//	-metrics FILE    write Prometheus-style minimizer metrics ("-" = stdout)
//	-events FILE     write the JSONL minimizer event log ("-" = stdout)
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"dscweaver/internal/core"
	"dscweaver/internal/dscl"
	"dscweaver/internal/obs"
	"dscweaver/internal/sim"
	"dscweaver/internal/weave"
)

func main() {
	trials := flag.Int("trials", 1000, "Monte-Carlo trials")
	seed := flag.Int64("seed", 1, "RNG seed")
	minLat := flag.Duration("min", time.Millisecond, "minimum activity latency")
	maxLat := flag.Duration("max", 5*time.Millisecond, "maximum activity latency")
	branch := flag.String("branch", "", "force every decision to this branch (empty = uniform sampling)")
	compare := flag.Bool("compare", true, "also estimate the unoptimized set (equivalence check: the distributions must match)")
	metricsOut := flag.String("metrics", "", "write Prometheus-style minimizer metrics to this file (\"-\" = stdout)")
	eventsOut := flag.String("events", "", "write the JSONL minimizer event log to this file (\"-\" = stdout)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dscsim [flags] process.dscl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	doc, err := dscl.Load(string(src))
	if err != nil {
		fail(err)
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	var sink obs.Sink
	var eventLog *obs.JSONLWriter
	if *eventsOut != "" {
		f, err := openOut(*eventsOut)
		if err != nil {
			fail(err)
		}
		eventLog = obs.NewJSONLWriter(f)
		sink = eventLog
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	wres, err := weave.Run(ctx, weave.Input{Parsed: doc.Parsed()}, weave.Options{
		Metrics: reg,
		Events:  sink,
	})
	if err != nil {
		fail(err)
	}
	asc, res := wres.Translated, wres.Minimize
	guards, err := core.DeriveGuards(asc)
	if err != nil {
		fail(err)
	}

	study := sim.Study{
		Trials:  *trials,
		Seed:    *seed,
		Latency: sim.Uniform(*minLat, *maxLat),
		Guards:  guards,
	}
	if *branch != "" {
		b := *branch
		study.Branch = func(_ *rand.Rand, _ *core.Activity) string { return b }
	}

	fmt.Printf("process %s: %d activities, %d → %d constraints\n",
		doc.Proc.Name, len(doc.Proc.Activities()), asc.Len(), res.Minimal.Len())
	fmt.Printf("study: %d trials, latency U[%v, %v], seed %d\n\n", *trials, *minLat, *maxLat, *seed)

	minimal, err := sim.Estimate(res.Minimal, study)
	if err != nil {
		fail(err)
	}
	printSummary("minimal set", minimal)
	if *compare {
		unopt, err := sim.Estimate(asc, study)
		if err != nil {
			fail(err)
		}
		printSummary("unoptimized", unopt)
		if unopt == minimal {
			fmt.Println("\ndistributions identical — minimization preserved the schedule space (Def. 5)")
		} else {
			fmt.Printf("\nWARNING: distributions differ (mean ratio %.2f) — minimal set is not equivalent\n",
				float64(unopt.Mean)/float64(minimal.Mean))
		}
	}

	if eventLog != nil {
		if err := eventLog.Close(); err != nil {
			fail(err)
		}
	}
	if reg != nil {
		f, err := openOut(*metricsOut)
		if err != nil {
			fail(err)
		}
		if err := reg.WritePrometheus(f); err != nil {
			fail(err)
		}
		if *metricsOut != "-" {
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
	}
}

// openOut resolves an output-flag value: "-" means stdout, anything
// else is created (truncated) on disk.
func openOut(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

func printSummary(label string, s sim.Summary) {
	fmt.Printf("%-12s mean=%-10v p50=%-10v p95=%-10v min=%-10v max=%v\n",
		label, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.Min.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dscsim:", err)
	os.Exit(1)
}
