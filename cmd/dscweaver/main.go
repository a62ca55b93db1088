// Command dscweaver runs the full weaver pipeline on a DSCL document:
// merge the declared dependencies into synchronization constraints
// (§4.2), desugar, translate service dependencies (§4.3), compute the
// minimal constraint set (§4.4), validate it through the Petri-net
// stage (§4.1), and optionally emit BPEL and execute the process with
// no-op activities.
//
// The pipeline itself is internal/weave — the same stages the server
// and the other tools run — executed under a signal context, so an
// interrupt (Ctrl-C) aborts the minimizer or the Petri exploration
// mid-flight instead of waiting the run out. Validation picks its own
// sequential kernel (the structural fast path, else a stubborn-reduced
// or full exploration) and prints which one decided the verdict.
//
// Usage:
//
//	dscweaver [flags] process.dscl
//
//	-seqlang       treat the input as seqlang (sequencing constructs);
//	               data/control dependencies are extracted via PDG
//	-bpel FILE     write the generated BPEL document to FILE
//	-validate      run Petri-net soundness checking (default true)
//	-max-states N  soundness exploration budget (0 = default, 1<<20)
//	-run           execute the minimal set with no-op activities and
//	               print the trace
//	-decentral N   partition the minimal set across at most N hosts
//	               (-1 = no cap) and print the placement; with -run,
//	               execute one engine per partition and report measured
//	               vs predicted cross-host message counts
//	-metrics FILE  write Prometheus-style metrics for the run ("-" = stdout)
//	-events FILE   write the JSONL lifecycle event log ("-" = stdout)
//	-v             print every pipeline stage
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"dscweaver/internal/bpel"
	"dscweaver/internal/core"
	"dscweaver/internal/decentral"
	"dscweaver/internal/dscl"
	"dscweaver/internal/enact"
	"dscweaver/internal/obs"
	"dscweaver/internal/schedule"
	"dscweaver/internal/weave"
	"dscweaver/internal/weave/front"
)

func main() {
	seqlang := flag.Bool("seqlang", false, "input is seqlang (sequencing constructs), extract dependencies via PDG")
	bpelOut := flag.String("bpel", "", "write generated BPEL to this file")
	structured := flag.Bool("structured", false, "fold unconditional chains into <sequence> constructs in the BPEL output")
	validate := flag.Bool("validate", true, "run Petri-net soundness validation")
	maxStates := flag.Int("max-states", 0, "soundness exploration budget in states (0 = default, 1<<20)")
	run := flag.Bool("run", false, "execute the minimal set with no-op activities")
	traceOut := flag.String("trace", "", "with -run, write the execution trace as JSON to this file")
	dotOut := flag.String("dot", "", "write the minimal constraint graph as Graphviz to this file")
	decentralize := flag.Int("decentral", 0, "partition the minimal set across at most N hosts and print the placement (0 = off, -1 = natural placement, no cap); with -run, execute one engine per partition and report measured vs predicted message counts")
	explain := flag.String("explain", "", "explain why constraints were removed: 'all' or a substring of the constraint")
	metricsOut := flag.String("metrics", "", "write Prometheus-style metrics for the whole run to this file (\"-\" = stdout)")
	eventsOut := flag.String("events", "", "write the JSONL lifecycle event log (minimizer + engine) to this file (\"-\" = stdout)")
	verbose := flag.Bool("v", false, "print every pipeline stage")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dscweaver [flags] process.dscl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

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

	lang := "dscl"
	if *seqlang {
		lang = "seqlang"
	}
	fe, err := front.ByLang(lang)
	if err != nil {
		fail(err)
	}
	res, err := weave.Run(ctx, weave.Input{Source: string(src)}, weave.Options{
		Frontend:       fe,
		Validate:       *validate,
		MaxStates:      *maxStates,
		BPEL:           *bpelOut != "",
		StructuredBPEL: *structured,
		Metrics:        reg,
		Events:         sink,
	})
	if err != nil {
		fail(err)
	}
	proc, asc, min := res.Parsed.Proc, res.Translated, res.Minimize

	if *seqlang {
		fmt.Printf("extracted %d dependencies from sequencing constructs\n", res.Parsed.Deps.Len())
	} else {
		fmt.Printf("loaded %d dependencies, %d raw constraints\n", res.Parsed.Deps.Len(), res.Parsed.Extra.Len())
	}
	fmt.Printf("merged constraint set: %d constraints\n", res.Merged.Len())
	if *verbose {
		fmt.Println(dscl.PrintConstraints(res.Merged))
		fmt.Println()
	}
	fmt.Printf("after service translation:  %d constraints\n", asc.Len())
	fmt.Printf("minimal constraint set:     %d constraints (%d removed, %d equivalence checks)\n",
		min.Minimal.Len(), len(min.Removed), min.EquivalenceChecks)
	if *verbose {
		fmt.Printf("minimizer engine:           %d/%d closure-cache hits/misses, %d equivalence-memo hits\n",
			min.ClosureCacheHits, min.ClosureCacheMisses, min.CondMemoHits)
		fmt.Println(dscl.PrintConstraints(min.Minimal))
		fmt.Println()
		for _, st := range res.Stages {
			fmt.Printf("stage %-10s %v\n", st.Stage, st.Duration.Round(time.Microsecond))
		}
	}

	if rep := res.Soundness; rep != nil {
		if rep.StateSpace.Truncated {
			fmt.Fprintf(os.Stderr, "WARNING: state space truncated at %d states — soundness not certified; raise the exploration budget\n",
				rep.StateSpace.States)
		}
		if !rep.Sound {
			fmt.Fprintf(os.Stderr, "validation FAILED: deadlocks=%v noCompletion=%v\n", rep.Deadlocks, rep.NoCompletion)
			os.Exit(1)
		}
		fmt.Printf("petri-net validation:       sound (%d states, %s kernel)\n", rep.StateSpace.States, rep.Method)
	}

	if *explain != "" {
		guards, err := core.DeriveGuards(asc)
		if err != nil {
			fail(err)
		}
		removals, err := core.ExplainRemovals(min, guards)
		if err != nil {
			fail(err)
		}
		for _, r := range removals {
			if *explain != "all" && !strings.Contains(r.Constraint.String(), *explain) {
				continue
			}
			fmt.Println(r)
		}
	}

	var execPlan *decentral.Plan
	if *decentralize != 0 {
		cmp, err := decentral.Compare(asc, min.Minimal, decentral.Pin(proc))
		if err != nil {
			fail(err)
		}
		fmt.Printf("decentralized placement (minimal set):\n%s", cmp.Minimal)
		fmt.Printf("cross-host messages: unoptimized=%d minimal=%d saved=%d\n",
			cmp.Unoptimized.CrossEdges, cmp.Minimal.CrossEdges, cmp.MessageSavings())
		// The executable plan: exclusive groups co-located, hosts capped
		// at N (-1 = no cap).
		execPlan = cmp.Minimal
		if execPlan, err = decentral.CoLocate(min.Minimal, execPlan); err != nil {
			fail(err)
		}
		if execPlan, err = decentral.Fold(min.Minimal, execPlan, *decentralize); err != nil {
			fail(err)
		}
		if len(execPlan.Hosts) != len(cmp.Minimal.Hosts) {
			fmt.Printf("normalized to %d hosts:\n%s", len(execPlan.Hosts), execPlan)
		}
	}

	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(core.ConstraintDOT(proc.Name, min.Minimal)), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}

	if *bpelOut != "" {
		if err := os.WriteFile(*bpelOut, res.BPELXML, 0o644); err != nil {
			fail(err)
		}
		stats := bpel.Summarize(res.BPELDoc)
		fmt.Printf("wrote %s: %d activities, %d links (%d conditional)", *bpelOut,
			stats.Activities, stats.Links, stats.Conditional)
		if stats.Sequences > 0 {
			fmt.Printf(", %d sequences (%d implicit orderings)", stats.Sequences, stats.Implicit)
		}
		fmt.Println()
	}

	if *run {
		execs := schedule.NoopExecutors(proc, time.Millisecond, nil)
		var tr *schedule.Trace
		if execPlan != nil {
			out, err := enact.Run(ctx, enact.Options{
				Plan: execPlan, Set: min.Minimal, Guards: res.Guards, Execs: execs,
				Timeout: 30 * time.Second, Metrics: reg, Events: sink,
			})
			if err != nil {
				fail(err)
			}
			tr = out.Trace
			fmt.Printf("decentralized run: %d hosts, %d edge messages (plan predicts %d), %d outcome broadcasts\n",
				len(out.Plan.Hosts), out.Stats.EdgeMessages, out.Plan.CrossEdges, out.Stats.OutcomeMessages)
		} else {
			eng, err := schedule.New(min.Minimal, execs, schedule.Options{Guards: res.Guards, Timeout: 30 * time.Second, Metrics: reg, Events: sink})
			if err != nil {
				fail(err)
			}
			if tr, err = eng.Run(ctx); err != nil {
				fail(err)
			}
		}
		if err := tr.Validate(asc, res.Guards); err != nil {
			fail(err)
		}
		fmt.Printf("executed: %d activities ran, %d skipped, makespan %v, peak parallelism %d\n",
			len(tr.Executed()), len(tr.SkippedActivities()), tr.Makespan().Round(time.Millisecond), tr.MaxParallel)
		if *traceOut != "" {
			data, err := json.MarshalIndent(tr, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
		if *verbose {
			fmt.Print(tr.String())
			fmt.Print(tr.Gantt())
		}
	}

	if eventLog != nil {
		if err := eventLog.Close(); err != nil {
			fail(err)
		}
		if *eventsOut != "-" {
			fmt.Printf("wrote %s\n", *eventsOut)
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
			fmt.Printf("wrote %s\n", *metricsOut)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dscweaver:", err)
	os.Exit(1)
}
