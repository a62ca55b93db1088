// Command dscweaverd serves the weaver pipeline over HTTP: a
// long-running hardened service in front of the same §5 pipeline the
// dscweaver CLI runs once per invocation.
//
//	POST /v1/weave             weave DSCL or seqlang source into the
//	                           minimal constraint set (+ Petri verdict,
//	                           optional BPEL)
//	POST /v1/simulate          execute the minimal set on the scheduling
//	                           engine against simulated services
//	POST /v1/enact             execute it decentralized, one engine per
//	                           partition, in this process or across peer
//	                           dscweaverd processes
//	POST /v1/enact/join        run one peer's partition slice of a
//	                           coordinated enactment
//	POST /v1/transport/invoke  carry enactment notes between peers
//	GET  /v1/runs              recent run summaries
//	GET  /v1/runs/{id}/events  one run's lifecycle event log as JSONL
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness (503 while draining)
//	GET  /readyz               readiness (503 when draining or the
//	                           weave pool is saturated with a backlog)
//
// Requests that wait longer than the queue-wait bound for a pool slot
// are shed with 429 and a Retry-After hint.
//
// Usage:
//
//	dscweaverd [flags]
//
//	-addr ADDR       listen address (default :8421)
//	-config FILE     JSON config file (flags override it)
//	-store-dir DIR   persistent run store directory, the daemon's one
//	                 on-disk event log: run history survives restarts
//	                 and outgrows the in-memory ring
//	-store-fsync     fsync the store on every run finish
//	-concurrency N   weave worker pool size (default GOMAXPROCS)
//	-queue-wait D    max wait for a pool slot before shedding (default 2s)
//	-fabric-token T  shared bearer secret for the inter-node enactment
//	                 surface (/v1/transport/invoke, /v1/enact/join);
//	                 every member of a multi-process enactment must
//	                 agree on it
//	-chaos-net SPEC  seeded network-fault plan injected into outgoing
//	                 enactment frames (chaos testing), e.g.
//	                 '*>*:partition=1500ms;lose=2'
//	-chaos-net-seed N
//	                 seed for -chaos-net (default 1)
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight weaves finish,
// then the run store closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"dscweaver/internal/chaos"
	"dscweaver/internal/server"
)

func main() {
	addr := flag.String("addr", "", "listen address (default :8421)")
	configPath := flag.String("config", "", "JSON config file (flags override it)")
	storeDir := flag.String("store-dir", "", "persistent run store directory, the on-disk event log (empty = memory-only run history)")
	storeFsync := flag.Bool("store-fsync", false, "fsync the run store on every run finish")
	concurrency := flag.Int("concurrency", 0, "weave worker pool size (0 = GOMAXPROCS)")
	queueWait := flag.Duration("queue-wait", 0, "max wait for a pool slot before shedding with 429 (0 = 2s default)")
	fabricToken := flag.String("fabric-token", "", "shared bearer secret for the inter-node enactment surface")
	chaosNet := flag.String("chaos-net", "", "seeded network-fault plan for outgoing enactment frames, e.g. '*>*:partition=1500ms;lose=2'")
	chaosNetSeed := flag.Int64("chaos-net-seed", 1, "seed for -chaos-net")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: dscweaverd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var cfg server.Config
	if *configPath != "" {
		var err error
		cfg, err = server.LoadConfig(*configPath)
		if err != nil {
			fatal(err)
		}
	}
	if *addr != "" {
		cfg.Addr = *addr
	}
	if *storeDir != "" {
		cfg.StoreDir = *storeDir
	}
	if *storeFsync {
		cfg.StoreFsync = true
	}
	if *concurrency != 0 {
		cfg.WeaveConcurrency = *concurrency
	}
	if *queueWait != 0 {
		cfg.QueueWait = *queueWait
	}
	if *fabricToken != "" {
		cfg.FabricToken = *fabricToken
	}
	if *chaosNet != "" {
		net, err := chaos.ParseNetSpec(*chaosNet, *chaosNetSeed)
		if err != nil {
			fatal(err)
		}
		cfg.FabricWrap = net.RoundTripper
		fmt.Fprintf(os.Stderr, "dscweaverd: CHAOS fabric plan %s (seed %d)\n", net.Plan(), net.Seed())
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg = cfg.Normalize()
	fmt.Fprintf(os.Stderr, "dscweaverd listening on %s (weave pool %d)\n", cfg.Addr, cfg.WeaveConcurrency)
	if err := s.ListenAndServe(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "dscweaverd drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dscweaverd:", err)
	os.Exit(1)
}
