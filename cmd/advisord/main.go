// Command advisord serves index recommendations as a daemon: train (or
// restore) a guarded advisor, then answer POST /v1/recommend from an
// atomically-swapped model snapshot while POST /v1/update batches retrain it
// through the canary-gated guard. Overload sheds with 429, degraded answers
// fall back through cache and heuristic tiers, and SIGTERM drains gracefully
// (in-flight requests finish, the last committed model persists to
// -model-dir).
//
// Example:
//
//	advisord -addr :8080 -benchmark tpch -advisor DQN-b -model-dir /var/lib/advisord
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/v1/recommend -d '{"queries":["SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42"]}'
//	curl -s -X POST localhost:8080/v1/update -d '{"queries":["SELECT ..."],"source":"nightly-etl"}'
//
// The optional "source" field on /v1/update stamps any quarantined queries
// from that batch with the submitting pipeline's name, so /v1/quarantine and
// the forensics flight recorder attribute drops to their origin (the attack
// zoo uses the same field to attribute drops per injector; DESIGN.md §14).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/advisor"
	"repro/internal/advisor/heuristic"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cli"
	"repro/internal/cost"
	"repro/internal/defense/trim"
	"repro/internal/guard"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "serve the API on this address")
	benchmark := flag.String("benchmark", "tpch", "benchmark schema: tpch or tpcds")
	sf := flag.Float64("sf", 1, "scale factor")
	name := flag.String("advisor", "DQN-b", "advisor name")
	trajectories := flag.Int("trajectories", 120, "training trajectories")
	n := flag.Int("n", 0, "initial training workload size (0 = paper default)")
	seed := flag.Int64("seed", 1, "random seed")
	queue := flag.Int("queue", 64, "admission queue depth (concurrent requests before shedding)")
	replicas := flag.Int("replicas", 2, "full-tier serving replicas")
	updateQueue := flag.Int("update-queue", 4, "queued update batches before shedding")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request deadline")
	degradeAfter := flag.Duration("degrade-after", 0, "full-tier wait before degrading (0 = timeout/4)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	cacheCap := flag.Int("cache", 1024, "recommendation cache entries")
	guardBudget := flag.Float64("guard-budget", 0.02, "canary regression budget for updates")
	screen := flag.String("screen", "none", "update-batch screening strategy: "+strings.Join(trim.Strategies(), ", ")+" (or any '+'-chain)")
	modelDir := flag.String("model-dir", "", "persist committed model snapshots here; restored on restart")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /metrics.json and /report on this extra address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (plus metrics) on this extra address")
	traceAll := flag.Bool("trace-record-all", false, "retain every request trace in the flight recorder, not just anomalous ones")
	reportPath := flag.String("report", "", "write the obs report (metrics + flight traces) here on drain")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		olog.Error(nil, err.Error())
		os.Exit(1)
	}

	logClose, err := logOpts.Apply("advisord")
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisord:", err)
		os.Exit(2)
	}
	defer func() { _ = logClose() }()

	if !registry.Valid(*name) {
		olog.Error(nil, "unknown advisor", "advisor", *name, "want", strings.Join(registry.Names(), ", "))
		os.Exit(2)
	}
	var s *catalog.Schema
	switch *benchmark {
	case "tpch":
		s = catalog.TPCH(*sf)
	case "tpcds":
		s = catalog.TPCDS(*sf)
	default:
		olog.Error(nil, "unknown benchmark", "benchmark", *benchmark)
		os.Exit(2)
	}

	whatIf := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, whatIf)
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = *trajectories
	cfg.Seed = *seed
	inner, err := registry.New(*name, env, cfg)
	if err != nil {
		fail(err)
	}

	size := *n
	if size == 0 {
		size = workload.DefaultSize(s)
	}
	// The canary draws from a disjoint seed stream so the gate holds out
	// genuinely unseen queries (same convention as the experiment harness).
	canary := workload.GenerateNormal(s, workload.TemplatesFor(s), max(4, size/2),
		rand.New(rand.NewSource(*seed*100000+7_777_777)))
	// The initial training workload doubles as the screeners' trusted
	// reference, so it is generated up front even when a restored model will
	// skip the training itself.
	nw := workload.GenerateNormal(s, workload.TemplatesFor(s), size, rand.New(rand.NewSource(*seed)))

	screener, err := trim.BuildScreener(*screen, inner, whatIf, nw, *seed)
	if err != nil {
		olog.Error(nil, err.Error())
		os.Exit(2)
	}

	trainer, err := guard.NewTrainer(inner, guard.Config{
		Budget:   *guardBudget,
		Canary:   canary,
		Eval:     whatIf,
		Screener: screener,
		ModelDir: *modelDir,
	})
	if err != nil {
		fail(err)
	}

	// Restore a persisted model if one exists; otherwise train from scratch.
	// Updates after a restore are new attempts on the restored model.
	restored, err := trainer.TryRestore()
	if err != nil {
		fail(err)
	}
	if restored {
		olog.Info(nil, "restored model", "advisor", trainer.Name(), "model_dir", *modelDir)
	} else {
		olog.Info(nil, "training from scratch", "advisor", trainer.Name(), "queries", nw.Len(), "schema", s.Name)
		start := time.Now()
		trainer.Train(nw)
		olog.Info(nil, "trained", "took", time.Since(start).Round(time.Millisecond).String())
		if err := trainer.Persist(); err != nil {
			fail(err)
		}
	}

	srv, err := serve.NewServer(serve.Config{
		Trainer: trainer,
		NewReplica: func() (advisor.Advisor, error) {
			return registry.New(*name, env, cfg)
		},
		Fallback:       heuristic.New(env, cfg.Budget, false),
		WhatIf:         whatIf,
		Schema:         s,
		QueueDepth:     *queue,
		Replicas:       *replicas,
		UpdateQueue:    *updateQueue,
		DefaultTimeout: *timeout,
		DegradeAfter:   *degradeAfter,
		CacheCap:       *cacheCap,
		TraceAll:       *traceAll,
	})
	if err != nil {
		fail(err)
	}

	// The standalone metrics server reports the same readiness as the API.
	obs.SetReadyHook(srv.Ready)
	for _, m := range []struct {
		addr  string
		pprof bool
	}{{*metricsAddr, false}, {*pprofAddr, true}} {
		if m.addr == "" {
			continue
		}
		bound, err := obs.StartServer(m.addr, m.pprof)
		if err != nil {
			fail(err)
		}
		olog.Info(nil, "serving metrics", "url", "http://"+bound+"/metrics")
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		fail(err)
	}
	olog.Info(nil, "serving", "url", "http://"+bound, "advisor", trainer.Name(), "model_version", srv.Version())

	// Run until SIGINT/SIGTERM or a POST /drain, then drain gracefully:
	// stop admitting, finish in-flight work, persist, exit 0.
	ctx, stopSignals := cli.InterruptContext()
	defer stopSignals()
	select {
	case <-ctx.Done():
		olog.Info(nil, "signal received, draining")
	case <-srv.DrainRequested():
		olog.Info(nil, "drain requested, draining")
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fail(err)
	}
	if *reportPath != "" {
		// The report carries the metric snapshot plus every retained flight
		// trace — the post-incident forensics artifact.
		if err := obs.Default.BuildReport("advisord", nil).WriteFile(*reportPath); err != nil {
			fail(err)
		}
		olog.Info(nil, "report written", "path", *reportPath)
	}
	olog.Info(nil, "drained")
}
