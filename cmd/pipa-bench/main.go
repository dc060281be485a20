// Command pipa-bench regenerates any table or figure of the paper's
// evaluation section; see DESIGN.md's experiment index for the mapping.
//
// Example:
//
//	pipa-bench -exp fig7 -benchmark tpch -sf 1
//	pipa-bench -exp table3
//	pipa-bench -exp fig1 -report /tmp/fig1.json
//	pipa-bench -exp faultsweep -faults 0.4   # AD/RD degradation vs fault rate
//	pipa-bench -exp guardsweep               # guarded vs unguarded AD across poison rates
//	pipa-bench -exp defensesweep -advisors DBAbandit-b,Heuristic   # AD per defense arm
//	pipa-bench -exp attackzoo -injectors FSM,PIPA,ADAPT            # defense arms vs attack families
//	pipa-bench -exp all -full        # paper-scale budgets; hours
//
// SIGINT cancels the experiment grid at the next cell boundary; with
// -checkpoint set, completed cells are journaled and a rerun of the same
// command resumes from them byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/advisor/registry"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
)

// experimentIDs maps every accepted -exp value to the experiments it runs;
// aliases (fig7/table1, fig9/table2) share a runner.
var experimentIDs = []string{
	"fig1", "fig7", "table1", "fig8", "fig9", "table2",
	"fig10", "fig11", "fig12", "table3", "faultsweep", "guardsweep",
	"defensesweep", "attackzoo", "all",
}

func validExp(id string) bool {
	for _, k := range experimentIDs {
		if id == k {
			return true
		}
	}
	return false
}

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experimentIDs, ", "))
	benchmark := flag.String("benchmark", "tpch", "benchmark schema: tpch or tpcds")
	sf := flag.Float64("sf", 1, "scale factor")
	full := flag.Bool("full", false, "paper-scale budgets (10 runs, 400 trajectories, P=20)")
	workers := flag.Int("workers", 0, "parallel experiment cells (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	advisors := flag.String("advisors", strings.Join(registry.PaperAdvisors, ","), "comma-separated advisor list for fig7/table1")
	guardBudget := flag.Float64("guard-budget", 0.02, "canary regression budget of every guarded arm (guardsweep, defensesweep, attackzoo)")
	injectors := flag.String("injectors", "", "comma-separated attack-zoo injector list for -exp attackzoo (default: the full registry)")
	attack := flag.String("attack", "", "attack-zoo injector the guardsweep/faultsweep ladders run instead of PIPA")
	indexBudget := flag.Int("index-budget", 0, "override the advisors' index budget B (0 = the scale's default; the paper uses 4)")
	faults := flag.Float64("faults", 0, "fault-rate ceiling for the faultsweep ladder (0 = default ladder for -exp faultsweep, skip it under -exp all)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for every fault decision; fixed seed = byte-identical sweeps at any -workers")
	checkpoint := flag.String("checkpoint", "", "journal completed experiment cells to this file and resume from it on restart")
	report := flag.String("report", "", "write a JSON run report (phases, traces, metrics) to this path")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /metrics.json and /report on this address (e.g. :8080)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (plus the metrics endpoints) on this address")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		olog.Error(nil, err.Error())
		os.Exit(1)
	}

	logClose, err := logOpts.Apply("pipa-bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipa-bench:", err)
		os.Exit(2)
	}
	defer func() { _ = logClose() }()

	// Validate flags before any training starts: a typo in -exp or -advisors
	// should fail in milliseconds, not after minutes of setup.
	if !validExp(*exp) {
		olog.Error(nil, "unknown experiment", "exp", *exp, "want", strings.Join(experimentIDs, ", "))
		os.Exit(2)
	}
	advisorList := strings.Split(*advisors, ",")
	for i, name := range advisorList {
		advisorList[i] = strings.TrimSpace(name)
		if !registry.Valid(advisorList[i]) {
			olog.Error(nil, "unknown advisor", "advisor", advisorList[i], "want", strings.Join(registry.Names(), ", "))
			os.Exit(2)
		}
	}
	zooNames := experiments.AttackZooInjectors()
	var injectorList []string
	if *injectors != "" {
		injectorList = strings.Split(*injectors, ",")
		for i, name := range injectorList {
			injectorList[i] = strings.TrimSpace(name)
			if !slices.Contains(zooNames, injectorList[i]) {
				olog.Error(nil, "unknown injector", "injector", injectorList[i], "want", strings.Join(zooNames, ", "))
				os.Exit(2)
			}
		}
	}
	if *attack != "" && !slices.Contains(zooNames, *attack) {
		olog.Error(nil, "unknown attack injector", "attack", *attack, "want", strings.Join(zooNames, ", "))
		os.Exit(2)
	}

	if *report != "" {
		// Probe the path now: a typo'd -report should not cost a full run.
		f, err := os.Create(*report)
		if err != nil {
			fail(err)
		}
		f.Close()
	}

	for _, srv := range []struct {
		addr  string
		pprof bool
	}{{*metricsAddr, false}, {*pprofAddr, true}} {
		if srv.addr == "" {
			continue
		}
		bound, err := obs.StartServer(srv.addr, srv.pprof)
		if err != nil {
			fail(err)
		}
		olog.Info(nil, "serving metrics", "url", "http://"+bound+"/metrics")
	}

	// SIGINT/SIGTERM cancel the grid at the next cell boundary. A second
	// signal kills the process via the default handler (stop() reinstalls it).
	ctx, stop := cli.InterruptContext()
	defer stop()

	scale := experiments.ScaleFast
	if *full {
		scale = experiments.ScaleFull
	}
	setup := experiments.NewSetup(*benchmark, *sf, scale)
	setup.Workers = *workers
	setup.FaultRate = *faults
	setup.FaultSeed = *faultSeed
	setup.GuardBudget = *guardBudget
	setup.Attack = *attack
	if *indexBudget > 0 {
		setup.AdvCfg.Budget = *indexBudget
	}

	if *checkpoint != "" {
		j, err := experiments.OpenJournal(*checkpoint)
		if err != nil {
			fail(err)
		}
		defer j.Close()
		if n := j.Len(); n > 0 {
			olog.Info(nil, "resuming from checkpoint", "path", *checkpoint, "cells_done", fmt.Sprintf("%d", n))
		}
		setup.Journal = j
	}

	// Each experiment runs under its own trace; the finished trace goes to
	// the flight recorder, which retains it when a report or the live
	// endpoints will read it.
	if *report != "" || *metricsAddr != "" || *pprofAddr != "" {
		obs.Default.Flight.SetRecordAll(true)
	}
	want := func(id string) bool { return *exp == "all" || *exp == id }
	run := func(id string, f func(ctx context.Context) (fmt.Stringer, error)) {
		tr := obs.NewTrace("experiment:"+id, nil)
		r, err := f(obs.ContextWithSpan(ctx, tr.Root()))
		tr.End()
		obs.Default.Flight.Observe(tr)
		if errors.Is(err, context.Canceled) {
			olog.Warn(nil, "interrupted")
			if setup.Journal != nil {
				olog.Info(nil, "cells checkpointed; rerun the same command to resume",
					"done", fmt.Sprintf("%d", setup.Journal.Len()), "path", *checkpoint)
			}
			os.Exit(cli.ExitInterrupted)
		}
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}

	if want("fig1") {
		run("fig1", func(ctx context.Context) (fmt.Stringer, error) { return experiments.RunMotivation(ctx, setup) })
	}
	if want("fig7") || want("table1") {
		run("fig7", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunMainResult(ctx, setup, advisorList)
		})
	}
	if want("fig8") {
		run("fig8", func(ctx context.Context) (fmt.Stringer, error) { return experiments.RunCaseStudies(ctx, setup) })
	}
	if want("fig9") || want("table2") {
		omegas := []float64{0.01, 0.1, 1, 10, 100}
		na := 180
		if !*full {
			na = 36
		}
		run("fig9", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunInjectionSize(ctx, setup, advisorList, omegas, na)
		})
	}
	if want("fig10") {
		run("fig10", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunBoundaries(ctx, setup, "DQN-b",
				[]int{2, 3, 4, 5, 6, 7},
				[]float64{1.0 / 8, 1.0 / 4, 3.0 / 8, 1.0 / 2, 3.0 / 4, 7.0 / 8})
		})
	}
	if want("fig11") {
		run("fig11", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunProbingEpochs(ctx, setup, []string{"DQN-b", "SWIRL"}, []int{0, 2, 4, 8, 12, 16, 20})
		})
	}
	if want("fig12") {
		n := float64(setup.Schema.NumColumns())
		betas := []float64{0, 1 / (20 + n), 1 / (10 + n), 1 / (5 + n), 1 / (2 + n), 1 / (4.0/3 + n)}
		run("fig12", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunProbingParams(ctx, setup, "DQN-b",
				[]float64{0.01, 0.05, 0.1, 0.5, 1, 10}, betas)
		})
	}
	// The degradation sweep runs when asked for directly; under -exp all it
	// is included only when -faults sets a ladder ceiling, so the default
	// "all" stays fault-free.
	if *exp == "faultsweep" || (*exp == "all" && *faults > 0) {
		run("faultsweep", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunFaultSweep(ctx, setup, advisorList[0], nil)
		})
	}
	// The guarded-vs-unguarded sweep also runs only when asked for directly:
	// it replays GuardEpochs updates per cell on top of the usual training, so
	// the default "all" stays at the paper's original protocol.
	if *exp == "guardsweep" {
		run("guardsweep", func(ctx context.Context) (fmt.Stringer, error) {
			return experiments.RunGuardSweep(ctx, setup, advisorList[0], nil)
		})
	}
	// The defense-family ablation compares every screening strategy and the
	// guard on the same timeline; like the guard sweep it runs only when asked
	// for directly. It sweeps every advisor in -advisors (the issue's "one RL
	// victim + heuristic" pairing is `-advisors DBAbandit-b,Heuristic`).
	if *exp == "defensesweep" {
		for _, name := range advisorList {
			name := name
			run("defensesweep:"+name, func(ctx context.Context) (fmt.Stringer, error) {
				return experiments.RunDefenseSweep(ctx, setup, name, nil, nil)
			})
		}
	}
	// The attack zoo grades every registered attack family (paper line-up,
	// openGauss ablations, OOD pair, adaptive guard-aware) against every
	// defense arm; it runs only when asked for directly — the grid is 6x the
	// defense sweep's injector axis.
	if *exp == "attackzoo" {
		for _, name := range advisorList {
			name := name
			run("attackzoo:"+name, func(ctx context.Context) (fmt.Stringer, error) {
				return experiments.RunAttackZoo(ctx, setup, name, nil, injectorList)
			})
		}
	}
	if want("table3") {
		n := 200
		if *full {
			n = 1000 // the paper's N
		}
		run("table3", func(ctx context.Context) (fmt.Stringer, error) { return experiments.RunGeneratorQuality(ctx, setup, n) })
	}

	printCacheStats(setup, os.Stdout)

	if *report != "" {
		labels := map[string]string{
			"exp":       *exp,
			"benchmark": *benchmark,
			"sf":        fmt.Sprintf("%g", *sf),
			"advisors":  strings.Join(advisorList, ","),
		}
		if err := obs.Default.BuildReport("pipa-bench", labels).WriteFile(*report); err != nil {
			fail(err)
		}
		olog.Info(nil, "wrote run report", "path", *report)
	}
}

// printCacheStats summarizes the what-if cache and plan-decision telemetry at
// the end of every run; the cache hit rate is the single best indicator of
// how much the memoization layer is saving.
func printCacheStats(setup *experiments.Setup, out io.Writer) {
	st := setup.WhatIf.CacheStats()
	fmt.Fprintf(out, "\nwhat-if cache: %d calls, %d hits (%.1f%% hit rate), %d entries\n",
		st.Calls, st.Hits, 100*st.HitRate(), st.Entries)

	counters := obs.Default.Metrics.Snapshot().Counters
	var keys []string
	for k := range counters {
		if strings.HasPrefix(k, "cost_plan_access_total{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		kind := strings.TrimSuffix(strings.TrimPrefix(k, `cost_plan_access_total{kind="`), `"}`)
		parts = append(parts, fmt.Sprintf("%s %d", kind, counters[k]))
	}
	if len(parts) > 0 {
		fmt.Fprintf(out, "plan access paths: %s\n", strings.Join(parts, ", "))
	}
}
