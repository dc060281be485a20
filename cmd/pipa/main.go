// Command pipa runs one end-to-end PIPA stress test: train a learned index
// advisor on a normal workload, probe it, inject a toxic workload, retrain,
// and report the Absolute performance Degradation.
//
// Example:
//
//	pipa -benchmark tpch -sf 1 -advisor DQN-b -injector PIPA -runs 3
//
// SIGINT cancels the run grid at the next cell boundary; with -checkpoint
// set, completed runs are journaled and a rerun of the same command resumes
// where the interrupted one stopped, byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/advisor/registry"
	"repro/internal/cli"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/obs"
	olog "repro/internal/obs/log"
	"repro/internal/par"
	"repro/internal/pipa"
)

// runCell is the journaled unit of one run: the stress-test result plus the
// run's resilience telemetry, so a resumed run reprints identical output
// without recomputing the cell.
type runCell struct {
	Res    pipa.Result
	Faults cost.FaultStats

	// Guarded-run telemetry (-guard): the guard trainer's counters and the
	// outcome of the poisoned update.
	Guard        guard.Stats
	GuardOutcome string
}

func main() {
	benchmark := flag.String("benchmark", "tpch", "benchmark schema: tpch or tpcds")
	sf := flag.Float64("sf", 1, "scale factor (1 or 10 match the paper's 1GB/10GB)")
	injectorNames := experiments.AttackZooInjectors()
	advisorName := flag.String("advisor", "DQN-b", "victim advisor: "+strings.Join(registry.Names(), ", "))
	injector := flag.String("injector", "PIPA", "injection strategy: "+strings.Join(injectorNames, ", "))
	runs := flag.Int("runs", 3, "independent runs (fresh workload + training each)")
	workers := flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	full := flag.Bool("full", false, "use the paper-scale budgets (slow)")
	verbose := flag.Bool("v", false, "print per-run details")
	guardOn := flag.Bool("guard", false, "gate the victim's retrain behind a canary evaluation with automatic rollback (internal/guard)")
	guardBudget := flag.Float64("guard-budget", 0.02, "canary regression budget for -guard; updates regressing past it are rolled back")
	modelDir := flag.String("model-dir", "", "persist each guarded run's last committed snapshot under this directory (crash-safe; restarts resume from it)")
	faults := flag.Float64("faults", 0, "fault rate degrading the attacker's cost oracle (0 disables the chaos layer)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for every fault decision; fixed seed = byte-identical faults at any -workers")
	checkpoint := flag.String("checkpoint", "", "journal completed runs to this file and resume from it on restart")
	report := flag.String("report", "", "write a JSON run report (phases, traces, metrics) to this path")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /metrics.json and /report on this address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof (plus the metrics endpoints) on this address")
	logOpts := cli.RegisterLogFlags(flag.CommandLine)
	flag.Parse()

	logClose, err := logOpts.Apply("pipa")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipa:", err)
		os.Exit(2)
	}
	defer func() { _ = logClose() }()

	if !registry.Valid(*advisorName) {
		olog.Error(nil, "unknown advisor", "advisor", *advisorName, "want", strings.Join(registry.Names(), ", "))
		os.Exit(2)
	}
	if !slices.Contains(injectorNames, *injector) {
		olog.Error(nil, "unknown injector", "injector", *injector, "want", strings.Join(injectorNames, ", "))
		os.Exit(2)
	}
	if *report != "" {
		// Probe the path now: a typo'd -report should not cost a full run.
		f, err := os.Create(*report)
		if err != nil {
			olog.Error(nil, err.Error())
			os.Exit(1)
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
			olog.Error(nil, err.Error())
			os.Exit(1)
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
	setup.Runs = *runs
	setup.Workers = *workers
	setup.FaultRate = *faults
	setup.FaultSeed = *faultSeed
	setup.GuardBudget = *guardBudget

	if *checkpoint != "" {
		j, err := experiments.OpenJournal(*checkpoint)
		if err != nil {
			olog.Error(nil, err.Error())
			os.Exit(1)
		}
		defer j.Close()
		if n := j.Len(); n > 0 {
			olog.Info(nil, "resuming from checkpoint", "path", *checkpoint, "cells_done", fmt.Sprintf("%d", n))
		}
		setup.Journal = j
	}

	st := setup.Tester()
	// The whole grid runs under one trace, handed to the flight recorder when
	// it finishes; it is retained when a report or the live endpoints read it.
	if *report != "" || *metricsAddr != "" || *pprofAddr != "" {
		obs.Default.Flight.SetRecordAll(true)
	}
	tr := obs.NewTrace("experiment:pipa", nil)

	// Runs are independent (each derives its RNGs from the run index), so
	// they fan out through a pool and print in run order afterwards. Each is
	// journaled under runKey.
	results, err := par.MapCtx(obs.ContextWithSpan(ctx, tr.Root()), par.New("pipa_runs", *workers), *runs, func(ctx context.Context, run int) (runCell, error) {
		return experiments.Journaled(setup, runName(*advisorName, *injector, *guardOn, *faults, run), func() (runCell, error) {
			var c runCell
			// Under -faults the attacker's oracle is degraded per run (fresh
			// injector, breaker, virtual clock) while AD stays on the clean one.
			tester := st
			if *faults > 0 {
				tester = setup.FaultTester(*faults, int64(run))
			}
			w := setup.NormalWorkload(run)
			_, span := obs.StartSpanCtx(ctx, "train:"+*advisorName)
			ia, err := setup.TrainAdvisor(*advisorName, run, w)
			span.End()
			if err != nil {
				return c, err
			}
			// Under -guard the victim's update path goes through the canary
			// gate: the stress test's poisoned Retrain is snapshotted,
			// evaluated on the held-out canary against the clean oracle, and
			// rolled back when it regresses past the budget.
			victim := ia
			var gt *guard.Trainer
			if *guardOn {
				gcfg := guard.Config{
					Budget: setup.GuardBudget,
					Canary: setup.CanaryWorkload(run),
					Eval:   setup.WhatIf,
				}
				if *modelDir != "" {
					gcfg.ModelDir = runModelDir(*modelDir, runKey(setup, *advisorName, *injector, *guardOn, *faults, run))
				}
				gt, err = guard.NewTrainer(ia, gcfg)
				if err != nil {
					return c, err
				}
				if _, err := gt.TryRestore(); err != nil {
					return c, err
				}
				victim = gt
			}
			c.Res = tester.StressTest(ctx, victim, pipa.InjectorByName(tester, *injector), w, setup.PipaCfg.Na)
			if gt != nil {
				c.Guard = gt.Stats()
				c.GuardOutcome = gt.LastOutcome().String()
			}
			if *faults > 0 {
				c.Faults = tester.WhatIf.FaultStats()
			}
			// A cancelled cell is truncated: fail it so it is never journaled.
			return c, ctx.Err()
		})
	})
	tr.End()
	obs.Default.Flight.Observe(tr)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			olog.Warn(nil, "interrupted")
			if setup.Journal != nil {
				olog.Info(nil, "runs checkpointed; rerun the same command to resume",
					"done", fmt.Sprintf("%d", setup.Journal.Len()), "total", fmt.Sprintf("%d", *runs), "path", *checkpoint)
			}
			os.Exit(cli.ExitInterrupted)
		}
		olog.Error(nil, err.Error())
		os.Exit(2)
	}
	var ads []float64
	var fs cost.FaultStats
	var gs guard.Stats
	for run, c := range results {
		res := c.Res
		ads = append(ads, res.AD)
		if *verbose {
			fmt.Printf("run %d: baseline %v (cost %.0f)\n", run, res.BaselineIndexes, res.BaselineCost)
			fmt.Printf("       poisoned %v (cost %.0f)  AD %+.3f\n", res.PoisonedIndexes, res.PoisonedCost, res.AD)
		} else {
			fmt.Printf("run %d: AD %+.3f\n", run, res.AD)
		}
		if *guardOn {
			fmt.Printf("       guard: update %s (canary regression %+.3f, %d quarantined)\n",
				c.GuardOutcome, c.Guard.LastCanaryAD, c.Guard.Quarantined)
			gs.Commits += c.Guard.Commits
			gs.Rollbacks += c.Guard.Rollbacks
			gs.Frozen += c.Guard.Frozen
			gs.Trips += c.Guard.Trips
			gs.Quarantined += c.Guard.Quarantined
		}
		fs.Injected += c.Faults.Injected
		fs.Retries += c.Faults.Retries
		fs.Giveups += c.Faults.Giveups
		fs.Trips += c.Faults.Trips
		fs.Fallbacks += c.Faults.Fallbacks
	}
	st2 := experiments.NewStats(ads)
	fmt.Printf("\n%s vs %s on %s: mean AD %+.3f (min %+.3f, max %+.3f, std %.3f, %d runs)\n",
		*injector, *advisorName, setup.Name, st2.Mean, st2.Min, st2.Max, st2.Std, st2.N)
	if *guardOn {
		fmt.Printf("guard (budget %g): %d commits, %d rollbacks, %d frozen, %d trips, %d queries quarantined\n",
			*guardBudget, gs.Commits, gs.Rollbacks, gs.Frozen, gs.Trips, gs.Quarantined)
	}
	if *faults > 0 {
		fmt.Printf("chaos (rate %g, seed %d): %d faults injected, %d retries, %d giveups, %d breaker trips, %d fallback costs\n",
			*faults, *faultSeed, fs.Injected, fs.Retries, fs.Giveups, fs.Trips, fs.Fallbacks)
	}

	cs := setup.WhatIf.CacheStats()
	fmt.Printf("what-if cache: %d calls, %d hits (%.1f%% hit rate)\n", cs.Calls, cs.Hits, 100*cs.HitRate())

	if *report != "" {
		labels := map[string]string{
			"advisor": *advisorName, "injector": *injector,
			"benchmark": *benchmark, "sf": fmt.Sprintf("%g", *sf),
		}
		if err := obs.Default.BuildReport("pipa", labels).WriteFile(*report); err != nil {
			olog.Error(nil, err.Error())
			os.Exit(1)
		}
		olog.Info(nil, "wrote run report", "path", *report)
	}
}

// runName names one run's coordinates: the journal cell experiments.Journaled
// files the run under, keyed by runKey.
func runName(advisorName, injector string, guard bool, faults float64, run int) string {
	return fmt.Sprintf("pipa/%s/%s/guard=%t/faults=%g/run=%d", advisorName, injector, guard, faults, run)
}

// runKey is the journal key of one run. It names the run's coordinates and,
// through Setup.CellKey, every setting the run reads, so a checkpoint written
// under another benchmark, scale, guard or fault configuration recomputes
// instead of replaying its runs under the new header.
func runKey(setup *experiments.Setup, advisorName, injector string, guard bool, faults float64, run int) string {
	return setup.CellKey(runName(advisorName, injector, guard, faults, run))
}

// runModelDir is the -model-dir directory of the run with journal key key.
// It is named after the key, as the defended timelines name theirs, so a
// rerun under another configuration starts from scratch instead of
// restoring the other configuration's model.
func runModelDir(root, key string) string {
	return filepath.Join(root, strings.ReplaceAll(key, "/", "_"))
}
