// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6), mapped in DESIGN.md's experiment index. Every
// driver is deterministic given its Setup and returns a printable result
// that cmd/pipa-bench renders as the paper's rows/series.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// Scale selects the experiment budget.
type Scale int

const (
	// ScaleTiny runs in seconds: unit tests and smoke benches.
	ScaleTiny Scale = iota
	// ScaleFast is sized for CI and `go test -bench`: fewer runs, smaller
	// training budgets, single-digit-minute wall clock.
	ScaleFast
	// ScaleFull approaches the paper's setting (10 runs, 400 trajectories,
	// P = 20); hours of wall clock on one machine.
	ScaleFull
)

// Setup bundles one benchmark instance and all experiment knobs.
type Setup struct {
	Name   string // e.g. "TPC-H 1GB"
	Schema *catalog.Schema
	WhatIf *cost.WhatIf
	Env    *advisor.Env
	Gen    *qgen.IABART

	AdvCfg    advisor.Config
	PipaCfg   pipa.Config
	Runs      int
	WorkloadN int
	Seed      int64

	// Workers caps the experiment-level parallelism of every driver: each
	// independent (run, advisor, injector) or sweep-point cell fans out
	// through an internal/par pool of this width. 0 selects GOMAXPROCS, 1
	// forces the serial path. Results are byte-identical at any setting —
	// every cell derives its RNG from (Seed, run, name) and owns its advisor
	// instances, so only wall-clock changes (DESIGN.md §7).
	Workers int

	// FaultRate, when positive, degrades the attacker's cost oracle in
	// fault-aware drivers (RunFaultSweep reads it as its ladder ceiling);
	// FaultSeed drives every injection decision so degraded runs stay
	// deterministic at any worker width (DESIGN.md §8).
	FaultRate float64
	FaultSeed int64

	// GuardBudget is the canary regression budget of every guarded arm of
	// the defended-timeline sweeps (RunGuardSweep, RunDefenseSweep,
	// RunAttackZoo): an update whose held-out canary cost regresses past it
	// is rolled back. GuardEpochs is how many update batches the timeline
	// replays per cell.
	GuardBudget float64
	GuardEpochs int

	// ModelDir, when non-empty, is where the guard arm (canary gate, no
	// screener) of every defended-timeline sweep persists its last committed
	// snapshot, one subdirectory per cell, so a killed run resumes mid-cell
	// from the last good model. Screened arms do not persist.
	ModelDir string

	// Journal, when non-nil, checkpoints completed experiment cells so a
	// cancelled grid resumes without recomputing them.
	Journal *Journal

	// Attack, when non-empty, selects which attack-zoo injector the
	// single-attack sweeps (RunGuardSweep, the attack side of RunFaultSweep)
	// use instead of PIPA — any name in pipa.Injectors. Journal keys include
	// it (CellKey), so ladders for different attacks coexist in one journal.
	Attack string
}

// AttackName returns the configured single-attack injector, defaulting to
// the paper's PIPA.
func (s *Setup) AttackName() string {
	if s.Attack == "" {
		return "PIPA"
	}
	return s.Attack
}

// CellKey is the journal key of one experiment cell: its coordinates plus a
// digest of every Setup setting a cell reads — benchmark and scale budgets
// (Name, WorkloadN, AdvCfg including the index budget, PipaCfg), seeds,
// guard budget and epochs, attack and fault seed — so a journal or model dir
// written under other settings recomputes instead of replaying stale cells.
// Every journal key goes through it, cmd/pipa's per-run keys included.
func (s *Setup) CellKey(cell string) string {
	adv := s.AdvCfg
	adv.Trace = nil // a func prints as its address
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%+v|%+v|%g|%d|%s|%d", s.Name, s.Seed, s.WorkloadN, adv, s.PipaCfg,
		s.GuardBudget, s.GuardEpochs, s.AttackName(), s.FaultSeed)
	return fmt.Sprintf("%s@%016x", cell, h.Sum64())
}

// NewSetup prepares a benchmark instance. benchmark is "tpch" or "tpcds";
// sf 1 or 10 matches the paper's "1GB"/"10GB" labels.
func NewSetup(benchmark string, sf float64, scale Scale) *Setup {
	var s *catalog.Schema
	switch benchmark {
	case "tpch":
		s = catalog.TPCH(sf)
	case "tpcds":
		s = catalog.TPCDS(sf)
	default:
		panic(fmt.Sprintf("experiments: unknown benchmark %q", benchmark))
	}
	w := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, w)

	acfg := advisor.DefaultConfig()
	pcfg := pipa.DefaultConfig(s)
	opts := qgen.DefaultOptions()
	runs := 3
	switch scale {
	case ScaleTiny:
		acfg.Trajectories = 25
		acfg.InferTrajectories = 8
		acfg.Hidden = 32
		pcfg.P = 4
		pcfg.Np = 6
		pcfg.Na = 8
		opts.CorpusSize = 60
		opts.MaxAttempts = 5
		runs = 2
	case ScaleFast:
		acfg.Trajectories = 200
		acfg.InferTrajectories = 40
		pcfg.P = 10
		opts.CorpusSize = 150
	case ScaleFull:
		acfg.Trajectories = 400
		acfg.InferTrajectories = 400
		pcfg.P = 20
		opts.CorpusSize = 400
		runs = 10
	}
	gen := qgen.TrainIABART(qgen.NewFSM(s), w, nil, opts, 3)

	label := fmt.Sprintf("%s %dGB", map[string]string{"tpch": "TPC-H", "tpcds": "TPC-DS"}[benchmark], int(sf))
	setup := &Setup{
		Name:   label,
		Schema: s, WhatIf: w, Env: env, Gen: gen,
		AdvCfg: acfg, PipaCfg: pcfg,
		Runs: runs, WorkloadN: workload.DefaultSize(s), Seed: 1,
		GuardBudget: 0.02, GuardEpochs: 3,
	}
	if scale == ScaleTiny {
		setup.WorkloadN = 10
		setup.GuardEpochs = 2
	}
	return setup
}

// Tester builds a stress tester with the setup's PIPA configuration.
func (s *Setup) Tester() *pipa.StressTester {
	return pipa.NewStressTester(s.Schema, s.WhatIf, s.Gen, s.PipaCfg)
}

// FaultTester builds a stress tester whose attacker-side cost oracle is
// degraded by a deterministic fault injector at the given rate, while AD/RD
// measurement stays on the setup's clean oracle (the Eval split: a
// degradation curve must measure the attack degrading, not the ruler
// bending). cell disambiguates the injector seed so concurrent experiment
// cells draw independent fault streams; each call owns a fresh what-if
// cache, breaker and virtual clock, keeping stateful fault evolution
// per-cell and results byte-identical at any worker width (DESIGN.md §8).
func (s *Setup) FaultTester(rate float64, cell int64) *pipa.StressTester {
	inj := fault.New(fault.Config{
		Rate: rate,
		Seed: s.FaultSeed*1000003 + cell,
	}, fault.NewVirtualClock())
	w := cost.NewWhatIf(cost.NewModel(s.Schema))
	w.EnableFaults(inj)
	st := pipa.NewStressTester(s.Schema, w, s.Gen, s.PipaCfg)
	st.Eval = s.WhatIf
	st.Faults = inj
	return st
}

// pool builds the worker pool one driver fans its cells through, named so
// obs attributes throughput and latency per experiment phase.
func (s *Setup) pool(phase string) *par.Pool { return par.New(phase, s.Workers) }

// NormalWorkload generates the run-th normal workload.
func (s *Setup) NormalWorkload(run int) *workload.Workload {
	return s.NormalWorkloadN(run, s.WorkloadN)
}

// NormalWorkloadN generates the run-th normal workload with an explicit
// size. It never mutates the Setup, so concurrent sweep cells with different
// workload sizes stay race-free.
func (s *Setup) NormalWorkloadN(run, n int) *workload.Workload {
	rng := rand.New(rand.NewSource(s.Seed*100000 + int64(run)))
	return workload.GenerateNormal(s.Schema, workload.TemplatesFor(s.Schema), n, rng)
}

// CanaryWorkload generates the run-th held-out trusted workload: drawn from
// the same normal distribution as NormalWorkload but from a disjoint RNG
// stream, so it is statistically representative without sharing a single
// query with the training set — the canary a guarded trainer gates updates
// on must not be trainable-to.
func (s *Setup) CanaryWorkload(run int) *workload.Workload {
	rng := rand.New(rand.NewSource(s.Seed*100000 + int64(run) + 7_777_777))
	n := s.WorkloadN / 2
	if n < 4 {
		n = 4
	}
	return workload.GenerateNormal(s.Schema, workload.TemplatesFor(s.Schema), n, rng)
}

// TrainAdvisor constructs and trains the named advisor for one run.
func (s *Setup) TrainAdvisor(name string, run int, w *workload.Workload) (advisor.Advisor, error) {
	return s.trainAdvisor(context.Background(), name, run, w)
}

// trainAdvisor is TrainAdvisor recording a "train:<advisor>" span under
// ctx's active span.
func (s *Setup) trainAdvisor(ctx context.Context, name string, run int, w *workload.Workload) (advisor.Advisor, error) {
	cfg := s.AdvCfg
	cfg.Seed = s.Seed*1000 + int64(run)
	ia, err := registry.New(name, s.Env, cfg)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpanCtx(ctx, "train:"+name)
	ia.Train(w)
	span.End()
	return ia, nil
}

// adCell is the paper's AD cell (§6.2, Def. 2.5), the one place a driver
// trains a victim and poisons it: it trains the base of (advisor, run) on w,
// then stress-tests a fresh clone of that base against each injector,
// injecting na queries, so every injector attacks the same trained model and
// RD compares them run by run. Every registry advisor is an advisor.Cloner
// (the registry tests assert it). The base itself is never attacked: clones
// share none of its state and each reseeds its own RNG, so the stress tests
// are independent and fan out through the setup's pool, and a caller may
// still measure the base afterwards. A tester with a fault injector runs
// them in order instead: its breaker and virtual clock must evolve serially
// (DESIGN.md §8). A cancelled cell is truncated, not complete, so it fails
// with ctx.Err() and is never journaled or folded into a result.
func (s *Setup) adCell(ctx context.Context, st *pipa.StressTester, advisorName string, run int, w *workload.Workload, na int, injs ...pipa.Injector) (advisor.Advisor, []pipa.Result, error) {
	base, err := s.trainAdvisor(ctx, advisorName, run, w)
	if err != nil {
		return nil, nil, err
	}
	pool := s.pool("adcell")
	if st.Faults != nil {
		pool = par.New("adcell", 1)
	}
	res, err := par.MapCtx(ctx, pool, len(injs), func(ctx context.Context, i int) (pipa.Result, error) {
		return st.StressTest(ctx, base.(advisor.Cloner).CloneAdvisor(), injs[i], w, na), nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return base, res, nil
}

// Stats summarizes a sample of AD values for one box of Fig. 7.
type Stats struct {
	Mean, Min, Q1, Median, Q3, Max, Std float64
	N                                   int
}

// NewStats computes summary statistics.
func NewStats(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := Stats{N: len(s), Min: s[0], Max: s[len(s)-1]}
	for _, x := range s {
		st.Mean += x
	}
	st.Mean /= float64(len(s))
	for _, x := range s {
		d := x - st.Mean
		st.Std += d * d
	}
	st.Std = math.Sqrt(st.Std / float64(len(s)))
	st.Q1 = quantile(s, 0.25)
	st.Median = quantile(s, 0.5)
	st.Q3 = quantile(s, 0.75)
	return st
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
