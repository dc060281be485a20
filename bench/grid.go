package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/pipa"
)

const (
	opGrid       = "grid"
	opGridTraced = "grid-traced"
)

// gridAdvisors are the paper-grid victims: both NN families the repository
// implements (Q-learning and PPO) plus the bandit.
var gridAdvisors = []string{"DQN-b", "DBAbandit-b", "SWIRL"}

// gridSizes scales the paper-grid workload; tests shrink it.
type gridSizes struct {
	scale     experiments.Scale
	runs      int
	setupReps int
}

// defaultGrid is `pipa-bench -exp fig7` as it runs: ScaleFast budgets and
// three runs per advisor, about 35 s a grid on two cores, so a run measures
// one grid. Three runs also make the grid's what-if cache, and so the heap,
// the union of three seed-generated workloads rather than one, which keeps it
// from following a single workload draw.
var defaultGrid = gridSizes{scale: experiments.ScaleFast, runs: 3, setupReps: 3}

// newGridSetup builds the Setup `pipa-bench -exp fig7` builds, with the seed
// and run count of this workload and one worker per GOMAXPROCS.
func newGridSetup(seed int64, sz gridSizes) *experiments.Setup {
	s := experiments.NewSetup("tpch", 1, sz.scale)
	s.Seed = seed
	s.Runs = sz.runs
	s.Workers = runtime.GOMAXPROCS(0)
	return s
}

// runPaperGrid runs whole Fig. 7 grids back to back until the run length is
// spent, each on a fresh Setup so its what-if cache starts cold, as in every
// pipa-bench process. Untraced grids go through experiments.RunMainResult;
// a traced run alternates them with tracedGrid, whose table must match.
func runPaperGrid(ctx context.Context, o runOpts, sz gridSizes) (*outcome, error) {
	out := newOutcome(opGrid, 1)
	out.load = loadInfo{Clients: map[string]int{opGrid: 1}, Loop: "closed", RunS: o.duration.Seconds(),
		Warmup: "none: each grid starts from a fresh Setup"}
	var spent time.Duration
	for i := 0; i < maxSetupReps && (i < sz.setupReps || spent < minSetup); i++ {
		runtime.GC()
		t := time.Now()
		newGridSetup(o.seed, sz)
		spent += time.Since(t)
		out.setup = append(out.setup, time.Since(t))
	}
	out.load.SetupReps = len(out.setup)

	var li *layerInputs
	if o.traced {
		li = newLayerInputs()
		li.procs = runtime.GOMAXPROCS(0)
		li.workers = runtime.GOMAXPROCS(0)
	}
	var tables []string
	var last *experiments.Setup
	start := time.Now()
	for i := 0; ; i++ {
		s := newGridSetup(o.seed, sz)
		traced := o.traced && i%2 == 1
		t := time.Now()
		var res *experiments.MainResult
		var err error
		if traced {
			before := counterSnapshot()
			var cells []*tracer
			o.on.Store(true)
			res, cells, err = tracedGrid(ctx, s, o.on)
			o.on.Store(false)
			d := time.Since(t)
			addDeltas(li.deltas, before, counterSnapshot())
			li.foldTracers("cell", cells)
			for _, c := range cells {
				out.traces = append(out.traces, c.tr)
			}
			li.window += d
			li.gridWall += d
			li.fgOps++
			li.whatifEntries = s.WhatIf.CacheStats().Entries
		} else {
			res, err = experiments.RunMainResult(ctx, s, gridAdvisors)
		}
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("paper-grid: %w", err)
		}
		kind := opGrid
		if traced {
			kind = opGridTraced
		}
		op := out.op(kind)
		op.attempted++
		op.lat = append(op.lat, d)
		out.check("grid has every cell with a finite AD per run", gridComplete(res, sz.runs), "grid %d", i)
		tables = append(tables, res.String())
		last = s
		if time.Since(start) >= o.duration && (!o.traced || i >= 1) {
			break
		}
	}
	out.elapsed = time.Since(start)
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(last) // the last grid's Setup and what-if cache count toward the live heap

	for i, tb := range tables[1:] {
		out.check("every grid renders grid 0's table, traced or not", tb == tables[0], "grid %d:\n%s\nvs\n%s", i+1, tb, tables[0])
	}
	out.outputs["table"] = tables[0]
	if want, ok := golden(fmt.Sprintf("paper-grid-seed%d.txt", o.seed)); ok {
		out.check("table equals golden", tables[0] == want, "got\n%s\nwant\n%s", tables[0], want)
		out.verified = "golden"
	}
	if o.traced {
		untraced, traced := out.ops[opGrid], out.ops[opGridTraced]
		li.overhead = ratio(ms(median(traced.lat)), ms(median(untraced.lat))) - 1
		out.layers = li
	}
	return out, nil
}

// gridComplete reports whether a grid has every (advisor, injector) cell with
// one finite AD per run.
func gridComplete(r *experiments.MainResult, runs int) bool {
	if len(r.Cells) != len(gridAdvisors)*6 {
		return false
	}
	for _, c := range r.Cells {
		if len(c.ADs) != runs {
			return false
		}
		for _, ad := range c.ADs {
			if math.IsNaN(ad) || math.IsInf(ad, 0) {
				return false
			}
		}
	}
	return true
}

// tracedGrid is experiments.RunMainResult with every victim and injector
// decorated: the same (run, advisor) cells through a par pool, each training
// its base advisor with Setup.TrainAdvisor and stress-testing a clone per
// paper injector, assembled into the same MainResult. It returns one tracer
// per cell.
func tracedGrid(ctx context.Context, s *experiments.Setup, on *atomic.Bool) (*experiments.MainResult, []*tracer, error) {
	st := s.Tester()
	injectors := pipa.PaperInjectors(st)
	nAdv := len(gridAdvisors)
	cells := make([]*tracer, s.Runs*nAdv)
	for i := range cells {
		cells[i] = newTracer(spanCell, on)
	}
	rows, err := par.MapCtx(ctx, par.New("bench-mainresult", s.Workers), len(cells), func(ctx context.Context, i int) ([]float64, error) {
		run, name, t := i/nAdv, gridAdvisors[i%nAdv], cells[i]
		defer t.start(spanCell)()
		w := s.NormalWorkload(run)
		end := t.start(spanTrain)
		base, err := s.TrainAdvisor(name, run, w)
		end()
		if err != nil {
			return nil, err
		}
		tb, err := traceAdvisor(base, t)
		if err != nil {
			return nil, err
		}
		ads := make([]float64, len(injectors))
		for k, inj := range injectors {
			victim := tb.CloneAdvisor()
			end := t.start(spanStress)
			ads[k] = st.StressTest(ctx, victim, tracedInjector{inner: inj, t: t}, w, s.PipaCfg.Na).AD
			end()
		}
		return ads, ctx.Err()
	})
	if err != nil {
		return nil, nil, err
	}

	res := &experiments.MainResult{Setup: s.Name, RD: make(map[string]float64), Advisors: gridAdvisors}
	for ai, name := range gridAdvisors {
		var pipaADs, fsmADs []float64
		for k, inj := range injectors {
			c := experiments.MainCell{Advisor: name, Injector: inj.Name()}
			for run := 0; run < s.Runs; run++ {
				c.ADs = append(c.ADs, rows[run*nAdv+ai][k])
			}
			c.Stats = experiments.NewStats(c.ADs)
			res.Cells = append(res.Cells, c)
			switch inj.Name() {
			case "PIPA":
				pipaADs = c.ADs
			case "FSM":
				fsmADs = c.ADs
			}
		}
		rd := 0.0
		for i := range pipaADs {
			rd += pipaADs[i] - fsmADs[i]
		}
		res.RD[name] = rd / float64(len(pipaADs))
	}
	return res, cells, nil
}
