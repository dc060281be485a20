package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/advisor"
	"repro/internal/defense"
	"repro/internal/defense/trim"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/pipa"
	"repro/internal/workload"
)

// DefenseArms lists the sweep's defense configurations, in report order:
// no defense, each single defense, the canary guard alone, and the full
// sanitizer+trim+guard stack.
func DefenseArms() []string {
	return []string{"unguarded", "sanitizer", "trim", "guard", "stacked"}
}

// DefenseInjectors is the default attack line-up: the random-injection
// reference (FSM) and the full opaque-box attack (PIPA), the pair RD is
// defined over.
func DefenseInjectors() []string { return []string{"FSM", "PIPA"} }

// defenseCell is the journaled result of one (injector, rate, run) cell: one
// victim per arm walked through an identical poisoning timeline. Maps are
// keyed by arm name; encoding/json sorts map keys, so journaled cells decode
// byte-identically.
type defenseCell struct {
	AD        map[string]float64 // degradation vs the cell's trained base
	Dropped   map[string]int     // update-batch queries dropped by the arm's screener
	CleanFP   map[string]int     // drops when screening the held-out canary (false positives)
	Commits   map[string]uint64  // guarded arms only
	Rollbacks map[string]uint64
}

// DefensePoint aggregates one (injector, rate) rung across runs.
type DefensePoint struct {
	Injector string
	Rate     float64
	AD       map[string]Stats
	Dropped  map[string]int
	CleanFP  map[string]int
	Commits  map[string]uint64
	Rollback map[string]uint64
}

// DefenseSweepResult is the full ablation grid plus the per-arm RD curves.
type DefenseSweepResult struct {
	Setup     string
	Advisor   string
	Budget    float64
	Epochs    int
	Arms      []string
	Injectors []string
	Rates     []float64
	Points    []DefensePoint // injector-major, rate-minor

	// RD maps each arm to its per-rate relative degradation,
	// mean AD(PIPA) − mean AD(FSM), when both injectors ran.
	RD map[string][]float64
}

// RunDefenseSweep runs the defense-family ablation the ROADMAP asks for: the
// poison-rate ladder × defense arms × attack injectors, against one advisor.
// Every cell trains one victim, builds one injection against it, then walks
// five identically-seeded copies through the same update timeline — blind
// retraining, sanitizer screening, TRIM robust retraining, the canary-gated
// guard, and the sanitizer+trim+guard stack — and reports each arm's AD,
// screening drops, and clean-traffic false positives (the screener replayed
// over the held-out canary). Cells derive every RNG from (Seed, injector,
// rate, run) and own their advisors, trainers and screeners, so results are
// byte-identical at any Workers width; completed cells journal for
// kill-and-resume.
func RunDefenseSweep(ctx context.Context, s *Setup, advisorName string, rates []float64, injectors []string) (*DefenseSweepResult, error) {
	if rates == nil {
		rates = GuardRates()
	}
	if injectors == nil {
		injectors = DefenseInjectors()
	}
	res := &DefenseSweepResult{
		Setup: s.Name, Advisor: advisorName, Budget: s.GuardBudget, Epochs: s.GuardEpochs,
		Arms: DefenseArms(), Injectors: injectors, Rates: rates,
	}
	nRuns := s.Runs
	st := s.Tester()

	cells, err := par.MapCtx(ctx, s.pool("defensesweep"), len(injectors)*len(rates)*nRuns,
		func(ctx context.Context, i int) (defenseCell, error) {
			ii := i / (len(rates) * nRuns)
			ri := i / nRuns % len(rates)
			run := i % nRuns
			key := fmt.Sprintf("defensesweep/%s/%s/rate=%g/run=%d", advisorName, injectors[ii], rates[ri], run)
			return journaled(s, key, func() (defenseCell, error) {
				return s.runDefenseCell(ctx, st, advisorName, injectors[ii], rates[ri], run, int64(ii))
			})
		})
	if err != nil {
		return nil, err
	}

	for ii, inj := range injectors {
		for ri, rate := range rates {
			p := DefensePoint{
				Injector: inj, Rate: rate,
				AD:      make(map[string]Stats),
				Dropped: make(map[string]int), CleanFP: make(map[string]int),
				Commits: make(map[string]uint64), Rollback: make(map[string]uint64),
			}
			for _, arm := range res.Arms {
				ads := make([]float64, nRuns)
				for run := 0; run < nRuns; run++ {
					c := cells[(ii*len(rates)+ri)*nRuns+run]
					ads[run] = c.AD[arm]
					p.Dropped[arm] += c.Dropped[arm]
					p.CleanFP[arm] += c.CleanFP[arm]
					p.Commits[arm] += c.Commits[arm]
					p.Rollback[arm] += c.Rollbacks[arm]
				}
				p.AD[arm] = NewStats(ads)
			}
			res.Points = append(res.Points, p)
		}
	}

	// RD needs both the attack and the random-injection reference.
	fi, pi := -1, -1
	for i, inj := range injectors {
		switch inj {
		case "FSM":
			fi = i
		case "PIPA":
			pi = i
		}
	}
	if fi >= 0 && pi >= 0 {
		res.RD = make(map[string][]float64)
		for _, arm := range res.Arms {
			rd := make([]float64, len(rates))
			for ri := range rates {
				rd[ri] = res.Points[pi*len(rates)+ri].AD[arm].Mean - res.Points[fi*len(rates)+ri].AD[arm].Mean
			}
			res.RD[arm] = rd
		}
	}
	return res, nil
}

// runDefenseCell walks every defense arm through one cell's timeline.
func (s *Setup) runDefenseCell(ctx context.Context, st *pipa.StressTester, advisorName, injName string, rate float64, run int, injIdx int64) (defenseCell, error) {
	c := defenseCell{
		AD:      make(map[string]float64),
		Dropped: make(map[string]int), CleanFP: make(map[string]int),
		Commits: make(map[string]uint64), Rollbacks: make(map[string]uint64),
	}
	w := s.NormalWorkload(run)
	canary := s.CanaryWorkload(run)

	base, err := s.trainAdvisor(ctx, advisorName, run, w)
	if err != nil {
		return c, err
	}
	baseCost := s.WhatIf.WorkloadCost(w.Queries, w.Freqs, base.Recommend(w))

	// One injection per cell, probed against the base copy before any arm
	// forks from it; every arm then sees the rate's share of the same Ŵ.
	tw := injectorByName(st, injName).BuildInjection(ctx, base, s.PipaCfg.Na)
	toxic := workloadHead(tw, int(rate*float64(tw.Len())+0.5))

	// Trim seeds mix the cell coordinates so no two cells share a subset
	// stream, yet reruns of a cell are exact.
	trimSeed := s.Seed*1_000_003 + injIdx*900_001 + int64(rate*1000)*9_001 + int64(run)

	for _, arm := range DefenseArms() {
		victim, err := s.cloneOrRetrain(base, advisorName, run, w)
		if err != nil {
			return c, err
		}
		screener, err := armScreener(arm, victim, s, w, trimSeed)
		if err != nil {
			return c, err
		}
		counted := screener
		if screener != nil {
			counted = &countingScreener{Screener: screener}
		}

		recommend := victim.Recommend
		switch arm {
		case "guard", "stacked":
			gt, err := guard.NewTrainer(victim, guard.Config{
				Budget: s.GuardBudget, Canary: canary, Eval: s.WhatIf, Screener: counted,
			})
			if err != nil {
				return c, err
			}
			for epoch := 0; epoch < s.GuardEpochs; epoch++ {
				gt.Retrain(w.Merge(toxic))
			}
			gst := gt.Stats()
			c.Commits[arm], c.Rollbacks[arm] = gst.Commits, gst.Rollbacks
			recommend = gt.Recommend
		default:
			for epoch := 0; epoch < s.GuardEpochs; epoch++ {
				batch := w.Merge(toxic)
				if counted != nil {
					batch, _ = counted.Screen(batch)
				}
				if batch.Len() > 0 {
					victim.Retrain(batch)
				}
			}
		}
		c.AD[arm] = ad(s.WhatIf.WorkloadCost(w.Queries, w.Freqs, recommend(w)), baseCost)
		if screener != nil {
			c.Dropped[arm] = counted.(*countingScreener).dropped
			// Collateral damage: replay the screener over the held-out
			// canary, which is clean by construction, so every drop is a
			// false positive. The unwrapped screener keeps this probe out of
			// the timeline drop count.
			c.CleanFP[arm] = defense.ScreenCleanWith(screener, canary).Dropped
		}
	}

	// A cancelled cell is truncated: fail it so it is never journaled.
	if err := ctx.Err(); err != nil {
		return c, err
	}
	return c, nil
}

// armScreener builds the defense arm's screener over the victim it protects;
// unguarded and guard-only arms screen nothing.
func armScreener(arm string, victim advisor.Advisor, s *Setup, w *workload.Workload, seed int64) (defense.Screener, error) {
	switch arm {
	case "sanitizer":
		return defense.NewSanitizer(s.WhatIf, w), nil
	case "trim":
		snap, ok := victim.(advisor.Snapshottable)
		if !ok {
			return nil, fmt.Errorf("experiments: advisor %s is not snapshottable; the trim arm needs byte-exact restore", victim.Name())
		}
		return trim.New(snap, s.WhatIf, trim.Config{Seed: seed, Reference: w}), nil
	case "stacked":
		snap, ok := victim.(advisor.Snapshottable)
		if !ok {
			return nil, fmt.Errorf("experiments: advisor %s is not snapshottable; the stacked arm needs byte-exact restore", victim.Name())
		}
		return defense.NewChain(
			defense.NewSanitizer(s.WhatIf, w),
			trim.New(snap, s.WhatIf, trim.Config{Seed: seed, Reference: w}),
		), nil
	default:
		return nil, nil
	}
}

// countingScreener wraps a screener and accumulates its update-batch drops.
type countingScreener struct {
	defense.Screener
	dropped int
}

func (c *countingScreener) Screen(w *workload.Workload) (*workload.Workload, *defense.Report) {
	kept, rep := c.Screener.Screen(w)
	c.dropped += rep.Dropped
	return kept, rep
}

// String renders the grid: per injector one block of (rate, arm) rows, then
// the per-arm RD curves.
func (r *DefenseSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Defense sweep (AD per defense arm across poison rates) — %s / %s (budget %g, %d epochs) ==\n",
		r.Setup, r.Advisor, r.Budget, r.Epochs)
	for ii, inj := range r.Injectors {
		fmt.Fprintf(&b, "-- injector %s --\n", inj)
		fmt.Fprintf(&b, "%6s %10s %8s %8s %8s %8s %8s %8s\n",
			"rate", "arm", "AD", "std", "drops", "cleanFP", "commits", "rollbks")
		for ri := range r.Rates {
			p := r.Points[ii*len(r.Rates)+ri]
			for _, arm := range r.Arms {
				fmt.Fprintf(&b, "%6.2f %10s %+8.3f %8.3f %8d %8d %8d %8d\n",
					p.Rate, arm, p.AD[arm].Mean, p.AD[arm].Std,
					p.Dropped[arm], p.CleanFP[arm], p.Commits[arm], p.Rollback[arm])
			}
		}
	}
	if r.RD != nil {
		fmt.Fprintf(&b, "-- RD per arm (mean AD[PIPA] - mean AD[FSM]) --\n")
		fmt.Fprintf(&b, "%6s", "rate")
		for _, arm := range r.Arms {
			fmt.Fprintf(&b, " %10s", arm)
		}
		b.WriteString("\n")
		for ri, rate := range r.Rates {
			fmt.Fprintf(&b, "%6.2f", rate)
			for _, arm := range r.Arms {
				fmt.Fprintf(&b, " %+10.3f", r.RD[arm][ri])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
