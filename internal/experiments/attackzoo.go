package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/advisor"
	"repro/internal/defense"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/pipa"
	"repro/internal/workload"
)

// AttackZooArms lists the defense configurations every attack is graded
// against, in report order: no defense, the TRIM robust-retraining screen,
// the canary-gated guard, and the sanitizer+trim+guard stack.
func AttackZooArms() []string {
	return []string{"unguarded", "trim", "guard", "stacked"}
}

// AttackZooInjectors is the default attack line-up: the full registry — the
// paper's §6.2 six, the openGauss ablation family, and the adaptive
// guard-aware attacker.
func AttackZooInjectors() []string {
	names := make([]string, 0, 12)
	for _, inj := range pipa.Injectors(&pipa.StressTester{}) {
		names = append(names, inj.Name())
	}
	return names
}

// AttackZooRates is the poison-rate ladder of the zoo grid: clean control,
// half injection, full injection. Coarser than the defense sweep's ladder
// because the grid is 6x wider on the injector axis.
func AttackZooRates() []float64 { return []float64{0, 0.5, 1} }

// zooCell is the journaled result of one (injector, rate, run) cell; maps
// are keyed by arm name (encoding/json sorts map keys, so journaled cells
// decode byte-identically).
type zooCell struct {
	AD        map[string]float64 // degradation vs the cell's trained base
	Dropped   map[string]int     // update-batch queries dropped by the arm's screener
	Commits   map[string]uint64  // guarded arms only
	Rollbacks map[string]uint64
	// Quarantined counts the guarded arms' quarantine entries whose
	// provenance tag names this cell's injector — the attribution path the
	// forensics layer uses end-to-end.
	Quarantined map[string]uint64
	// Probes and Accepted are the ADAPT feedback-loop telemetry: trial
	// updates spent against the arm's sacrificial oracle and toxic queries
	// that individually survived a committed trial. Zero for fixed injectors.
	Probes   map[string]int
	Accepted map[string]int
}

// ZooPoint aggregates one (injector, rate) rung across runs.
type ZooPoint struct {
	Injector    string
	Rate        float64
	AD          map[string]Stats
	Dropped     map[string]int
	Commits     map[string]uint64
	Rollback    map[string]uint64
	Quarantined map[string]uint64
	Probes      map[string]int
	Accepted    map[string]int
}

// AttackZooResult is the zoo grid for one advisor: every registered attack
// family walked across the poison-rate ladder against every defense arm.
type AttackZooResult struct {
	Setup     string
	Advisor   string
	Budget    float64
	Epochs    int
	Arms      []string
	Injectors []string
	Rates     []float64
	Points    []ZooPoint // injector-major, rate-minor
}

// RunAttackZoo runs the defenses-under-unseen-attacks ablation: the full
// attack zoo (paper §6.2 line-up, openGauss ablation family, OOD pair, and
// the ADAPT guard-aware attacker) × the poison-rate ladder × the defense
// arms, against one advisor. Fixed injectors build one injection per cell,
// probed against the cell's base victim before the arms fork, exactly like
// the defense sweep. ADAPT instead builds per arm: it gets a sacrificial
// clone of the base wrapped in the arm's own defense as a verdict oracle,
// probes it with trial updates (budget pipa.Config.AdaptProbes), and shapes
// its injection from the reject/quarantine feedback — so each defended arm
// faces the attack tuned against that defense. Cells derive every RNG from
// (Seed, injector, rate, run) and own their advisors, trainers and
// screeners, so results are byte-identical at any Workers width; completed
// cells journal for kill-and-resume.
func RunAttackZoo(ctx context.Context, s *Setup, advisorName string, rates []float64, injectors []string) (*AttackZooResult, error) {
	if rates == nil {
		rates = AttackZooRates()
	}
	if injectors == nil {
		injectors = AttackZooInjectors()
	}
	res := &AttackZooResult{
		Setup: s.Name, Advisor: advisorName, Budget: s.GuardBudget, Epochs: s.GuardEpochs,
		Arms: AttackZooArms(), Injectors: injectors, Rates: rates,
	}
	nRuns := s.Runs
	st := s.Tester()

	cells, err := par.MapCtx(ctx, s.pool("attackzoo"), len(injectors)*len(rates)*nRuns,
		func(ctx context.Context, i int) (zooCell, error) {
			ii := i / (len(rates) * nRuns)
			ri := i / nRuns % len(rates)
			run := i % nRuns
			key := fmt.Sprintf("attackzoo/%s/%s/rate=%g/run=%d", advisorName, injectors[ii], rates[ri], run)
			return journaled(s, key, func() (zooCell, error) {
				return s.runZooCell(ctx, st, advisorName, injectors[ii], rates[ri], run, int64(ii))
			})
		})
	if err != nil {
		return nil, err
	}

	for ii, inj := range injectors {
		for ri, rate := range rates {
			p := ZooPoint{
				Injector: inj, Rate: rate,
				AD:      make(map[string]Stats),
				Dropped: make(map[string]int),
				Commits: make(map[string]uint64), Rollback: make(map[string]uint64),
				Quarantined: make(map[string]uint64),
				Probes:      make(map[string]int), Accepted: make(map[string]int),
			}
			for _, arm := range res.Arms {
				ads := make([]float64, nRuns)
				for run := 0; run < nRuns; run++ {
					c := cells[(ii*len(rates)+ri)*nRuns+run]
					ads[run] = c.AD[arm]
					p.Dropped[arm] += c.Dropped[arm]
					p.Commits[arm] += c.Commits[arm]
					p.Rollback[arm] += c.Rollbacks[arm]
					p.Quarantined[arm] += c.Quarantined[arm]
					p.Probes[arm] += c.Probes[arm]
					p.Accepted[arm] += c.Accepted[arm]
				}
				p.AD[arm] = NewStats(ads)
			}
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// runZooCell walks every defense arm through one cell's timeline.
func (s *Setup) runZooCell(ctx context.Context, st *pipa.StressTester, advisorName, injName string, rate float64, run int, injIdx int64) (zooCell, error) {
	c := zooCell{
		AD:      make(map[string]float64),
		Dropped: make(map[string]int),
		Commits: make(map[string]uint64), Rollbacks: make(map[string]uint64),
		Quarantined: make(map[string]uint64),
		Probes:      make(map[string]int), Accepted: make(map[string]int),
	}
	w := s.NormalWorkload(run)
	canary := s.CanaryWorkload(run)

	base, err := s.trainAdvisor(ctx, advisorName, run, w)
	if err != nil {
		return c, err
	}
	baseCost := s.WhatIf.WorkloadCost(w.Queries, w.Freqs, base.Recommend(w))

	adaptive := injName == "ADAPT"
	var fixedToxic *workload.Workload
	if !adaptive {
		// One injection per cell, probed against the base copy before any
		// arm forks from it; every arm then sees the rate's share of the
		// same Ŵ.
		tw := injectorByName(st, injName).BuildInjection(ctx, base, s.PipaCfg.Na)
		fixedToxic = workloadHead(tw, int(rate*float64(tw.Len())+0.5))
	}

	// Seeds mix the cell coordinates (offset so no stream collides with the
	// defense sweep's) — no two cells share a subset stream, yet reruns of a
	// cell are exact.
	trimSeed := s.Seed*1_000_003 + 77_000_017 + injIdx*900_001 + int64(rate*1000)*9_001 + int64(run)

	for _, arm := range AttackZooArms() {
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

		toxic := fixedToxic
		if adaptive {
			// The adaptive attacker tunes its injection against this arm's
			// own defense, probing a sacrificial clone so the real victim's
			// timeline stays clean until the graded injection lands.
			if rate == 0 {
				toxic = &workload.Workload{}
			} else {
				oracle, err := s.zooArmOracle(arm, base, advisorName, run, w, canary, trimSeed+500_000)
				if err != nil {
					return c, err
				}
				inj := pipa.AdaptInjector{Tester: st}
				if oracle != nil {
					// Assign only a live oracle: a typed-nil *countingOracle
					// in the interface would defeat the nil check that makes
					// ADAPT degrade to plain PIPA on the unguarded arm.
					inj.Oracle = oracle
				}
				tw := inj.BuildInjection(ctx, base, s.PipaCfg.Na)
				toxic = workloadHead(tw, int(rate*float64(tw.Len())+0.5))
				if oracle != nil {
					c.Probes[arm], c.Accepted[arm] = oracle.probes, oracle.accepted
				}
			}
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
			// Provenance: quarantine entries this timeline produces carry
			// the injector name, and the cell reports how many drops the
			// forensics layer attributes back to it.
			gt.SetProvenance(injName)
			for epoch := 0; epoch < s.GuardEpochs; epoch++ {
				gt.Retrain(w.Merge(toxic))
			}
			gst := gt.Stats()
			c.Commits[arm], c.Rollbacks[arm] = gst.Commits, gst.Rollbacks
			c.Quarantined[arm] = uint64(gt.Quarantine().BySource()[injName])
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
		}
	}

	// A cancelled cell is truncated: fail it so it is never journaled.
	if err := ctx.Err(); err != nil {
		return c, err
	}
	return c, nil
}

// countingOracle is the ADAPT attacker's handle on one arm's sacrificial
// defended pipeline, counting the trial updates and individually-accepted
// toxic queries for the cell's telemetry.
type countingOracle struct {
	try      func(w *workload.Workload) pipa.Verdict
	probes   int
	accepted int
}

func (o *countingOracle) TryUpdate(w *workload.Workload) pipa.Verdict {
	o.probes++
	v := o.try(w)
	if v.Committed() {
		o.accepted += w.Len() - len(v.Dropped)
	}
	return v
}

// zooArmOracle builds the verdict oracle the ADAPT attacker probes for one
// arm: a sacrificial clone of the cell's base victim wrapped in the same
// defense the arm itself will run, so the leaked feedback is exactly what
// the real /v1/update surface would return. The unguarded arm leaks nothing
// (nil oracle) and ADAPT degrades to plain PIPA there.
func (s *Setup) zooArmOracle(arm string, base advisor.Advisor, advisorName string, run int, w, canary *workload.Workload, trimSeed int64) (*countingOracle, error) {
	if arm == "unguarded" {
		return nil, nil
	}
	sac, err := s.cloneOrRetrain(base, advisorName, run, w)
	if err != nil {
		return nil, err
	}
	switch arm {
	case "trim":
		scr, err := armScreener("trim", sac, s, w, trimSeed)
		if err != nil {
			return nil, err
		}
		return &countingOracle{try: func(batch *workload.Workload) pipa.Verdict {
			kept, rep := scr.Screen(batch)
			v := pipa.Verdict{Outcome: "committed", Dropped: rep.Reasons}
			if kept.Len() == 0 {
				v.Outcome = "screened"
			} else {
				sac.Retrain(kept)
			}
			return v
		}}, nil
	case "guard", "stacked":
		var scr defense.Screener
		if arm == "stacked" {
			if scr, err = armScreener("stacked", sac, s, w, trimSeed); err != nil {
				return nil, err
			}
		}
		gt, err := guard.NewTrainer(sac, guard.Config{
			Budget: s.GuardBudget, Canary: canary, Eval: s.WhatIf, Screener: scr,
		})
		if err != nil {
			return nil, err
		}
		gt.SetProvenance("ADAPT-probe")
		return &countingOracle{try: func(batch *workload.Workload) pipa.Verdict {
			gt.Retrain(batch)
			v := pipa.Verdict{Outcome: gt.LastOutcome().String()}
			if rep := gt.LastScreenReport(); rep != nil {
				v.Dropped = rep.Reasons
			}
			return v
		}}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown attack-zoo arm %q", arm)
	}
}

// String renders the grid — per injector one block of (rate, arm) rows —
// then two derived tables: the per-arm RD curves against the FSM reference
// (when FSM ran) and the defended-minus-unguarded gap, the slip table the
// robustness claim is graded on (a positive entry means the attack slipped
// more degradation past the defense than past no defense at all).
func (r *AttackZooResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Attack zoo (AD per defense arm across attack families) — %s / %s (budget %g, %d epochs) ==\n",
		r.Setup, r.Advisor, r.Budget, r.Epochs)
	for ii, inj := range r.Injectors {
		fmt.Fprintf(&b, "-- injector %s --\n", inj)
		fmt.Fprintf(&b, "%6s %10s %8s %8s %8s %8s %8s %6s %7s %8s\n",
			"rate", "arm", "AD", "std", "drops", "commits", "rollbks", "quar", "probes", "accepted")
		for ri := range r.Rates {
			p := r.Points[ii*len(r.Rates)+ri]
			for _, arm := range r.Arms {
				fmt.Fprintf(&b, "%6.2f %10s %+8.3f %8.3f %8d %8d %8d %6d %7d %8d\n",
					p.Rate, arm, p.AD[arm].Mean, p.AD[arm].Std,
					p.Dropped[arm], p.Commits[arm], p.Rollback[arm],
					p.Quarantined[arm], p.Probes[arm], p.Accepted[arm])
			}
		}
	}

	fi := -1
	for i, inj := range r.Injectors {
		if inj == "FSM" {
			fi = i
		}
	}
	if fi >= 0 {
		fmt.Fprintf(&b, "-- RD per arm vs FSM (mean AD[inj] - mean AD[FSM]) at full rate --\n")
		fmt.Fprintf(&b, "%10s", "injector")
		for _, arm := range r.Arms {
			fmt.Fprintf(&b, " %10s", arm)
		}
		b.WriteString("\n")
		ref := r.Points[fi*len(r.Rates)+len(r.Rates)-1]
		for ii, inj := range r.Injectors {
			if ii == fi {
				continue
			}
			p := r.Points[ii*len(r.Rates)+len(r.Rates)-1]
			fmt.Fprintf(&b, "%10s", inj)
			for _, arm := range r.Arms {
				fmt.Fprintf(&b, " %+10.3f", p.AD[arm].Mean-ref.AD[arm].Mean)
			}
			b.WriteString("\n")
		}
	}

	fmt.Fprintf(&b, "-- slip table: max over nonzero rates of mean AD[arm] - mean AD[unguarded] --\n")
	fmt.Fprintf(&b, "%10s", "injector")
	for _, arm := range r.Arms {
		if arm == "unguarded" {
			continue
		}
		fmt.Fprintf(&b, " %10s", arm)
	}
	b.WriteString("\n")
	for ii, inj := range r.Injectors {
		fmt.Fprintf(&b, "%10s", inj)
		for _, arm := range r.Arms {
			if arm == "unguarded" {
				continue
			}
			gap, any := 0.0, false
			for ri, rate := range r.Rates {
				if rate == 0 {
					continue
				}
				p := r.Points[ii*len(r.Rates)+ri]
				if g := p.AD[arm].Mean - p.AD["unguarded"].Mean; !any || g > gap {
					gap, any = g, true
				}
			}
			fmt.Fprintf(&b, " %+10.3f", gap)
		}
		b.WriteString("\n")
	}
	return b.String()
}
