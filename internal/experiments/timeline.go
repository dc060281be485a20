package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/advisor"
	"repro/internal/defense"
	"repro/internal/defense/trim"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/pipa"
	"repro/internal/workload"
)

// timelineSweep is what tells one defended-timeline grid apart from another:
// RunGuardSweep, RunDefenseSweep and RunAttackZoo are all this data fed to
// runTimeline (DESIGN.md §9, §13, §14).
type timelineSweep struct {
	name      string // pool phase and journal-key prefix
	arms      []string
	injectors []string
	rates     []float64
	// seedOffset shifts every trim seed of the sweep, so two sweeps never
	// share a subset stream.
	seedOffset int64
}

// ArmCounts is one defense arm's screening and guard telemetry: a cell
// records it per run, a point sums it over the rung's runs.
type ArmCounts struct {
	Dropped   int    // update-batch queries dropped by the arm's screener
	CleanFP   int    // drops when the arm's screener replays the held-out canary (false positives)
	Commits   uint64 // guarded arms only
	Rollbacks uint64
	Frozen    uint64
	Trips     uint64
	// Quarantined counts the guarded arm's quarantine entries whose
	// provenance tag names the cell's injector — the attribution path the
	// forensics layer uses end to end.
	Quarantined uint64
	// Probes and Accepted are the ADAPT feedback-loop telemetry: trial
	// updates spent against the arm's sacrificial oracle and toxic queries
	// that individually survived a committed trial. Zero for fixed injectors.
	Probes   int
	Accepted int
}

func (a *ArmCounts) add(b ArmCounts) {
	a.Dropped += b.Dropped
	a.CleanFP += b.CleanFP
	a.Commits += b.Commits
	a.Rollbacks += b.Rollbacks
	a.Frozen += b.Frozen
	a.Trips += b.Trips
	a.Quarantined += b.Quarantined
	a.Probes += b.Probes
	a.Accepted += b.Accepted
}

// ArmPoint is one arm's outcome on one rung: AD across runs plus the summed
// telemetry.
type ArmPoint struct {
	AD Stats
	ArmCounts
}

// TimelinePoint aggregates one (injector, rate) rung across runs.
type TimelinePoint struct {
	Injector string
	Rate     float64
	Arms     map[string]ArmPoint
	// SanitizerFP is the sanitizer's drops on the held-out canary, summed
	// over runs: the collateral damage a sanitizer would cost even on arms
	// that run without one.
	SanitizerFP int
}

// TimelineResult is one defended-timeline grid against one advisor.
type TimelineResult struct {
	Setup     string
	Advisor   string
	Budget    float64
	Epochs    int
	Arms      []string
	Injectors []string
	Rates     []float64
	Points    []TimelinePoint // injector-major, rate-minor
}

// point returns the (injector ii, rate ri) rung.
func (r *TimelineResult) point(ii, ri int) TimelinePoint { return r.Points[ii*len(r.Rates)+ri] }

// armCell is one arm's journaled result in one cell.
type armCell struct {
	AD float64 // degradation vs the cell's trained base
	ArmCounts
}

// timelineCell is the journaled result of one (injector, rate, run) cell;
// encoding/json sorts map keys, so journaled cells decode byte-identically.
type timelineCell struct {
	Arms        map[string]armCell
	SanitizerFP int
}

// runTimeline fans the sweep's (injector, rate, run) cells out over the
// setup's pool, journaling each, and folds them into per-rung points.
func (s *Setup) runTimeline(ctx context.Context, sw timelineSweep, advisorName string) (TimelineResult, error) {
	res := TimelineResult{
		Setup: s.Name, Advisor: advisorName, Budget: s.GuardBudget, Epochs: s.GuardEpochs,
		Arms: sw.arms, Injectors: sw.injectors, Rates: sw.rates,
	}
	nRates, nRuns := len(sw.rates), s.Runs
	st := s.Tester()

	cells, err := par.MapCtx(ctx, s.pool(sw.name), len(sw.injectors)*nRates*nRuns,
		func(ctx context.Context, i int) (timelineCell, error) {
			ii, ri, run := i/(nRates*nRuns), i/nRuns%nRates, i%nRuns
			cell := fmt.Sprintf("%s/%s/%s/rate=%g/run=%d", sw.name, advisorName, sw.injectors[ii], sw.rates[ri], run)
			return Journaled(s, cell, func() (timelineCell, error) {
				// Trim seeds mix the cell coordinates so no two cells share
				// a subset stream, yet reruns of a cell are exact.
				seed := s.Seed*1_000_003 + sw.seedOffset + int64(ii)*900_001 + int64(sw.rates[ri]*1000)*9_001 + int64(run)
				return s.runCell(ctx, st, sw.arms, advisorName, sw.injectors[ii], sw.rates[ri], run, seed, cell)
			})
		})
	if err != nil {
		return res, err
	}

	for k := 0; k < len(cells); k += nRuns {
		runs := cells[k : k+nRuns]
		p := TimelinePoint{
			Injector: sw.injectors[k/nRuns/nRates], Rate: sw.rates[k/nRuns%nRates],
			Arms: make(map[string]ArmPoint, len(sw.arms)),
		}
		for _, arm := range sw.arms {
			var a ArmPoint
			ads := make([]float64, nRuns)
			for run, c := range runs {
				ads[run] = c.Arms[arm].AD
				a.add(c.Arms[arm].ArmCounts)
			}
			a.AD = NewStats(ads)
			p.Arms[arm] = a
		}
		for _, c := range runs {
			p.SanitizerFP += c.SanitizerFP
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// runCell replays the paper's poisoning timeline (§6: a trained victim
// retrains on W ∪ Ŵ) once per defense arm, and is the one place that forks
// arm victims, builds their screeners and trainers, and walks the timeline.
// It trains one base and costs its baseline, builds one injection against it
// before any arm forks (ADAPT instead builds one per arm, tuned against that
// arm's defense), then walks a clone per arm through GuardEpochs update
// batches — the normal workload merged with the rate's share of the
// injection — and grades each arm's AD against the base. Every RNG derives
// from the cell coordinates and the cell owns its advisors, trainers and
// screeners, so results are byte-identical at any Workers width.
func (s *Setup) runCell(ctx context.Context, st *pipa.StressTester, arms []string, advisorName, injName string, rate float64, run int, seed int64, cell string) (timelineCell, error) {
	c := timelineCell{Arms: make(map[string]armCell, len(arms))}
	w := s.NormalWorkload(run)
	canary := s.CanaryWorkload(run)

	base, err := s.trainAdvisor(ctx, advisorName, run, w)
	if err != nil {
		return c, err
	}
	baseCost := s.WhatIf.WorkloadCost(w.Queries, w.Freqs, base.Recommend(w))
	c.SanitizerFP = defense.ScreenCleanWith(defense.NewSanitizer(s.WhatIf, w), canary).Dropped

	// fork clones the base and wraps the clone in the arm's defense. The
	// guarded arms (guard, stacked) hand their screener to guard.Trainer,
	// which stamps source on its quarantine entries and, with modelDir set,
	// persists every commit there and resumes from it.
	fork := func(arm string, trimSeed int64, modelDir, source string) (*armDefense, error) {
		victim := base.(advisor.Cloner).CloneAdvisor()
		d := &armDefense{victim: victim}
		strategy, ok := armStrategies[arm]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown defense arm %q", arm)
		}
		inner, err := trim.BuildScreener(strategy, victim, s.WhatIf, w, trimSeed)
		if err != nil {
			return nil, err
		}
		var screener defense.Screener
		if inner != nil {
			d.screener = &countingScreener{Screener: inner}
			screener = d.screener
		}
		if arm != "guard" && arm != "stacked" {
			return d, nil
		}
		if d.gt, err = guard.NewTrainer(victim, guard.Config{
			Budget: s.GuardBudget, Canary: canary, Eval: s.WhatIf, Screener: screener, ModelDir: modelDir,
		}); err != nil {
			return nil, err
		}
		d.gt.SetProvenance(source)
		_, err = d.gt.TryRestore()
		return d, err
	}

	var fixedToxic *workload.Workload
	if injName != "ADAPT" {
		fixedToxic = poisonShare(pipa.InjectorByName(st, injName).BuildInjection(ctx, base, s.PipaCfg.Na), rate)
	}

	for _, arm := range arms {
		var a armCell
		// Only the unscreened guard arm checkpoints: a screened arm's drop
		// count lives outside the guard checkpoint, so it could not resume.
		modelDir := ""
		if arm == "guard" && s.ModelDir != "" {
			modelDir = filepath.Join(s.ModelDir, strings.ReplaceAll(s.CellKey(cell), "/", "_"))
		}
		d, err := fork(arm, seed, modelDir, injName)
		if err != nil {
			return c, err
		}

		toxic := fixedToxic
		if toxic == nil {
			// The adaptive attacker tunes its injection against this arm's
			// own defense: its verdict oracle is a sacrificial fork with the
			// same defense, so the leaked feedback is exactly what the real
			// /v1/update surface would return, and the real victim's timeline
			// stays clean until the graded injection lands. The unguarded arm
			// leaks nothing (no oracle): ADAPT degrades to plain PIPA there.
			toxic = &workload.Workload{}
			if rate > 0 {
				inj := pipa.AdaptInjector{Tester: st}
				var o *countingOracle
				if arm != "unguarded" {
					sac, err := fork(arm, seed+500_000, "", "ADAPT-probe")
					if err != nil {
						return c, err
					}
					// Assign only a live oracle: a typed-nil *countingOracle
					// in the interface would defeat ADAPT's nil check.
					o = &countingOracle{d: sac}
					inj.Oracle = o
				}
				toxic = poisonShare(inj.BuildInjection(ctx, base, s.PipaCfg.Na), rate)
				if o != nil {
					a.Probes, a.Accepted = o.probes, o.accepted
				}
			}
		}

		for epoch := 0; epoch < s.GuardEpochs; epoch++ {
			d.update(w.Merge(toxic))
		}
		a.AD = ad(s.WhatIf.WorkloadCost(w.Queries, w.Freqs, d.victim.Recommend(w)), baseCost)
		if d.gt != nil {
			gst := d.gt.Stats()
			a.Commits, a.Rollbacks, a.Frozen, a.Trips = gst.Commits, gst.Rollbacks, gst.Frozen, gst.Trips
			a.Quarantined = uint64(d.gt.Quarantine().BySource()[injName])
		}
		if d.screener != nil {
			a.Dropped = d.screener.dropped
			// Collateral damage: replay the screener over the held-out
			// canary, which is clean by construction, so every drop is a
			// false positive. The unwrapped screener keeps this probe out of
			// the timeline drop count.
			a.CleanFP = defense.ScreenCleanWith(d.screener.Screener, canary).Dropped
		}
		c.Arms[arm] = a
	}

	// A cancelled cell is truncated: fail it so it is never journaled.
	if err := ctx.Err(); err != nil {
		return c, err
	}
	return c, nil
}

// armDefense is one defense arm wrapped around one victim: the arm's
// screener, counting its drops, and on the guarded arms the canary-gated
// trainer. The cell walks each real victim through one; ADAPT probes a
// sacrificial one.
type armDefense struct {
	victim   advisor.Advisor
	screener *countingScreener // nil when the arm screens nothing
	gt       *guard.Trainer    // nil on the blind arms
}

// update feeds one batch through the arm and returns the verdict its update
// surface would report. The blind arms retrain on whatever their screener
// keeps; the guarded arms run the guard's transaction.
func (d *armDefense) update(batch *workload.Workload) pipa.Verdict {
	if d.gt != nil {
		d.gt.Retrain(batch)
		v := pipa.Verdict{Outcome: d.gt.LastOutcome().String()}
		if rep := d.gt.LastScreenReport(); rep != nil {
			v.Dropped = rep.Reasons
		}
		return v
	}
	v := pipa.Verdict{Outcome: "committed"}
	if d.screener != nil {
		var rep *defense.Report
		batch, rep = d.screener.Screen(batch)
		v.Dropped = rep.Reasons
	}
	if batch.Len() == 0 {
		v.Outcome = "screened"
	} else {
		d.victim.Retrain(batch)
	}
	return v
}

// armStrategies maps each defense arm to the trim.BuildScreener strategy its
// screener is built from; unguarded and guard-only arms screen nothing.
var armStrategies = map[string]string{
	"unguarded": "none",
	"sanitizer": "sanitizer",
	"trim":      "trim",
	"guard":     "none",
	"stacked":   "sanitizer+trim",
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

// countingOracle is the ADAPT attacker's handle on one arm's sacrificial
// defended pipeline, counting the trial updates and individually-accepted
// toxic queries for the cell's telemetry.
type countingOracle struct {
	d        *armDefense
	probes   int
	accepted int
}

func (o *countingOracle) TryUpdate(w *workload.Workload) pipa.Verdict {
	o.probes++
	v := o.d.update(w)
	if v.Committed() {
		o.accepted += w.Len() - len(v.Dropped)
	}
	return v
}

// poisonShare returns the rate's share of an injection: its first
// round(rate·|Ŵ|) queries.
func poisonShare(tw *workload.Workload, rate float64) *workload.Workload {
	k := int(rate*float64(tw.Len()) + 0.5)
	if k >= tw.Len() {
		return tw
	}
	out := &workload.Workload{}
	for i := 0; i < k; i++ {
		out.Add(tw.Queries[i], tw.Freqs[i])
	}
	return out
}

// ad computes the relative degradation against a baseline cost.
func ad(cost, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cost - base) / base
}
