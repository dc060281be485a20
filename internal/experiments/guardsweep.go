package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/defense"
	"repro/internal/guard"
	"repro/internal/par"

	"repro/internal/workload"
)

// guardCell is the journaled result of one (rate, run) cell: both victims'
// degradation plus the guard's transaction telemetry, so a checkpointed cell
// reprints without recomputation.
type guardCell struct {
	UnguardedAD float64
	GuardedAD   float64
	Commits     uint64
	Rollbacks   uint64
	Frozen      uint64
	Trips       uint64
	Quarantined uint64
	CleanDrops  int // sanitizer false positives on the held-out canary
}

// GuardPoint is one poison-rate rung: AD with and without the guard, with
// the guard telemetry summed across the rung's runs.
type GuardPoint struct {
	Rate        float64
	UnguardedAD Stats
	GuardedAD   Stats
	Delta       float64 // mean AD(unguarded) - AD(guarded): the guard's benefit

	Commits     uint64
	Rollbacks   uint64
	Frozen      uint64
	Trips       uint64
	Quarantined uint64
	CleanDrops  int
}

// GuardSweepResult is the guarded-vs-unguarded robustness curve.
type GuardSweepResult struct {
	Setup   string
	Advisor string
	Budget  float64
	Epochs  int
	Points  []GuardPoint
}

// GuardRates is the default poison-rate ladder: the fraction of the PIPA
// injection mixed into every update batch, from a clean-control rung to the
// full injection.
func GuardRates() []float64 { return []float64{0, 0.25, 0.5, 1} }

// workloadHead returns the first k queries of w (all of w when k >= Len).
func workloadHead(w *workload.Workload, k int) *workload.Workload {
	if k >= w.Len() {
		return w
	}
	out := &workload.Workload{}
	for i := 0; i < k; i++ {
		out.Add(w.Queries[i], w.Freqs[i])
	}
	return out
}

// RunGuardSweep replays the paper's poisoning timeline against a guarded and
// an unguarded copy of the same trained advisor and reports AD for both
// across poison rates. Each cell trains one victim, builds one PIPA
// injection against it, then feeds both copies an identical sequence of
// update batches — the paper's retrain input, the normal workload merged
// with the rate's share of the injection (Fig. 1's W ∪ Ŵ); the
// guarded copy's updates pass through guard.Trainer's canary gate (held-out
// trusted workload, clean oracle) with automatic rollback, quarantine and
// freeze, while the unguarded copy retrains blindly, reproducing the paper's
// vulnerable path. Every cell derives its RNGs from (Seed, rate, run) and
// owns its advisor instances, so results are byte-identical at any Workers
// width; cells journal for kill-and-resume, and with ModelDir set each
// guarded trainer additionally checkpoints its last committed model so even
// a mid-cell kill resumes from the last good state.
//
// The guarded victim deliberately runs without a pre-update sanitizer: the
// sweep isolates what canary gating alone buys, and the sanitizer's
// collateral damage on clean traffic is reported separately per rung
// (CleanDrops, from defense.ScreenCleanWith on the held-out canary).
func RunGuardSweep(ctx context.Context, s *Setup, advisorName string, rates []float64) (*GuardSweepResult, error) {
	if rates == nil {
		rates = GuardRates()
	}
	res := &GuardSweepResult{Setup: s.Name, Advisor: advisorName, Budget: s.GuardBudget, Epochs: s.GuardEpochs}
	nRuns := s.Runs
	st := s.Tester()

	cells, err := par.MapCtx(ctx, s.pool("guardsweep"), len(rates)*nRuns, func(ctx context.Context, i int) (guardCell, error) {
		ri, run := i/nRuns, i%nRuns
		rate := rates[ri]
		return journaled(s, fmt.Sprintf("guardsweep/%s%s/rate=%g/run=%d", advisorName, s.attackKeySuffix(), rate, run), func() (guardCell, error) {
			var c guardCell
			w := s.NormalWorkload(run)
			canary := s.CanaryWorkload(run)

			base, err := s.trainAdvisor(ctx, advisorName, run, w)
			if err != nil {
				return c, err
			}
			// Both victims fork from the same trained state before the base
			// is probed, so they enter the timeline identical.
			unguarded, err := s.cloneOrRetrain(base, advisorName, run, w)
			if err != nil {
				return c, err
			}
			guardedInner, err := s.cloneOrRetrain(base, advisorName, run, w)
			if err != nil {
				return c, err
			}
			baseCost := s.WhatIf.WorkloadCost(w.Queries, w.Freqs, base.Recommend(w))

			// One PIPA injection per cell, probed against the base copy; both
			// victims then see the rate's share of the same toxic workload.
			tw := injectorByName(st, s.AttackName()).BuildInjection(ctx, base, s.PipaCfg.Na)
			toxic := workloadHead(tw, int(rate*float64(tw.Len())+0.5))

			gcfg := guard.Config{Budget: s.GuardBudget, Canary: canary, Eval: s.WhatIf}
			if s.ModelDir != "" {
				gcfg.ModelDir = filepath.Join(s.ModelDir,
					fmt.Sprintf("%s_rate%g_run%d", advisorName, rate, run))
			}
			gt, err := guard.NewTrainer(guardedInner, gcfg)
			if err != nil {
				return c, err
			}
			if _, err := gt.TryRestore(); err != nil {
				return c, err
			}

			for epoch := 0; epoch < s.GuardEpochs; epoch++ {
				batch := w.Merge(toxic)
				unguarded.Retrain(batch)
				gt.Retrain(batch)
			}

			c.UnguardedAD = ad(s.WhatIf.WorkloadCost(w.Queries, w.Freqs, unguarded.Recommend(w)), baseCost)
			c.GuardedAD = ad(s.WhatIf.WorkloadCost(w.Queries, w.Freqs, gt.Recommend(w)), baseCost)
			gst := gt.Stats()
			c.Commits, c.Rollbacks, c.Frozen = gst.Commits, gst.Rollbacks, gst.Frozen
			c.Trips, c.Quarantined = gst.Trips, gst.Quarantined
			c.CleanDrops = defense.ScreenCleanWith(defense.NewSanitizer(s.WhatIf, w), canary).Dropped

			// A cancelled cell is truncated: fail it so it is never journaled.
			if err := ctx.Err(); err != nil {
				return c, err
			}
			return c, nil
		})
	})
	if err != nil {
		return nil, err
	}

	for ri, rate := range rates {
		p := GuardPoint{Rate: rate}
		unADs := make([]float64, nRuns)
		gADs := make([]float64, nRuns)
		for run := 0; run < nRuns; run++ {
			c := cells[ri*nRuns+run]
			unADs[run], gADs[run] = c.UnguardedAD, c.GuardedAD
			p.Commits += c.Commits
			p.Rollbacks += c.Rollbacks
			p.Frozen += c.Frozen
			p.Trips += c.Trips
			p.Quarantined += c.Quarantined
			p.CleanDrops += c.CleanDrops
		}
		p.UnguardedAD = NewStats(unADs)
		p.GuardedAD = NewStats(gADs)
		p.Delta = p.UnguardedAD.Mean - p.GuardedAD.Mean
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// ad computes the relative degradation against a baseline cost.
func ad(cost, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cost - base) / base
}

// String renders the guarded-vs-unguarded curve.
func (r *GuardSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Guard sweep (AD guarded vs unguarded across poison rates) — %s / %s (budget %g, %d epochs) ==\n",
		r.Setup, r.Advisor, r.Budget, r.Epochs)
	fmt.Fprintf(&b, "%6s %12s %10s %8s %8s %8s %7s %6s %12s %8s\n",
		"rate", "unguardedAD", "guardedAD", "delta", "commits", "rollbks", "frozen", "trips", "quarantined", "cleanFP")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%6.2f %+12.3f %+10.3f %+8.3f %8d %8d %7d %6d %12d %8d\n",
			p.Rate, p.UnguardedAD.Mean, p.GuardedAD.Mean, p.Delta,
			p.Commits, p.Rollbacks, p.Frozen, p.Trips, p.Quarantined, p.CleanDrops)
	}
	return b.String()
}
