package experiments

import (
	"context"
	"fmt"
	"strings"
)

// GuardSweepResult is the guarded-vs-unguarded robustness curve: the
// defended timeline with arms {unguarded, guard} against the setup's single
// attack.
type GuardSweepResult struct{ TimelineResult }

// GuardRates is the default poison-rate ladder: the fraction of the PIPA
// injection mixed into every update batch, from a clean-control rung to the
// full injection.
func GuardRates() []float64 { return []float64{0, 0.25, 0.5, 1} }

// RunGuardSweep replays the paper's poisoning timeline against a guarded and
// an unguarded copy of the same trained advisor and reports AD for both
// across poison rates. It is the defended-timeline cell (runCell) with two
// arms: the unguarded copy retrains blindly, reproducing the paper's
// vulnerable path, and the guarded copy's updates pass through
// guard.Trainer's canary gate (held-out trusted workload, clean oracle) with
// automatic rollback, quarantine and freeze. Its rows therefore equal the
// unguarded/guard arms of RunDefenseSweep and RunAttackZoo for the same
// attack by construction. Cells journal for kill-and-resume.
//
// The guarded victim deliberately runs without a pre-update sanitizer: the
// sweep isolates what canary gating alone buys, and the sanitizer's
// collateral damage on clean traffic is reported separately per rung
// (SanitizerFP, the sanitizer's drops on the held-out canary).
func RunGuardSweep(ctx context.Context, s *Setup, advisorName string, rates []float64) (*GuardSweepResult, error) {
	if rates == nil {
		rates = GuardRates()
	}
	r, err := s.runTimeline(ctx, timelineSweep{
		name: "guardsweep", arms: []string{"unguarded", "guard"},
		injectors: []string{s.AttackName()}, rates: rates,
	}, advisorName)
	if err != nil {
		return nil, err
	}
	return &GuardSweepResult{r}, nil
}

// String renders the guarded-vs-unguarded curve.
func (r *GuardSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Guard sweep (AD guarded vs unguarded across poison rates) — %s / %s (budget %g, %d epochs) ==\n",
		r.Setup, r.Advisor, r.Budget, r.Epochs)
	fmt.Fprintf(&b, "%6s %12s %10s %8s %8s %8s %7s %6s %12s %8s\n",
		"rate", "unguardedAD", "guardedAD", "delta", "commits", "rollbks", "frozen", "trips", "quarantined", "cleanFP")
	for _, p := range r.Points {
		un, g := p.Arms["unguarded"], p.Arms["guard"]
		fmt.Fprintf(&b, "%6.2f %+12.3f %+10.3f %+8.3f %8d %8d %7d %6d %12d %8d\n",
			p.Rate, un.AD.Mean, g.AD.Mean, un.AD.Mean-g.AD.Mean,
			g.Commits, g.Rollbacks, g.Frozen, g.Trips, g.Quarantined, p.SanitizerFP)
	}
	return b.String()
}
