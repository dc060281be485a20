package experiments

import (
	"context"
	"fmt"
	"strings"
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

// DefenseSweepResult is the full ablation grid; its String adds the per-arm
// RD curves.
type DefenseSweepResult struct{ TimelineResult }

// RunDefenseSweep runs the defense-family ablation: the poison-rate ladder ×
// defense arms × attack injectors, against one advisor. Every cell walks
// five identically-seeded copies of one trained victim through the same
// update timeline (runCell) — blind retraining, sanitizer screening, TRIM
// robust retraining, the canary-gated guard, and the sanitizer+trim+guard
// stack — and reports each arm's AD, screening drops, and clean-traffic
// false positives (the screener replayed over the held-out canary).
func RunDefenseSweep(ctx context.Context, s *Setup, advisorName string, rates []float64, injectors []string) (*DefenseSweepResult, error) {
	if rates == nil {
		rates = GuardRates()
	}
	if injectors == nil {
		injectors = DefenseInjectors()
	}
	r, err := s.runTimeline(ctx, timelineSweep{
		name: "defensesweep", arms: DefenseArms(), injectors: injectors, rates: rates,
	}, advisorName)
	if err != nil {
		return nil, err
	}
	return &DefenseSweepResult{r}, nil
}

// String renders the grid: per injector one block of (rate, arm) rows, then,
// when both FSM and PIPA ran, the per-arm RD curves.
func (r *DefenseSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Defense sweep (AD per defense arm across poison rates) — %s / %s (budget %g, %d epochs) ==\n",
		r.Setup, r.Advisor, r.Budget, r.Epochs)
	fi, pi := -1, -1
	for ii, inj := range r.Injectors {
		switch inj {
		case "FSM":
			fi = ii
		case "PIPA":
			pi = ii
		}
		fmt.Fprintf(&b, "-- injector %s --\n", inj)
		fmt.Fprintf(&b, "%6s %10s %8s %8s %8s %8s %8s %8s\n",
			"rate", "arm", "AD", "std", "drops", "cleanFP", "commits", "rollbks")
		for ri := range r.Rates {
			p := r.point(ii, ri)
			for _, arm := range r.Arms {
				a := p.Arms[arm]
				fmt.Fprintf(&b, "%6.2f %10s %+8.3f %8.3f %8d %8d %8d %8d\n",
					p.Rate, arm, a.AD.Mean, a.AD.Std, a.Dropped, a.CleanFP, a.Commits, a.Rollbacks)
			}
		}
	}
	if fi < 0 || pi < 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "-- RD per arm (mean AD[PIPA] - mean AD[FSM]) --\n")
	fmt.Fprintf(&b, "%6s", "rate")
	for _, arm := range r.Arms {
		fmt.Fprintf(&b, " %10s", arm)
	}
	b.WriteString("\n")
	for ri, rate := range r.Rates {
		fmt.Fprintf(&b, "%6.2f", rate)
		for _, arm := range r.Arms {
			fmt.Fprintf(&b, " %+10.3f", r.point(pi, ri).Arms[arm].AD.Mean-r.point(fi, ri).Arms[arm].AD.Mean)
		}
		b.WriteString("\n")
	}
	return b.String()
}
