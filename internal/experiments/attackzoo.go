package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/pipa"
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

// AttackZooResult is the zoo grid for one advisor: every registered attack
// family walked across the poison-rate ladder against every defense arm.
type AttackZooResult struct{ TimelineResult }

// RunAttackZoo runs the defenses-under-unseen-attacks ablation: the full
// attack zoo (paper §6.2 line-up, openGauss ablation family, OOD pair, and
// the ADAPT guard-aware attacker) × the poison-rate ladder × the defense
// arms, against one advisor, through the same defended-timeline cell as the
// defense sweep (runCell). Fixed injectors build one injection per cell,
// probed against the cell's base victim before the arms fork. ADAPT instead
// builds per arm: it gets a sacrificial clone of the base wrapped in the
// arm's own defense as a verdict oracle, probes it with trial updates
// (budget pipa.Config.AdaptProbes), and shapes its injection from the
// reject/quarantine feedback — so each defended arm faces the attack tuned
// against that defense.
func RunAttackZoo(ctx context.Context, s *Setup, advisorName string, rates []float64, injectors []string) (*AttackZooResult, error) {
	if rates == nil {
		rates = AttackZooRates()
	}
	if injectors == nil {
		injectors = AttackZooInjectors()
	}
	r, err := s.runTimeline(ctx, timelineSweep{
		name: "attackzoo", arms: AttackZooArms(), injectors: injectors, rates: rates,
		seedOffset: 77_000_017,
	}, advisorName)
	if err != nil {
		return nil, err
	}
	return &AttackZooResult{r}, nil
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
			p := r.point(ii, ri)
			for _, arm := range r.Arms {
				a := p.Arms[arm]
				fmt.Fprintf(&b, "%6.2f %10s %+8.3f %8.3f %8d %8d %8d %6d %7d %8d\n",
					p.Rate, arm, a.AD.Mean, a.AD.Std,
					a.Dropped, a.Commits, a.Rollbacks, a.Quarantined, a.Probes, a.Accepted)
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
		last := len(r.Rates) - 1
		for ii, inj := range r.Injectors {
			if ii == fi {
				continue
			}
			fmt.Fprintf(&b, "%10s", inj)
			for _, arm := range r.Arms {
				fmt.Fprintf(&b, " %+10.3f", r.point(ii, last).Arms[arm].AD.Mean-r.point(fi, last).Arms[arm].AD.Mean)
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
				p := r.point(ii, ri)
				if g := p.Arms[arm].AD.Mean - p.Arms["unguarded"].AD.Mean; !any || g > gap {
					gap, any = g, true
				}
			}
			fmt.Fprintf(&b, " %+10.3f", gap)
		}
		b.WriteString("\n")
	}
	return b.String()
}
