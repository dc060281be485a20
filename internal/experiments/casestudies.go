package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/advisor/registry"
	"repro/internal/par"
	"repro/internal/pipa"
)

// Curve is one learning curve of Fig. 8: per-trajectory rewards, with the
// index of the retrain boundary.
type Curve struct {
	Label        string
	Rewards      []float64
	RetrainStart int // index where poisoned retraining begins
}

// CaseStudies is the Fig. 8 data: learning curves for the trial-based
// advisors under PIPA versus I-L, plus the SWIRL re-retraining recovery
// demonstration of Fig. 8(d).
type CaseStudies struct {
	Setup  string
	Curves []Curve

	// SWIRL recovery (Fig. 8d): target-workload cost under the recommended
	// indexes at the three training stages.
	SwirlBaseline  float64
	SwirlPoisoned  float64
	SwirlRecovered float64
}

// RunCaseStudies reproduces Fig. 8: it traces training rewards of DQN,
// DBA-bandit and DRLindex through baseline training and poisoned retraining
// under both PIPA and I-L, and demonstrates that re-retraining SWIRL on the
// normal workload recovers from the poisoning.
func RunCaseStudies(ctx context.Context, s *Setup) (*CaseStudies, error) {
	st := s.Tester()
	out := &CaseStudies{Setup: s.Name}
	w := s.NormalWorkload(0)

	// The six (advisor, injector) traces are independent — each trains its
	// own advisor with a per-task Trace closure — so they fan out together.
	advisors := []string{"DQN-b", "DBAbandit-b", "DRLindex-b"}
	injNames := []string{"PIPA", "I-L"}
	curves, err := par.MapCtx(ctx, s.pool("casestudies"), len(advisors)*len(injNames), func(ctx context.Context, i int) (Curve, error) {
		name, injName := advisors[i/len(injNames)], injNames[i%len(injNames)]
		var rewards []float64
		cfg := s.AdvCfg
		cfg.Seed = s.Seed * 31
		cfg.Trace = func(r float64) { rewards = append(rewards, r) }
		ia, err := registry.New(name, s.Env, cfg)
		if err != nil {
			return Curve{}, err
		}
		ia.Train(w)
		retrainStart := len(rewards)
		inj := pipa.InjectorByName(st, injName)
		tw := inj.BuildInjection(ctx, ia, s.PipaCfg.Na)
		ia.Retrain(w.Merge(tw))
		if err := ctx.Err(); err != nil {
			return Curve{}, err
		}
		return Curve{
			Label:        name + " / " + injName,
			Rewards:      rewards,
			RetrainStart: retrainStart,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Curves = append(out.Curves, curves...)

	// Fig. 8(d): SWIRL poisoned, then re-retrained on the normal workload.
	swirl, err := s.trainAdvisor(ctx, "SWIRL", 0, w)
	if err != nil {
		return nil, err
	}
	base := swirl.Recommend(w)
	out.SwirlBaseline = s.WhatIf.WorkloadCost(w.Queries, w.Freqs, base)
	inj := pipa.PIPAInjector{Tester: st}
	tw := inj.BuildInjection(ctx, swirl, s.PipaCfg.Na)
	swirl.Retrain(w.Merge(tw))
	poisoned := swirl.Recommend(w)
	out.SwirlPoisoned = s.WhatIf.WorkloadCost(w.Queries, w.Freqs, poisoned)
	swirl.Retrain(w) // third training stage: normal workload again
	recovered := swirl.Recommend(w)
	out.SwirlRecovered = s.WhatIf.WorkloadCost(w.Queries, w.Freqs, recovered)
	return out, nil
}

// String renders the curves compactly (mean reward per quarter of training).
func (c *CaseStudies) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 8 (case studies) — %s ==\n", c.Setup)
	for _, cv := range c.Curves {
		fmt.Fprintf(&b, "%-22s train %s | retrain %s\n",
			cv.Label,
			sparkline(cv.Rewards[:cv.RetrainStart]),
			sparkline(cv.Rewards[cv.RetrainStart:]))
	}
	fmt.Fprintf(&b, "SWIRL cost: baseline %.0f -> poisoned %.0f -> re-retrained %.0f\n",
		c.SwirlBaseline, c.SwirlPoisoned, c.SwirlRecovered)
	return b.String()
}

// sparkline summarizes a reward series as quartile means.
func sparkline(xs []float64) string {
	if len(xs) == 0 {
		return "[]"
	}
	quarters := make([]float64, 4)
	counts := make([]int, 4)
	for i, x := range xs {
		q := i * 4 / len(xs)
		if q > 3 {
			q = 3
		}
		quarters[q] += x
		counts[q]++
	}
	parts := make([]string, 4)
	for i := range quarters {
		if counts[i] > 0 {
			parts[i] = fmt.Sprintf("%.2f", quarters[i]/float64(counts[i]))
		} else {
			parts[i] = "-"
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}
