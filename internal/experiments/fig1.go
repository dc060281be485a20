package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/par"
	"repro/internal/pipa"
)

// MotivationResult is the Fig. 1 data: the motivating example of a subtle
// (ω ≈ 1%) toxic injection versus a random one against DQN.
type MotivationResult struct {
	Setup         string
	Omega         float64
	RandomAD      Stats // the SQLsmith-style random injection of Fig. 1(3)
	ToxicAD       Stats // PIPA's toxic injection of Fig. 1(2)
	BaselineRed   float64
	InjectionSize int
}

// RunMotivation reproduces Fig. 1: with ~1% extraneous toxic queries in the
// training workload, DQN's execution cost on the unchanged testing workload
// rises noticeably, while the same amount of random (grammar-only) injection
// does not expose the problem.
func RunMotivation(ctx context.Context, s *Setup) (*MotivationResult, error) {
	st := s.Tester()
	na := s.WorkloadN / 4
	if na < 1 {
		na = 1
	}
	// ω ≈ 1%: frequencies of the normal workload average ~5.5, so a handful
	// of unit-frequency toxic queries is a ~1-3% share of the training mass.
	res := &MotivationResult{Setup: s.Name, InjectionSize: na}
	// One independent task per run, reduced in run order afterwards.
	type motiveRun struct{ randAD, toxicAD, baseRed float64 }
	runs, err := par.MapCtx(ctx, s.pool("motivation"), s.Runs, func(ctx context.Context, run int) (motiveRun, error) {
		var m motiveRun
		w := s.NormalWorkload(run)
		base, err := s.trainAdvisor(ctx, "DQN-b", run, w)
		if err != nil {
			return m, err
		}
		b0 := s.WhatIf.WorkloadCost(w.Queries, w.Freqs, nil)
		bc := s.WhatIf.WorkloadCost(w.Queries, w.Freqs, base.Recommend(w))
		m.baseRed = 1 - bc/b0

		randVictim, err := s.cloneOrRetrain(base, "DQN-b", run, w)
		if err != nil {
			return m, err
		}
		m.randAD = st.StressTest(ctx, randVictim, pipa.FSMInjector{Tester: st}, w, na).AD

		toxicVictim, err := s.cloneOrRetrain(base, "DQN-b", run, w)
		if err != nil {
			return m, err
		}
		m.toxicAD = st.StressTest(ctx, toxicVictim, pipa.PIPAInjector{Tester: st}, w, na).AD
		if err := ctx.Err(); err != nil {
			return m, err
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	randADs := make([]float64, 0, s.Runs)
	toxicADs := make([]float64, 0, s.Runs)
	baseRed := 0.0
	for _, m := range runs {
		randADs = append(randADs, m.randAD)
		toxicADs = append(toxicADs, m.toxicAD)
		baseRed += m.baseRed
	}
	totalFreq := 0.0
	w0 := s.NormalWorkload(0)
	for _, f := range w0.Freqs {
		totalFreq += f
	}
	res.Omega = float64(na) / totalFreq
	res.RandomAD = NewStats(randADs)
	res.ToxicAD = NewStats(toxicADs)
	res.BaselineRed = baseRed / float64(s.Runs)
	return res, nil
}

// String renders the motivating comparison.
func (r *MotivationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 1 (motivation) — %s ==\n", r.Setup)
	fmt.Fprintf(&b, "normal training: DQN reduces workload cost by %.1f%%\n", 100*r.BaselineRed)
	fmt.Fprintf(&b, "injection of %d queries (ω ≈ %.3f of training mass):\n", r.InjectionSize, r.Omega)
	fmt.Fprintf(&b, "  random (SQLsmith-style): AD = %+.3f (cost %+.1f%%)\n", r.RandomAD.Mean, 100*r.RandomAD.Mean)
	fmt.Fprintf(&b, "  toxic   (PIPA):          AD = %+.3f (cost %+.1f%%)\n", r.ToxicAD.Mean, 100*r.ToxicAD.Mean)
	return b.String()
}
