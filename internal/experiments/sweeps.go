package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/par"
	"repro/internal/pipa"
)

// OmegaPoint is one (advisor, ω) cell of Fig. 9 / Table 2.
type OmegaPoint struct {
	Advisor string
	Omega   float64
	AD      Stats
	RD      float64
}

// InjectionSizeResult is the Fig. 9 + Table 2 data.
type InjectionSizeResult struct {
	Setup  string
	Points []OmegaPoint
}

// RunInjectionSize reproduces §6.3: the injection workload size is fixed at
// Na queries while the normal workload size varies so that ω = Na/|W| spans
// the requested values. RD compares PIPA to FSM at each ω. Every
// (ω, advisor, run) cell is independent, so the whole sweep fans out flat
// through the pool and is reduced per (ω, advisor) afterwards.
func RunInjectionSize(ctx context.Context, s *Setup, advisors []string, omegas []float64, na int) (*InjectionSizeResult, error) {
	st := s.Tester()
	res := &InjectionSizeResult{Setup: s.Name}

	type cellResult struct{ ad, rd float64 }
	nAdv, nRuns := len(advisors), s.Runs
	cells, err := par.MapCtx(ctx, s.pool("injectionsize"), len(omegas)*nAdv*nRuns, func(ctx context.Context, i int) (cellResult, error) {
		oi, rest := i/(nAdv*nRuns), i%(nAdv*nRuns)
		name, run := advisors[rest/nRuns], rest%nRuns
		wSize := int(float64(na) / omegas[oi])
		if wSize < 1 {
			wSize = 1
		}
		var c cellResult
		w := s.NormalWorkloadN(run, wSize)
		base, err := s.trainAdvisor(ctx, name, run, w)
		if err != nil {
			return c, err
		}
		fsmVictim, err := s.cloneOrRetrain(base, name, run, w)
		if err != nil {
			return c, err
		}
		fsmRes := st.StressTest(ctx, fsmVictim, pipa.FSMInjector{Tester: st}, w, na)
		pipaVictim, err := s.cloneOrRetrain(base, name, run, w)
		if err != nil {
			return c, err
		}
		pipaRes := st.StressTest(ctx, pipaVictim, pipa.PIPAInjector{Tester: st}, w, na)
		c.ad, c.rd = pipaRes.AD, pipa.RD(pipaRes, fsmRes)
		if err := ctx.Err(); err != nil {
			return c, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for oi, omega := range omegas {
		for ai, name := range advisors {
			ads := make([]float64, nRuns)
			rd := 0.0
			for run := 0; run < nRuns; run++ {
				c := cells[(oi*nAdv+ai)*nRuns+run]
				ads[run] = c.ad
				rd += c.rd
			}
			res.Points = append(res.Points, OmegaPoint{
				Advisor: name, Omega: omega,
				AD: NewStats(ads), RD: rd / float64(nRuns),
			})
		}
	}
	return res, nil
}

// String renders the ω sweep.
func (r *InjectionSizeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 9 (AD vs ω) + Table 2 (RD vs ω) — %s ==\n", r.Setup)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s\n", "advisor", "omega", "meanAD", "stdAD", "RD")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s %8.2f %+8.3f %8.3f %+8.3f\n", p.Advisor, p.Omega, p.AD.Mean, p.AD.Std, p.RD)
	}
	return b.String()
}

// BoundaryPoint is one boundary setting of Fig. 10.
type BoundaryPoint struct {
	Label string
	AD    Stats
}

// BoundariesResult is the Fig. 10 data.
type BoundariesResult struct {
	Setup       string
	StartSweep  []BoundaryPoint // (a): interval length 4, varying start
	LengthSweep []BoundaryPoint // (b): varying end fraction q
}

// RunBoundaries reproduces §6.4 on one advisor (the paper uses DQN on TPC-H
// 10GB): sweep the mid-segment start with a fixed interval of 4 columns,
// then sweep the segment end across fractions of L.
func RunBoundaries(ctx context.Context, s *Setup, advisorName string, starts []int, endFracs []float64) (*BoundariesResult, error) {
	res := &BoundariesResult{Setup: s.Name}
	// Both sweeps flatten into one fan-out so the pool sees every
	// (config, run) cell at once.
	var cells []adCell
	for _, start := range starts {
		cfg := s.PipaCfg
		cfg.MidStart = start
		cfg.MidEnd = start + 3 // interval of 4 ranks
		cells = append(cells, adCell{advisor: advisorName, cfg: cfg})
	}
	L := s.Schema.NumColumns()
	for _, f := range endFracs {
		cfg := s.PipaCfg
		cfg.MidEnd = int(f * float64(L))
		cells = append(cells, adCell{advisor: advisorName, cfg: cfg})
	}
	samples, err := adSamples(ctx, s, "boundaries", cells)
	if err != nil {
		return nil, err
	}
	for i, start := range starts {
		res.StartSweep = append(res.StartSweep, BoundaryPoint{
			Label: fmt.Sprintf("start=%d", start), AD: NewStats(samples[i]),
		})
	}
	for i, f := range endFracs {
		res.LengthSweep = append(res.LengthSweep, BoundaryPoint{
			Label: fmt.Sprintf("q=%.3fL", f), AD: NewStats(samples[len(starts)+i]),
		})
	}
	return res, nil
}

// adCell is one PIPA stress-test configuration of a parameter sweep.
type adCell struct {
	advisor string
	cfg     pipa.Config
}

// adSamples collects the per-run AD sample for every sweep cell. The
// (cell, run) grid fans out flat through the pool — each task trains its own
// advisor from (Seed, run) and stress-tests under the cell's PIPA config —
// and the flat results fold back into one sample slice per cell, in order.
func adSamples(ctx context.Context, s *Setup, phase string, cells []adCell) ([][]float64, error) {
	nRuns := s.Runs
	flat, err := par.MapCtx(ctx, s.pool(phase), len(cells)*nRuns, func(ctx context.Context, i int) (float64, error) {
		cell, run := cells[i/nRuns], i%nRuns
		st := pipa.NewStressTester(s.Schema, s.WhatIf, s.Gen, cell.cfg)
		w := s.NormalWorkload(run)
		ia, err := s.trainAdvisor(ctx, cell.advisor, run, w)
		if err != nil {
			return 0, err
		}
		ad := st.StressTest(ctx, ia, pipa.PIPAInjector{Tester: st}, w, cell.cfg.Na).AD
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return ad, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(cells))
	for ci := range cells {
		out[ci] = flat[ci*nRuns : (ci+1)*nRuns : (ci+1)*nRuns]
	}
	return out, nil
}

// String renders both sweeps.
func (r *BoundariesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 10 (target-segment boundaries) — %s ==\n", r.Setup)
	b.WriteString("(a) start sweep, interval length 4:\n")
	for _, p := range r.StartSweep {
		fmt.Fprintf(&b, "  %-10s meanAD=%+.3f std=%.3f\n", p.Label, p.AD.Mean, p.AD.Std)
	}
	b.WriteString("(b) segment end sweep:\n")
	for _, p := range r.LengthSweep {
		fmt.Fprintf(&b, "  %-10s meanAD=%+.3f std=%.3f\n", p.Label, p.AD.Mean, p.AD.Std)
	}
	return b.String()
}

// ProbingEpochsResult is the Fig. 11 data: AD as a function of the probing
// budget P.
type ProbingEpochsResult struct {
	Setup  string
	Points []struct {
		Advisor string
		P       int
		AD      Stats
	}
}

// RunProbingEpochs reproduces §6.5: sweep P for a one-off and a trial-based
// advisor.
func RunProbingEpochs(ctx context.Context, s *Setup, advisors []string, ps []int) (*ProbingEpochsResult, error) {
	res := &ProbingEpochsResult{Setup: s.Name}
	var cells []adCell
	for _, name := range advisors {
		for _, p := range ps {
			cfg := s.PipaCfg
			cfg.P = p
			cells = append(cells, adCell{advisor: name, cfg: cfg})
		}
	}
	samples, err := adSamples(ctx, s, "probingepochs", cells)
	if err != nil {
		return nil, err
	}
	for i, cell := range cells {
		res.Points = append(res.Points, struct {
			Advisor string
			P       int
			AD      Stats
		}{cell.advisor, cell.cfg.P, NewStats(samples[i])})
	}
	return res, nil
}

// String renders the P sweep.
func (r *ProbingEpochsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 11 (AD vs probing epochs) — %s ==\n", r.Setup)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-14s P=%-3d meanAD=%+.3f std=%.3f\n", p.Advisor, p.P, p.AD.Mean, p.AD.Std)
	}
	return b.String()
}

// ParamResult is the Fig. 12 data: the α sweep's AD distribution and the β
// sweep's convergence/error trade-off.
type ParamResult struct {
	Setup      string
	AlphaSweep []struct {
		Alpha float64
		AD    Stats
	}
	BetaSweep []struct {
		Beta          float64
		ConvergeEpoch float64 // epochs until segments stop changing for 3 epochs
		ErrorRate     float64 // segment membership disagreement vs β = 0
	}
}

// RunProbingParams reproduces §6.6: α drives the AD variance; β trades
// probing rounds against ranking error.
func RunProbingParams(ctx context.Context, s *Setup, advisorName string, alphas, betas []float64) (*ParamResult, error) {
	res := &ParamResult{Setup: s.Name}
	var cells []adCell
	for _, a := range alphas {
		cfg := s.PipaCfg
		cfg.Alpha = a
		cells = append(cells, adCell{advisor: advisorName, cfg: cfg})
	}
	samples, err := adSamples(ctx, s, "probingparams", cells)
	if err != nil {
		return nil, err
	}
	for i, a := range alphas {
		res.AlphaSweep = append(res.AlphaSweep, struct {
			Alpha float64
			AD    Stats
		}{a, NewStats(samples[i])})
	}

	// β sweep: probe with β = 0 as the reference ranking, then compare
	// segment membership and convergence speed at each β. This sweep stays
	// serial on purpose: every β probes the same advisor instance, and
	// Recommend advances trial-based advisors' internal state, so the probe
	// order is part of the experiment's definition.
	w := s.NormalWorkload(0)
	ia, err := s.trainAdvisor(ctx, advisorName, 0, w)
	if err != nil {
		return nil, err
	}
	refCfg := s.PipaCfg
	refCfg.Beta = 0
	refTester := pipa.NewStressTester(s.Schema, s.WhatIf, s.Gen, refCfg)
	refPref := refTester.Probe(ctx, ia)
	refTop, refMid, refLow := refTester.Segments(refPref)

	for _, beta := range betas {
		cfg := s.PipaCfg
		cfg.Beta = beta
		st := pipa.NewStressTester(s.Schema, s.WhatIf, s.Gen, cfg)
		pref := st.Probe(ctx, ia)
		top, mid, low := st.Segments(pref)
		res.BetaSweep = append(res.BetaSweep, struct {
			Beta          float64
			ConvergeEpoch float64
			ErrorRate     float64
		}{
			Beta:          beta,
			ConvergeEpoch: convergenceEpoch(pref),
			ErrorRate:     segmentError([3][]string{refTop, refMid, refLow}, [3][]string{top, mid, low}),
		})
	}
	return res, nil
}

// convergenceEpoch finds the first epoch after which the segment snapshot
// stays unchanged for 3 consecutive epochs.
func convergenceEpoch(p *pipa.Preference) float64 {
	snaps := p.SegmentsByEpoch
	if len(snaps) == 0 {
		return float64(p.EpochsRun)
	}
	for i := 0; i < len(snaps); i++ {
		stable := true
		for j := i + 1; j < len(snaps) && j <= i+3; j++ {
			if segmentError(snaps[i], snaps[j]) > 0 {
				stable = false
				break
			}
		}
		if stable {
			return float64(i + 1)
		}
	}
	return float64(len(snaps))
}

// segmentError is the fraction of columns whose segment membership differs.
func segmentError(a, b [3][]string) float64 {
	la := make(map[string]int)
	for seg, cols := range a {
		for _, c := range cols {
			la[c] = seg
		}
	}
	total, diff := 0, 0
	for seg, cols := range b {
		for _, c := range cols {
			total++
			if la[c] != seg {
				diff++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diff) / float64(total)
}

// String renders both parameter sweeps.
func (r *ParamResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 12 (probing parameters) — %s ==\n", r.Setup)
	b.WriteString("(a) alpha sweep:\n")
	for _, p := range r.AlphaSweep {
		fmt.Fprintf(&b, "  alpha=%-6.2f meanAD=%+.3f std=%.3f\n", p.Alpha, p.AD.Mean, p.AD.Std)
	}
	b.WriteString("(b) beta sweep:\n")
	for _, p := range r.BetaSweep {
		fmt.Fprintf(&b, "  beta=%-8.4f converge@%.0f error=%.3f\n", p.Beta, p.ConvergeEpoch, p.ErrorRate)
	}
	return b.String()
}
