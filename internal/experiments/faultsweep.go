package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/par"
	"repro/internal/pipa"
)

// faultCell is the journaled result of one (rate, run) cell: the degradation
// metrics plus the cell's resilience telemetry. All fields are exported so a
// checkpointed cell round-trips through JSON losslessly.
type faultCell struct {
	PipaAD    float64
	FsmAD     float64
	Injected  int64
	Retries   int64
	Giveups   int64
	Trips     int64
	Fallbacks int64
}

// FaultPoint is one rung of the degradation ladder: AD/RD of the attack when
// the attacker's cost feedback is degraded at Rate, with the summed
// resilience telemetry of the runs at that rung.
type FaultPoint struct {
	Rate   float64
	PipaAD Stats   // AD of the PIPA injection across runs
	FsmAD  Stats   // AD of the random FSM injection across runs
	RD     float64 // mean AD(PIPA) - AD(FSM), Def. 2.5

	Injected  int64 // faults fired against the attacker's oracle
	Retries   int64 // transient-error retries
	Giveups   int64 // calls whose retries ran out
	Trips     int64 // circuit-breaker openings
	Fallbacks int64 // calls served by the heuristic fallback cost model
}

// FaultSweepResult is the degradation-curve data of the fault experiments:
// how gracefully PIPA's attack effectiveness decays as its cost-oracle
// feedback channel gets noisier.
type FaultSweepResult struct {
	Setup   string
	Advisor string
	Seed    int64
	Points  []FaultPoint
}

// FaultRates builds the sweep ladder for a given ceiling: {0, 1/8, 1/4,
// 1/2, 1}·max. The zero rung doubles as a built-in control — its AD/RD must
// match a fault-free run exactly.
func FaultRates(max float64) []float64 {
	if max <= 0 {
		max = 0.4
	}
	return []float64{0, max / 8, max / 4, max / 2, max}
}

// RunFaultSweep runs the PIPA protocol against one advisor at each fault
// rate and reports the AD/RD degradation curve. Only the attacker's side is
// degraded: each (rate, run) cell owns a chaos-wrapped what-if oracle
// (transient errors, latency spikes on a virtual clock, noisy and stale
// cost estimates, dropped probe responses) feeding the probe/inject loop,
// while the victim trains and is measured on the setup's clean oracle.
// Every fault decision derives from (FaultSeed, cell), so the sweep is
// byte-identical at any worker width, and completed cells checkpoint to the
// setup's journal for kill-and-resume.
func RunFaultSweep(ctx context.Context, s *Setup, advisorName string, rates []float64) (*FaultSweepResult, error) {
	if rates == nil {
		rates = FaultRates(s.FaultRate)
	}
	res := &FaultSweepResult{Setup: s.Name, Advisor: advisorName, Seed: s.FaultSeed}
	nRuns := s.Runs

	cells, err := par.MapCtx(ctx, s.pool("faultsweep"), len(rates)*nRuns, func(ctx context.Context, i int) (faultCell, error) {
		ri, run := i/nRuns, i%nRuns
		rate := rates[ri]
		return Journaled(s, fmt.Sprintf("faultsweep/%s/rate=%g/run=%d", advisorName, rate, run), func() (faultCell, error) {
			st := s.FaultTester(rate, int64(i))
			_, results, err := s.adCell(ctx, st, advisorName, run, s.NormalWorkload(run), s.PipaCfg.Na,
				pipa.FSMInjector{Tester: st}, pipa.InjectorByName(st, s.AttackName()))
			if err != nil {
				return faultCell{}, err
			}
			fs := st.WhatIf.FaultStats()
			return faultCell{
				FsmAD: results[0].AD, PipaAD: results[1].AD,
				Injected: fs.Injected, Retries: fs.Retries, Giveups: fs.Giveups,
				Trips: fs.Trips, Fallbacks: fs.Fallbacks,
			}, nil
		})
	})
	if err != nil {
		return nil, err
	}

	for ri, rate := range rates {
		p := FaultPoint{Rate: rate}
		pipaADs := make([]float64, nRuns)
		fsmADs := make([]float64, nRuns)
		rd := 0.0
		for run := 0; run < nRuns; run++ {
			c := cells[ri*nRuns+run]
			pipaADs[run], fsmADs[run] = c.PipaAD, c.FsmAD
			rd += c.PipaAD - c.FsmAD
			p.Injected += c.Injected
			p.Retries += c.Retries
			p.Giveups += c.Giveups
			p.Trips += c.Trips
			p.Fallbacks += c.Fallbacks
		}
		p.PipaAD = NewStats(pipaADs)
		p.FsmAD = NewStats(fsmADs)
		p.RD = rd / float64(nRuns)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// String renders the degradation curve.
func (r *FaultSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fault sweep (AD/RD degradation vs fault rate) — %s / %s ==\n", r.Setup, r.Advisor)
	fmt.Fprintf(&b, "%8s %8s %8s %8s %9s %8s %8s %6s %9s\n",
		"rate", "meanAD", "stdAD", "RD", "injected", "retries", "giveups", "trips", "fallbacks")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.3f %+8.3f %8.3f %+8.3f %9d %8d %8d %6d %9d\n",
			p.Rate, p.PipaAD.Mean, p.PipaAD.Std, p.RD, p.Injected, p.Retries, p.Giveups, p.Trips, p.Fallbacks)
	}
	return b.String()
}
