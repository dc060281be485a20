package pipa

import (
	"context"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Result is the outcome of one stress test of one advisor by one injector.
type Result struct {
	Injector string
	Advisor  string

	BaselineCost float64 // c_b: target-workload cost under the well-trained IA (Def. 2.2)
	PoisonedCost float64 // cost after retraining on {W, Ŵ}
	AD           float64 // Absolute performance Degradation (Def. 2.3)

	BaselineIndexes []string // recommended configuration before poisoning
	PoisonedIndexes []string // recommended configuration after poisoning
	InjectionSize   int
}

// StressTest runs the full protocol of Fig. 1/Def. 2.3 for an
// already-trained advisor: record the baseline, build the injection, retrain
// the advisor on the merged workload, and measure the degradation on the
// unchanged target workload.
//
// The advisor must already be trained on w (callers typically train once and
// stress-test copies or retrain sequences). StressTest mutates the advisor
// (it retrains it) — run order matters.
//
// Workload costs are measured on the clean evaluation oracle (Eval, when the
// fault experiments split it from the attacker's WhatIf). Cancelling ctx
// abandons the protocol between phases and returns the partial Result;
// callers that persist results must check ctx.Err() first so a truncated
// run is never recorded.
func (st *StressTester) StressTest(ctx context.Context, ia advisor.Advisor, inj Injector, w *workload.Workload, injSize int) Result {
	ctx, stress := obs.StartSpanCtx(ctx, "pipa.stress")
	defer stress.End()
	res := Result{Injector: inj.Name(), Advisor: ia.Name(), InjectionSize: injSize}

	span := stress.StartChild("recommend:baseline")
	base := ia.Recommend(w)
	span.End()
	res.BaselineIndexes = indexKeys(base)
	res.BaselineCost = st.eval().WorkloadCost(w.Queries, w.Freqs, base)
	if ctx != nil && ctx.Err() != nil {
		return res
	}

	ictx, span := obs.StartSpanCtx(ctx, "inject")
	tw := inj.BuildInjection(ictx, ia, injSize)
	span.End()
	res.InjectionSize = tw.Len()
	if ctx != nil && ctx.Err() != nil {
		return res
	}

	span = stress.StartChild("retrain")
	ia.Retrain(w.Merge(tw))
	span.End()

	span = stress.StartChild("recommend:poisoned")
	poisoned := ia.Recommend(w)
	span.End()
	res.PoisonedIndexes = indexKeys(poisoned)
	res.PoisonedCost = st.eval().WorkloadCost(w.Queries, w.Freqs, poisoned)

	if res.BaselineCost > 0 {
		res.AD = (res.PoisonedCost - res.BaselineCost) / res.BaselineCost
	}
	obs.Record(obs.Name("pipa_stress_ad", "advisor", ia.Name(), "injector", inj.Name()), res.AD)
	return res
}

// RD computes the Relative performance Degradation (Def. 2.5): how much the
// toxic injector's degradation exceeds the random injector's on otherwise
// identical runs.
func RD(toxic, random Result) float64 { return toxic.AD - random.AD }

func indexKeys(idx []cost.Index) []string {
	out := make([]string, len(idx))
	for i, ix := range idx {
		out[i] = ix.Key()
	}
	return out
}
