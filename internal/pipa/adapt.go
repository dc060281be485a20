package pipa

import (
	"context"
	"strings"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/workload"
)

var (
	adaptProbesTotal   = obs.GetCounter("pipa_adapt_probes_total")
	adaptAcceptedTotal = obs.GetCounter("pipa_adapt_accepted_total")
	adaptRejectedTotal = obs.GetCounter("pipa_adapt_rejected_total")
)

// Verdict is what a defended victim's update surface leaks back to whoever
// submits a training batch — the /v1/update response shape of the serving
// daemon (serve.UpdateResponse): the guard's outcome for the batch plus the
// per-query screen-drop reasons. This is the entire feedback channel the
// ADAPT attacker is allowed; it never sees model internals or the canary.
type Verdict struct {
	// Outcome is the guard's classification: "committed", "rolled-back",
	// "screened", "frozen" (guard.Outcome.String()).
	Outcome string
	// Dropped maps each screened-out query's text to the screener's reason.
	Dropped map[string]string
}

// Committed reports whether the batch was accepted into the model.
func (v Verdict) Committed() bool { return v.Outcome == "committed" }

// UpdateOracle is the attacker's handle on the defended update endpoint:
// submit a batch, observe the verdict. Implementations are stateful — a
// submitted batch that commits really updates the backing model, exactly as
// POSTing it to /v1/update would.
type UpdateOracle interface {
	TryUpdate(w *workload.Workload) Verdict
}

// AdaptInjector is the guard-aware attacker: opaque-box PIPA extended with a
// verdict-feedback loop. It builds a toxic pool the usual way (probe, then
// mid-segment injection), then spends up to Cfg.AdaptProbes trial updates on
// the defended victim's update surface and mutates the pool after every
// rejection — blunting queries the screener calls too sharp, retreating to
// in-distribution columns when column-support tests fire, and diluting the
// toxic concentration with benchmark-template decoys when the canary gate
// rolls a whole batch back. Only queries that individually survived a
// committed batch enter the final injection, topped up with the current
// mutation generation when the probe budget runs out first.
//
// With a nil Oracle (no verdict surface — the unguarded victim) it degrades
// to the plain PIPA injection.
type AdaptInjector struct {
	Tester *StressTester
	// Oracle is the defended update surface to probe; nil disables the
	// feedback loop.
	Oracle UpdateOracle
}

// Name implements Injector.
func (AdaptInjector) Name() string { return "ADAPT" }

// adaptState is the attacker's current mutation generation.
type adaptState struct {
	pool         []string // column pool toxic queries target
	rewardTarget float64  // sharpness of the generated benefit profile
	toxicFrac    float64  // share of toxic queries per trial batch
}

// BuildInjection implements Injector.
func (j AdaptInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	pref := st.Probe(ctx, ia)
	if j.Oracle == nil || st.Cfg.AdaptProbes <= 0 {
		return st.InjectN(ctx, pref, size)
	}
	rng := st.rng(19)

	top, mid, _ := st.Segments(pref)
	if len(mid) == 0 {
		mid = pref.Ranking
	}
	state := adaptState{pool: mid, rewardTarget: st.Cfg.RewardTarget, toxicFrac: 1}
	topIdx := bestIndex(top, pref.Ranking)
	// generate tops w up to n with toxic candidates of the current mutation
	// state, 20 attempts per missing query: queries over the state's pool at
	// its sharpness that beat the victim's top index (the BAD+SUB filter).
	generate := func(w *workload.Workload, n int) {
		st.generate(ctx, w, state.pool, st.Cfg.NumCols, state.rewardTarget, n, (n-w.Len())*20, rng, func(q *sql.Query, cs []string) bool {
			return st.cheaper(q, cs, topIdx, 1)
		})
	}

	accepted := &workload.Workload{}
	for probe := 0; probe < st.Cfg.AdaptProbes && accepted.Len() < size; probe++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		adaptProbesTotal.Inc()

		nToxic := int(float64(size)*state.toxicFrac + 0.5)
		if nToxic < 1 {
			nToxic = 1
		}
		toxic := &workload.Workload{}
		generate(toxic, nToxic)
		batch := toxic
		if decoys := size - toxic.Len(); decoys > 0 && state.toxicFrac < 1 {
			// Dilution: pad the trial batch with benchmark-template decoys so
			// the per-update canary regression stays under the gate.
			batch = toxic.Merge(workload.GenerateNormal(st.Schema, workload.TemplatesFor(st.Schema), decoys, rng))
		}
		if batch.Len() == 0 {
			break
		}

		v := j.Oracle.TryUpdate(batch)
		if v.Committed() || v.Outcome == "" {
			// Survivors of a committed batch are proven deliverable.
			for i, q := range toxic.Queries {
				if _, dropped := v.Dropped[q.String()]; !dropped {
					if accepted.Len() < size {
						accepted.Add(q, toxic.Freqs[i])
						adaptAcceptedTotal.Inc()
					}
				}
			}
		}
		j.mutate(&state, st, v, len(v.Dropped))
	}

	// Top up with the final mutation generation: unprobed, but shaped by
	// everything the verdicts taught.
	generate(accepted, size)
	return accepted
}

// mutate evolves the attacker's state from one verdict. Each screening
// family leaks which test fired through its reason strings, and the guard's
// batch outcome leaks the canary gate — the attacker reads both.
func (j AdaptInjector) mutate(state *adaptState, st *StressTester, v Verdict, rejected int) {
	if rejected > 0 {
		adaptRejectedTotal.Add(int64(rejected))
	}
	var sharp, untrusted, highLoss bool
	for _, why := range v.Dropped {
		switch {
		case strings.Contains(why, "sharp-benefit"):
			sharp = true
		case strings.Contains(why, "unsupported-column"), strings.Contains(why, "untrusted-optimal"):
			untrusted = true
		case strings.Contains(why, "high-loss"):
			highLoss = true
		}
	}
	if sharp {
		// The sanitizer's sharpness ceiling fired: generate blunter queries
		// whose best index removes less of their cost.
		state.rewardTarget *= 0.6
		if state.rewardTarget < 0.05 {
			state.rewardTarget = 0.05
		}
	}
	if untrusted {
		// Column-support tests fired: retreat to the benchmark's own columns
		// — the attacker knows the public template distribution — keeping
		// whatever part of the current pool is in-distribution.
		inDist := st.inDistColumns()
		inSet := make(map[string]bool, len(inDist))
		for _, c := range inDist {
			inSet[c] = true
		}
		kept := state.pool[:0:0]
		for _, c := range state.pool {
			if inSet[c] {
				kept = append(kept, c)
			}
		}
		if len(kept) >= st.Cfg.NumCols {
			state.pool = kept
		} else {
			state.pool = inDist
		}
	}
	switch {
	case v.Outcome == "rolled-back", highLoss:
		// The canary gate (or a batch-global robust fit) condemned the whole
		// batch: halve the toxic concentration and hide among decoys.
		state.toxicFrac /= 2
		if state.toxicFrac < 0.125 {
			state.toxicFrac = 0.125
		}
	case v.Outcome == "frozen":
		// The breaker is open; trial batches only burn cooldown. Nothing to
		// learn — keep the state and spend the probe.
	}
}
