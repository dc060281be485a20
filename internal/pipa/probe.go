package pipa

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/advisor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workload"
)

var (
	probeEpochs = obs.GetCounter("pipa_probe_epochs_total")
	probeDrops  = obs.GetCounter("pipa_probe_drops_total")
)

// Probe implements Algorithm 1: it estimates the opaque-box advisor's
// indexing preference by iteratively submitting generated probing workloads,
// observing the recommended index configurations, and accumulating the
// expectation K(l) = E[θ̂(l, PW) · R̂(l, PW)] (Eqs. 5-8). The column-sampling
// distribution µ adapts per Eq. 9: columns with established high rewards and
// columns that persistently yield nothing are both sampled less, steering
// the budget toward informative probes.
//
// Cancelling ctx stops probing at the next epoch boundary; the returned
// preference then reflects only the epochs that completed (callers that must
// not act on a truncated probe check ctx.Err() afterwards). A configured
// fault injector can drop individual probe responses — the query is still
// spent from the budget, but its observation never reaches the estimator,
// modelling a lossy channel to the victim.
func (st *StressTester) Probe(ctx context.Context, ia advisor.Advisor) *Preference {
	_, probe := obs.StartSpanCtx(ctx, "pipa.probe")
	defer probe.End()
	rng := st.rng(1)
	cols := st.Schema.IndexableColumnNames()
	L := len(cols)
	idx := make(map[string]int, L)
	for i, c := range cols {
		idx[c] = i
	}

	mu := make([]float64, L) // sampling distribution µ
	for i := range mu {
		mu[i] = 1.0 / float64(L)
	}
	kSum := make([]float64, L)           // Σ_p θ̂·R̂ contributions
	rewardSum := make([]float64, L)      // Σ_{i<p} R̂(l, s^i) for Eq. 9
	probedEmpty := make([]float64, L)    // probes that yielded no reward (β term)
	scratch := make([]weightedCol, 0, L) // sampleColumns workspace, reused across the P×Np draws

	pref := &Preference{K: make(map[string]float64, L)}

	for p := 0; p < st.Cfg.P; p++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		epoch := probe.StartChild("probe.epoch")
		probeEpochs.Inc()
		// Build the probing workload PW_p (Alg. 1 lines 3-6).
		pw := &workload.Workload{}
		probedCols := make(map[int]bool)
		for i := 0; i < st.Cfg.Np; i++ {
			cs := sampleColumns(cols, mu, st.Cfg.NumCols, rng, &scratch)
			if len(cs) == 0 {
				break
			}
			q, err := st.Gen.Generate(cs, st.Cfg.RewardTarget, rng)
			if err != nil || q == nil {
				continue
			}
			// A dropped probe response: the budget is spent (the RNG has
			// advanced) but the observation is lost. Keyed by (epoch, slot)
			// so the decision is independent of query content and worker
			// interleaving.
			if st.Faults.Hit(fault.DroppedProbe, "probe", strconv.Itoa(p)+"/"+strconv.Itoa(i), 0) {
				probeDrops.Inc()
				continue
			}
			pw.Add(q, 1)
			for _, c := range cs {
				probedCols[idx[c]] = true
			}
		}
		if pw.Len() == 0 {
			epoch.End()
			break
		}

		// Observe the advisor's output configuration (line 7).
		rec := ia.Recommend(pw)

		// Update K by Eq. 8: every lead column of the recommended indexes
		// shares the workload's relative cost reduction equally. The
		// delta-aware session rides the per-query costs Recommend just
		// pulled through the shared what-if cache.
		reduction := st.WhatIf.NewWorkloadCoster(pw.Queries, pw.Freqs).Reduction(rec)
		recCols := make(map[int]bool, len(rec))
		if len(rec) > 0 && reduction > 0 {
			share := reduction / float64(len(rec))
			for _, ix := range rec {
				ci, ok := idx[ix.LeadColumn()]
				if !ok {
					continue
				}
				recCols[ci] = true
				kSum[ci] += share
				rewardSum[ci] += share
			}
		}
		for ci := range probedCols {
			if !recCols[ci] {
				probedEmpty[ci]++
			}
		}

		// Update µ by Eq. 9.
		rounds := float64(p + 1)
		total := 0.0
		for i := range mu {
			v := mu[i] - st.Cfg.Alpha*(rewardSum[i]/rounds) - st.Cfg.Beta*probedEmpty[i]
			if v < 0 {
				v = 0 // min(·, 0) pruning: stop probing this column
			}
			mu[i] = v
			total += v
		}
		if total <= 0 {
			// Everything pruned: probing has converged; stop early.
			pref.EpochsRun = p + 1
			epoch.End()
			break
		}
		for i := range mu {
			mu[i] /= total
		}
		recordMuEntropy(mu)

		pref.EpochsRun = p + 1
		pref.SegmentsByEpoch = append(pref.SegmentsByEpoch, st.segmentSnapshot(cols, kSum, rounds))
		epoch.End()
	}

	// Final ranking by K = (1/P) Σ θ̂·R̂ (ties broken by column order for
	// determinism).
	order := make([]int, L)
	for i := range order {
		order[i] = i
	}
	rounds := float64(pref.EpochsRun)
	if rounds == 0 {
		rounds = 1
	}
	sort.SliceStable(order, func(a, b int) bool {
		return kSum[order[a]] > kSum[order[b]]
	})
	pref.Ranking = make([]string, L)
	for i, o := range order {
		pref.Ranking[i] = cols[o]
		pref.K[cols[o]] = kSum[o] / rounds
	}
	return pref
}

// recordMuEntropy exports the Shannon entropy of the µ sampling distribution
// after each epoch's update: a falling entropy means the probe is homing in
// on a small set of preferred columns (the Alg. 1 convergence signal).
func recordMuEntropy(mu []float64) {
	h := 0.0
	for _, v := range mu {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	obs.SetGauge("pipa_probe_mu_entropy", h)
	obs.Record("pipa_probe_mu_entropy", h)
}

// segmentSnapshot computes the (top, mid, low) membership under the current
// K estimates, for convergence tracking.
func (st *StressTester) segmentSnapshot(cols []string, kSum []float64, rounds float64) [3][]string {
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return kSum[order[a]] > kSum[order[b]] })
	ranking := make([]string, len(cols))
	k := make(map[string]float64, len(cols))
	for i, o := range order {
		ranking[i] = cols[o]
		k[cols[o]] = kSum[o] / rounds
	}
	tmp := &Preference{Ranking: ranking, K: k}
	top, mid, low := st.Segments(tmp)
	return [3][]string{top, mid, low}
}

// weightedCol is one candidate of a sampleColumns draw.
type weightedCol struct {
	i int
	w float64
}

// sampleColumns draws k distinct columns from the distribution mu. scratch
// is an optional reusable workspace (may be nil): Probe calls this Np times
// per epoch, and reusing the candidate slice removes the dominant allocation
// from the BenchmarkProbing profile.
func sampleColumns(cols []string, mu []float64, k int, rng *rand.Rand, scratch *[]weightedCol) []string {
	var avail []weightedCol
	if scratch != nil {
		avail = (*scratch)[:0]
	} else {
		avail = make([]weightedCol, 0, len(cols))
	}
	total := 0.0
	for i, w := range mu {
		if w > 0 {
			avail = append(avail, weightedCol{i, w})
			total += w
		}
	}
	if scratch != nil {
		*scratch = avail // keep any growth for the next draw
	}
	var out []string
	for len(out) < k && len(avail) > 0 && total > 0 {
		r := rng.Float64() * total
		acc := 0.0
		pick := len(avail) - 1
		for j, a := range avail {
			acc += a.w
			if r < acc {
				pick = j
				break
			}
		}
		out = append(out, cols[avail[pick].i])
		total -= avail[pick].w
		avail = append(avail[:pick], avail[pick+1:]...)
	}
	return out
}
