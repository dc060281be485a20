package pipa

import (
	"context"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/workload"
)

var (
	injectAttempts = obs.GetCounter("pipa_inject_attempts_total")
	injectAccepted = obs.GetCounter("pipa_inject_accepted_total")
)

// Segments partitions the estimated preference ranking into top-ranked,
// mid-ranked and low-ranked columns (§5, Fig. 6). By default the top segment
// is the best column plus its foreign-key closure (the paper's §6.4 finding:
// the stress test must exclude l_partkey together with ps_partkey and
// p_partkey), and the mid segment extends to rank L/4 (§6.2). Both
// boundaries can be overridden through Config for the Fig. 10 sweeps.
func (st *StressTester) Segments(pref *Preference) (top, mid, low []string) {
	L := len(pref.Ranking)
	if L == 0 {
		return nil, nil, nil
	}
	inTop := make(map[string]bool)
	for i := 0; i < st.Cfg.MidStart-1 && i < L; i++ {
		inTop[pref.Ranking[i]] = true
	}
	// The best index's foreign-key closure always belongs to the top
	// segment, whatever the start boundary (§5: "we treat the best index
	// and its foreign keys as the top-ranked index").
	for _, c := range st.Schema.FKClosure(pref.Ranking[0]) {
		inTop[c] = true
	}
	end := st.Cfg.MidEnd
	if end <= 0 {
		end = L / 4
	}
	if end > L {
		end = L
	}
	for i, c := range pref.Ranking {
		switch {
		case inTop[c]:
			top = append(top, c)
		case i < end:
			mid = append(mid, c)
		default:
			low = append(low, c)
		}
	}
	return top, mid, low
}

// Inject implements Algorithm 2: it generates the toxic injection workload
// TW. Each query targets columns sampled from the mid-ranked segment and is
// kept only if it (1) is optimized by indexes on those columns and (2) is
// not optimized by an index on the top-ranked column — so retraining demotes
// the advisor's best columns and promotes mid-ranked ones, trapping it in a
// local optimum (§5).
func (st *StressTester) Inject(ctx context.Context, pref *Preference) *workload.Workload {
	return st.InjectN(ctx, pref, st.Cfg.Na)
}

// InjectN is Inject with an explicit injection size. Injectors use it rather
// than temporarily rewriting Cfg.Na, which would race when experiment cells
// share a stress tester across worker goroutines. Cancelling ctx stops
// generation and returns the injection built so far.
func (st *StressTester) InjectN(ctx context.Context, pref *Preference, na int) *workload.Workload {
	_, span := obs.StartSpanCtx(ctx, "pipa.inject")
	defer span.End()
	rng := st.rng(2)
	top, mid, _ := st.Segments(pref)
	// Restrict the sampling pool to columns the probe actually observed
	// (K > 0): unobserved ranks are noise, and targeting them produces the
	// ineffective near-zero-reward injections of the low-rank analysis
	// (§5's argument against the low segment applies to them too).
	observed := mid[:0:0]
	for _, c := range mid {
		if pref.K[c] > 0 {
			observed = append(observed, c)
		}
	}
	if len(observed) >= 2 {
		mid = observed
	}
	if len(mid) == 0 {
		mid = pref.Ranking // degenerate ranking: fall back to everything
	}
	var topIdx []cost.Index
	if len(top) > 0 {
		topIdx = []cost.Index{cost.NewIndex(top[0])}
	} else if len(pref.Ranking) > 0 {
		topIdx = []cost.Index{cost.NewIndex(pref.Ranking[0])}
	}

	tw := &workload.Workload{}
	reserve := &workload.Workload{} // mid-targeted queries that failed the filter
	maxAttempts := na * 12
	for attempt := 0; tw.Len() < na && attempt < maxAttempts; attempt++ {
		if ctx != nil && ctx.Err() != nil {
			return tw
		}
		injectAttempts.Inc()
		cs := sampleUniform(mid, st.Cfg.NumCols, rng)
		q, err := st.Gen.Generate(cs, st.Cfg.RewardTarget, rng)
		if err != nil || q == nil {
			continue
		}
		// Filter (Alg. 2 line 4): indexes on {c} must beat the top-ranked
		// index on this query.
		var midIdx []cost.Index
		for _, c := range cs {
			midIdx = append(midIdx, cost.NewIndex(c))
		}
		if st.WhatIf.QueryCost(q, midIdx) < st.WhatIf.QueryCost(q, topIdx) {
			injectAccepted.Inc()
			tw.Add(q, 1)
		} else {
			reserve.Add(q, 1)
		}
	}
	// An empty injection would silently skip the stress test; fall back to
	// the unfiltered mid-targeted queries — weaker, but still toxic-leaning.
	for i := 0; tw.Len() < na && i < reserve.Len(); i++ {
		tw.Add(reserve.Queries[i], reserve.Freqs[i])
	}
	// Last resort (tiny probing budgets can leave an unusable mid pool):
	// single-column generation over the mid segment.
	for attempt := 0; tw.Len() < na && attempt < na*4; attempt++ {
		if ctx != nil && ctx.Err() != nil {
			return tw
		}
		injectAttempts.Inc()
		cs := sampleUniform(mid, 1, rng)
		if q, err := st.Gen.Generate(cs, st.Cfg.RewardTarget, rng); err == nil && q != nil {
			tw.Add(q, 1)
		}
	}
	return tw
}

// sampleUniform draws up to k distinct values uniformly from pool.
func sampleUniform(pool []string, k int, rng *rand.Rand) []string {
	if k > len(pool) {
		k = len(pool)
	}
	perm := rng.Perm(len(pool))
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}
