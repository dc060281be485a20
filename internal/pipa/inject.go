package pipa

import (
	"context"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/sql"
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

// InjectN implements Algorithm 2: it generates a toxic injection workload TW
// of na queries. Each query targets columns sampled from the mid-ranked
// segment and is kept only if it (1) is optimized by indexes on those columns
// and (2) is not optimized by an index on the top-ranked column — so
// retraining demotes the advisor's best columns and promotes mid-ranked ones,
// trapping it in a local optimum (§5). The size is an argument rather than
// Cfg.Na rewritten in place, which would race when experiment cells share a
// stress tester across worker goroutines. Cancelling ctx stops generation
// and returns the injection built so far.
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
	topIdx := bestIndex(top, pref.Ranking)

	// Filter (Alg. 2 line 4): indexes on {c} must beat the top-ranked index
	// on the query; mid-targeted queries that fail it go to the reserve.
	tw := &workload.Workload{}
	reserve := &workload.Workload{}
	attempts := st.generate(ctx, tw, mid, st.Cfg.NumCols, st.Cfg.RewardTarget, na, na*12, rng, func(q *sql.Query, cs []string) bool {
		if st.cheaper(q, cs, topIdx, 1) {
			return true
		}
		reserve.Add(q, 1)
		return false
	})
	injectAccepted.Add(int64(tw.Len()))
	if ctx != nil && ctx.Err() != nil {
		injectAttempts.Add(int64(attempts))
		return tw
	}
	// An empty injection would silently skip the stress test; fall back to
	// the unfiltered mid-targeted queries — weaker, but still toxic-leaning.
	for i := 0; tw.Len() < na && i < reserve.Len(); i++ {
		tw.Add(reserve.Queries[i], reserve.Freqs[i])
	}
	// Last resort (tiny probing budgets can leave an unusable mid pool):
	// single-column generation over the mid segment.
	attempts += st.generate(ctx, tw, mid, 1, st.Cfg.RewardTarget, na, na*4, rng, nil)
	injectAttempts.Add(int64(attempts))
	return tw
}

// generate is the one sample→generate→filter loop every IABART-based
// injector runs (DESIGN.md §14.1): each attempt samples k columns uniformly
// from pool, asks IABART for a query over them at the given reward target,
// and adds the query to w with unit frequency when keep accepts it (a nil
// keep accepts every query). It stops once w holds n queries, after
// maxAttempts attempts, or when ctx is cancelled, and returns the attempts it
// spent. An empty pool spends none.
func (st *StressTester) generate(ctx context.Context, w *workload.Workload, pool []string, k int, target float64, n, maxAttempts int, rng *rand.Rand, keep func(q *sql.Query, cs []string) bool) int {
	if len(pool) == 0 {
		return 0
	}
	attempts := 0
	for ; w.Len() < n && attempts < maxAttempts; attempts++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		cs := sampleUniform(pool, k, rng)
		q, err := st.Gen.Generate(cs, target, rng)
		if err == nil && q != nil && (keep == nil || keep(q, cs)) {
			w.Add(q, 1)
		}
	}
	return attempts
}

// cheaper reports whether single-column indexes on cs cost q less than
// factor times its cost under the configuration than. The what-if oracle
// prices cs's indexes first.
func (st *StressTester) cheaper(q *sql.Query, cs []string, than []cost.Index, factor float64) bool {
	idx := make([]cost.Index, len(cs))
	for i, c := range cs {
		idx[i] = cost.NewIndex(c)
	}
	return st.WhatIf.QueryCost(q, idx) < st.WhatIf.QueryCost(q, than)*factor
}

// bestIndex returns a one-index configuration on the victim's top-ranked
// column: the head of the top segment, else of the ranking (nil when both
// are empty).
func bestIndex(top, ranking []string) []cost.Index {
	if len(top) == 0 {
		top = ranking
	}
	if len(top) == 0 {
		return nil
	}
	return []cost.Index{cost.NewIndex(top[0])}
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
