package pipa

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/advisor"
	"repro/internal/qgen"
	"repro/internal/sql"
	"repro/internal/workload"
)

// This file implements the openGauss PIPA reference ablation injectors
// (gen_attack_bad / gen_attack_suboptimal / gen_attack_bad_suboptimal /
// gen_attack_random_ood / gen_attack_not_ood): the attack decomposed into its
// demote and promote components, plus the out-of-distribution axis. Together
// with the §6.2 line-up and the ADAPT guard-aware attacker they form the
// attack zoo the robustness claims are evaluated against (DESIGN.md §14).

// BADInjector is the demote-only ablation (openGauss gen_attack_bad): it
// generates queries on which the victim's preferred top-ranked index earns
// (almost) nothing, so retraining sees its chosen configuration fail to pay
// off and demotes it — without steering the advisor anywhere in particular.
type BADInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (BADInjector) Name() string { return "BAD" }

// BuildInjection implements Injector. Candidates come from the random FSM
// generator (any shape is fine — the attack is in what the queries do NOT
// reward); the filter keeps a query only when the top-ranked index fails to
// improve it: cost under the victim's best index within 2% of the unindexed
// cost.
func (j BADInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	pref := st.Probe(ctx, ia)
	rng := st.rng(14)
	top, _, _ := st.Segments(pref)
	topIdx := bestIndex(top, pref.Ranking)
	f := qgen.NewFSM(st.Schema)
	w := &workload.Workload{}
	for attempts := 0; w.Len() < size && attempts < size*20; attempts++ {
		if ctx != nil && ctx.Err() != nil {
			return w
		}
		q := f.Generate(rng)
		if q == nil {
			continue
		}
		bare := st.WhatIf.QueryCost(q, nil)
		if bare <= 0 {
			continue
		}
		if st.WhatIf.QueryCost(q, topIdx) >= bare*0.98 {
			w.Add(q, 1)
		}
	}
	return w
}

// SUBInjector is the promote-only ablation (openGauss gen_attack_suboptimal):
// index-aware queries optimized by suboptimal (mid- and low-ranked) columns,
// with no requirement that they also starve the top index. Retraining is
// steered toward suboptimal configurations, but the victim's current best
// keeps earning on the normal share of the batch.
type SUBInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (SUBInjector) Name() string { return "SUB" }

// BuildInjection implements Injector.
func (j SUBInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	pref := st.Probe(ctx, ia)
	rng := st.rng(15)
	w := &workload.Workload{}
	// Promote filter only: the suboptimal indexes must genuinely optimize
	// the query (otherwise retraining learns nothing from it).
	st.generate(ctx, w, suboptimalPool(st, pref), st.Cfg.NumCols, st.Cfg.RewardTarget, size, size*20, rng, func(q *sql.Query, cs []string) bool {
		return st.cheaper(q, cs, nil, 0.95)
	})
	return w
}

// BadSubInjector is the combined ablation (openGauss
// gen_attack_bad_suboptimal): queries that both starve the top-ranked index
// and reward suboptimal ones — PIPA's Algorithm 2 filter applied over the
// whole suboptimal segment, without the observed-mid restriction and reserve
// fallbacks of the tuned attack. The gap between its AD and PIPA's measures
// what the mid-segment targeting heuristics buy.
type BadSubInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (BadSubInjector) Name() string { return "BAD+SUB" }

// BuildInjection implements Injector.
func (j BadSubInjector) BuildInjection(ctx context.Context, ia advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	pref := st.Probe(ctx, ia)
	rng := st.rng(16)
	top, _, _ := st.Segments(pref)
	topIdx := bestIndex(top, pref.Ranking)
	w := &workload.Workload{}
	st.generate(ctx, w, suboptimalPool(st, pref), st.Cfg.NumCols, st.Cfg.RewardTarget, size, size*20, rng, func(q *sql.Query, cs []string) bool {
		return st.cheaper(q, cs, topIdx, 1)
	})
	return w
}

// suboptimalPool returns the mid- and low-ranked segments together (the
// whole ranking when both are empty): the columns SUB and BAD+SUB target.
func suboptimalPool(st *StressTester, pref *Preference) []string {
	_, mid, low := st.Segments(pref)
	if pool := append(append([]string(nil), mid...), low...); len(pool) > 0 {
		return pool
	}
	return pref.Ranking
}

// ROODInjector is the random out-of-distribution ablation (openGauss
// gen_attack_random_ood): index-aware queries over columns the benchmark's
// template distribution never touches sargably. The victim has no training
// signal about these columns, so the injection probes how the advisor — and
// any distribution-anchored defense — extrapolates off-distribution.
type ROODInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (ROODInjector) Name() string { return "R-OOD" }

// BuildInjection implements Injector.
func (j ROODInjector) BuildInjection(ctx context.Context, _ advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	w := &workload.Workload{}
	st.generate(ctx, w, st.oodColumns(), st.Cfg.NumCols, st.Cfg.RewardTarget, size, size*20, st.rng(17), nil)
	return w
}

// NOODInjector is the in-distribution random baseline (openGauss
// gen_attack_not_ood): the same random index-aware generation as R-OOD but
// restricted to columns the benchmark templates do exercise. The R-OOD vs
// N-OOD pair isolates out-of-distribution-ness as the attack variable.
type NOODInjector struct {
	Tester *StressTester
}

// Name implements Injector.
func (NOODInjector) Name() string { return "N-OOD" }

// BuildInjection implements Injector.
func (j NOODInjector) BuildInjection(ctx context.Context, _ advisor.Advisor, size int) *workload.Workload {
	st := j.Tester
	w := &workload.Workload{}
	st.generate(ctx, w, st.inDistColumns(), st.Cfg.NumCols, st.Cfg.RewardTarget, size, size*20, st.rng(18), nil)
	return w
}

// distColumns lazily splits the schema's indexable columns into the set the
// benchmark template distribution touches sargably (in-distribution) and the
// rest (out-of-distribution). One deterministic instantiation per template is
// enough: template predicates hit fixed columns, only the parameter values
// vary. Cached once — the stress tester is shared across concurrent
// experiment cells.
func (st *StressTester) distColumns() ([]string, []string) {
	st.distOnce.Do(func() {
		seen := make(map[string]bool)
		rng := rand.New(rand.NewSource(st.Cfg.Seed*1000003 + 99))
		for _, t := range workload.TemplatesFor(st.Schema) {
			for _, c := range t.Instantiate(st.Schema, rng).SargableColumns() {
				seen[c] = true
			}
		}
		for _, c := range st.Schema.IndexableColumnNames() {
			if seen[c] {
				st.inDist = append(st.inDist, c)
			} else {
				st.outDist = append(st.outDist, c)
			}
		}
		sort.Strings(st.inDist)
		sort.Strings(st.outDist)
	})
	return st.inDist, st.outDist
}

// inDistColumns returns the indexable columns the benchmark templates
// exercise sargably.
func (st *StressTester) inDistColumns() []string {
	in, _ := st.distColumns()
	return in
}

// oodColumns returns the indexable columns outside the benchmark template
// distribution, falling back to the full indexable set when the templates
// cover everything (no OOD surface exists on this schema).
func (st *StressTester) oodColumns() []string {
	_, out := st.distColumns()
	if len(out) == 0 {
		return st.Schema.IndexableColumnNames()
	}
	return out
}
