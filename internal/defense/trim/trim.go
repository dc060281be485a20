// Package trim implements the TRIM family of robust-retraining screeners
// (DESIGN.md §13). Where defense.Sanitizer judges queries one at a time
// against reference statistics, a trim screener trains *through* the
// contaminated batch: it repeatedly retrains a snapshottable advisor on
// candidate subsets of W ∪ Ŵ, scores every query by the per-query loss of the
// resulting model against the clean what-if oracle, and keeps the subset the
// estimator itself fits best. Poison then has to survive the fit, not a
// per-query heuristic — which is what catches distribution-consistent
// injections the sanitizer's column tests miss.
//
// Three variants mirror the TRIM literature's line-up:
//
//   - trim: TRIM proper — seed a random (1−ε)·n subset, fit, re-select the
//     lowest-loss subset, repeat until the kept set is stable.
//   - atrim: alternating TRIM — start from a fit on the full batch and
//     alternate model fitting with subset selection.
//   - irl: iterative retrain-and-reweight — soft per-query weights
//     w_i = 1/(1+βℓ_i) instead of a hard subset, hardened only at the end.
//
// Every fit restores the advisor byte-exactly first (advisor.Snapshotter), so
// scratch fits never leak into served state, and the advisor is restored once
// more before Screen returns. All variants are deterministic for a fixed
// Config.Seed and insensitive to the order of the incoming batch: queries are
// canonicalized (sorted by text) before any fit, so a permuted batch selects
// the identical subset (FuzzTrimSubsetStable pins this).
//
// Dropping is deliberately more conservative than subset selection. The
// (1−ε)·n subset is an internal fitting device; a query is only dropped when
// (a) the model class passes the realizability probe — with Config.Reference
// set, the *deployed* estimator must already serve the trusted workload
// within fitCeiling, else clean traffic provably shows high regret
// here and the screener abstains before fitting anything, (b) the final kept
// subset is itself well-fit (worst loss at most the same ceiling — TRIM's
// identification premise on the batch), (c) the query never made any fitted
// subset and its loss stayed above the kept subset's worst loss by a
// relative + absolute margin in *every* iteration — one good fit vindicates a
// query that a noisy retrain penalized. On a clean batch the out-of-subset
// queries are the ones the index budget cannot serve, which either trips the
// realizability probe or keeps the fitted subset's worst loss above the
// ceiling, so nothing is dropped — the zero-false-positive property the
// defensesweep's rate-0 rung and TestTrimScreenCleanZeroFalsePositives
// verify.
package trim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// Process-wide trim counters (ISSUE 9: obs instrumentation).
var (
	iterationsTotal = obs.GetCounter("defense_trim_iterations_total")
	droppedTotal    = obs.GetCounter("defense_trim_dropped_total")
	keptTotal       = obs.GetCounter("defense_trim_kept_total")
)

// Variant selects the robust estimator.
type Variant int

const (
	// TRIM fits on a random initial subset and re-selects to convergence.
	TRIM Variant = iota
	// ATRIM alternates a full restore-and-fit with subset selection,
	// starting from a fit on the whole batch.
	ATRIM
	// IRL reweights every query by its loss each round instead of hard
	// subset selection, hardening to a subset only for the final verdict.
	IRL
)

// String names the variant; the names double as -screen strategy tokens and
// quarantine-reason prefixes.
func (v Variant) String() string {
	switch v {
	case ATRIM:
		return "atrim"
	case IRL:
		return "irl"
	default:
		return "trim"
	}
}

// ParseVariant resolves a strategy token to its variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "trim":
		return TRIM, nil
	case "atrim":
		return ATRIM, nil
	case "irl":
		return IRL, nil
	}
	return TRIM, fmt.Errorf("trim: unknown variant %q (want trim, atrim or irl)", s)
}

// The refit loop's fixed parameters.
const (
	// maxIters bounds the refit loop.
	maxIters = 4

	// relMargin and absMargin set the final drop rule: an out-of-subset
	// query is dropped only when its smallest loss across every iteration
	// exceeds
	//   maxKept + relMargin·(maxKept − minKept) + absMargin,
	// where maxKept/minKept bracket the final subset's losses. The margins
	// are what keep clean batches drop-free: legitimate queries the index
	// budget cannot serve land near the kept losses, not past the margin.
	relMargin = 0.5
	absMargin = 0.05

	// fitCeiling is the abstention gate: queries are dropped only when the
	// final kept subset's worst loss is at most this ceiling. A kept subset
	// the estimator cannot serve breaks TRIM's identification premise — high
	// loss then means "the index budget is starved", not "poison" — so the
	// screener keeps everything rather than guess.
	fitCeiling = 0.2
)

// Config parameterizes a Screener.
type Config struct {
	// Variant selects the estimator. Default TRIM.
	Variant Variant

	// Epsilon is the assumed contamination rate: each fit keeps the
	// lowest-loss n − ⌊ε·n⌋ queries. Clamped to [0, 0.45] (a majority must
	// stay trusted). Default 0.2.
	Epsilon float64

	// Reference, when non-nil, is a trusted clean workload used as a
	// realizability probe before any fit: if the *deployed* estimator's worst
	// regret on the reference already exceeds fitCeiling, the model class
	// provably cannot serve even known-clean traffic with low loss (the index
	// budget is smaller than the clean demand), so a high loss carries no
	// poison evidence and the screener abstains without fitting anything.
	// This is TRIM's classical requirement that the clean data be realizable,
	// checked instead of assumed.
	Reference *workload.Workload

	// Seed drives the TRIM variant's initial random subset. The other
	// variants are seed-free.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.2
	}
	if c.Epsilon < 0 {
		c.Epsilon = 0
	}
	if c.Epsilon > 0.45 {
		c.Epsilon = 0.45
	}
	return c
}

// Screener is a TRIM-style robust-retraining screener over one advisor. It
// implements defense.Screener and defense.CtxScreener; like the advisors it
// wraps, it is not safe for concurrent use.
type Screener struct {
	adv    advisor.Snapshottable
	whatIf *cost.WhatIf
	cfg    Config
}

// New builds a screener over the advisor whose update path it protects. The
// screener fits adv on candidate subsets during Screen and restores it
// byte-exactly before returning.
func New(adv advisor.Snapshottable, whatIf *cost.WhatIf, cfg Config) *Screener {
	return &Screener{adv: adv, whatIf: whatIf, cfg: cfg.withDefaults()}
}

// Name implements defense.Screener; it is the variant's strategy token.
func (s *Screener) Name() string { return s.cfg.Variant.String() }

// Screen implements defense.Screener.
func (s *Screener) Screen(incoming *workload.Workload) (*workload.Workload, *defense.Report) {
	return s.ScreenCtx(context.Background(), incoming)
}

// ScreenCtx implements defense.CtxScreener: the pass records a "guard:trim"
// child span annotated with the variant, iteration count and verdict.
func (s *Screener) ScreenCtx(ctx context.Context, incoming *workload.Workload) (*workload.Workload, *defense.Report) {
	report := &defense.Report{Strategy: s.Name(), Reasons: make(map[string]string)}
	n := incoming.Len()
	if n == 0 {
		return incoming, report
	}
	sp := obs.SpanFrom(ctx).StartChild("guard:trim")
	defer sp.End()
	sp.Annotate("variant", s.Name())
	sp.Annotate("batch_queries", strconv.Itoa(n))

	keep := n - int(s.cfg.Epsilon*float64(n))
	if keep < 1 {
		keep = 1
	}
	pre, err := s.adv.Snapshot()
	if err != nil || keep >= n {
		// keep >= n: the contamination budget rounds to zero queries, there
		// is nothing to trim. Snapshot failure: scratch fits would be
		// irreversible, so fail open — the guard's own snapshot gate will
		// refuse the update if snapshots are genuinely broken.
		if err != nil {
			sp.Event("trim:snapshot-failed", "error", err.Error())
		}
		report.Kept = n
		keptTotal.Add(int64(n))
		return incoming, report
	}

	// Realizability probe: before trusting any loss, check that the deployed
	// estimator serves the trusted reference within the ceiling. If it cannot
	// serve traffic known to be clean, high regret on the incoming batch is a
	// statement about the estimator's capacity, not about poison. When the
	// probe passes, refMax is kept as a calibration point: the reference just
	// demonstrated that clean traffic legitimately reaches that loss on this
	// estimator, so the drop threshold below is floored at refMax + absMargin
	// — a query no worse than observed clean tail traffic is never dropped.
	refMax := -1.0
	if ref := s.cfg.Reference; ref != nil && ref.Len() > 0 {
		refMax = maxLoss(newFitter(s, ref).currentLosses())
		if err := s.adv.Restore(pre); err != nil {
			// Recommend can advance a trial-based advisor's RNG stream; the
			// probe must leave no trace either way.
			panic(fmt.Sprintf("trim: restore after reference probe failed: %v", err))
		}
		if refMax > fitCeiling {
			sp.Event("trim:abstain", "reference_max_loss", fmt.Sprintf("%.3f", refMax))
			report.Kept = n
			keptTotal.Add(int64(n))
			return incoming, report
		}
		sp.Annotate("reference_max_loss", fmt.Sprintf("%.3f", refMax))
	}

	// Canonical order (query text, then frequency, then arrival) makes every
	// fit and selection independent of how the batch was permuted.
	ord := canonicalOrder(incoming)
	cw := &workload.Workload{}
	for _, oi := range ord {
		cw.Add(incoming.Queries[oi], incoming.Freqs[oi])
	}

	f := newFitter(s, cw)
	var r fitResult
	switch s.cfg.Variant {
	case ATRIM:
		r = runTRIM(f, pre, keep, allIndices(n))
	case IRL:
		r = runIRL(f, pre, keep)
	default:
		subset := rand.New(rand.NewSource(s.cfg.Seed)).Perm(n)[:keep]
		sort.Ints(subset)
		r = runTRIM(f, pre, keep, subset)
	}
	minKept, maxKept, meanKept := subsetLossStats(r.losses, r.subset)
	obs.Record(obs.Name("defense_trim_loss", "variant", s.Name()), meanKept)
	threshold := maxKept + relMargin*(maxKept-minKept) + absMargin
	if floor := refMax + absMargin; refMax >= 0 && threshold < floor {
		// Calibrated floor: when the kept subset fits tighter than the clean
		// reference's own tail, the fit-relative threshold would condemn loss
		// levels the reference proved harmless.
		threshold = floor
	}

	dropOrig := make(map[int]bool)
	if maxKept <= fitCeiling {
		// The estimator serves its kept subset, so a query whose loss never
		// came down is evidence, not budget starvation.
		var cand []int
		for ci := 0; ci < n; ci++ {
			if !r.everKept[ci] && r.minLoss[ci] > threshold {
				cand = append(cand, ci)
			}
		}
		if len(cand) > 0 {
			// Advocacy fit: before damning the candidates, retrain once from
			// the trusted pre-state on kept ∪ candidates. A budget-starved
			// clean query gets served when trained on directly and is
			// vindicated; poison that can only be served by dethroning the
			// kept subset stays high-loss and is dropped. (Poison that wins
			// the budget competition outright would have been served by the
			// ordinary fits and protected already, so this extra fit can only
			// reduce false positives, never detection.)
			union := append(append([]int(nil), r.subset...), cand...)
			sort.Ints(union)
			r.observe(f.fit(pre, union, nil))
			r.iters++
		}
		reason := fmt.Sprintf("%s:high-loss iter=%d", s.Name(), r.iters)
		for _, ci := range cand {
			if r.minLoss[ci] > threshold {
				dropOrig[ord[ci]] = true
				report.Reasons[incoming.Queries[ord[ci]].String()] = reason
			}
		}
	} else {
		sp.Event("trim:abstain", "max_kept_loss", fmt.Sprintf("%.3f", maxKept))
	}
	if err := s.adv.Restore(pre); err != nil {
		// The snapshot came from Snapshot() moments ago; failing to restore
		// it means memory corruption — nothing safe to continue with.
		panic(fmt.Sprintf("trim: restore after scratch fits failed: %v", err))
	}
	iterationsTotal.Add(int64(r.iters))

	kept := &workload.Workload{}
	for i, q := range incoming.Queries {
		if dropOrig[i] {
			report.Dropped++
			continue
		}
		kept.Add(q, incoming.Freqs[i])
		report.Kept++
	}
	droppedTotal.Add(int64(report.Dropped))
	keptTotal.Add(int64(report.Kept))
	sp.Annotate("iterations", strconv.Itoa(r.iters))
	sp.Annotate("dropped", strconv.Itoa(report.Dropped))
	sp.Annotate("kept", strconv.Itoa(report.Kept))
	return kept, report
}

// fitResult is the outcome of one variant's refit loop, all in canonical
// batch order: the final per-query losses, each query's best loss across
// every fit (the vindication record), the final kept subset, how many fits
// ran, and which queries made at least one fitted subset.
type fitResult struct {
	losses   []float64
	minLoss  []float64
	subset   []int
	iters    int
	everKept []bool
}

// newFitResult seeds the vindication record at +∞ so the first fit defines it.
func newFitResult(n int) fitResult {
	r := fitResult{everKept: make([]bool, n), minLoss: make([]float64, n)}
	for i := range r.minLoss {
		r.minLoss[i] = math.Inf(1)
	}
	return r
}

// observe folds one fit's losses into the vindication record.
func (r *fitResult) observe(losses []float64) {
	r.losses = losses
	for i, l := range losses {
		if l < r.minLoss[i] {
			r.minLoss[i] = l
		}
	}
}

// runTRIM is the refit loop TRIM and ATRIM share: fit on subset, re-select
// the lowest-loss keep queries, and repeat until the subset is stable or the
// iteration budget runs out. TRIM proper starts from a seeded random subset;
// ATRIM starts from the full batch, so its first selection is informed by
// every query, and each later round re-fits from the trusted pre-state on
// the current subset.
func runTRIM(f *fitter, pre []byte, keep int, subset []int) fitResult {
	r := newFitResult(f.cw.Len())
	for r.iters < maxIters {
		r.iters++
		r.observe(f.fit(pre, subset, nil))
		next := selectLowest(r.losses, keep)
		markKept(r.everKept, next)
		if equalInts(next, subset) {
			break
		}
		subset = next
	}
	r.subset = subset
	return r
}

// runIRL iteratively retrains on the loss-reweighted batch: every query stays
// in the fit, but a round's high-loss queries count for less in the next. The
// weights harden to a subset only for the final verdict.
func runIRL(f *fitter, pre []byte, keep int) fitResult {
	n := f.cw.Len()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	r := newFitResult(n)
	for r.iters < maxIters {
		r.iters++
		r.observe(f.fit(pre, nil, weights))
		delta := 0.0
		for i, l := range r.losses {
			// 1/(1+4ℓ): full weight at zero loss, ~1/5 at ℓ=1. The floor
			// keeps every query in the fit so a later round can rehabilitate
			// a query an early noisy fit penalized.
			w := 1 / (1 + 4*l)
			if w < 0.05 {
				w = 0.05
			}
			if d := w - weights[i]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
			weights[i] = w
		}
		markKept(r.everKept, selectLowest(r.losses, keep))
		if delta < 0.01 {
			break
		}
	}
	r.subset = selectLowest(r.losses, keep)
	return r
}

// fitter owns the per-Screen costing state: a delta-aware coster over the
// canonical batch, the no-index base costs, and each query's best achievable
// cost under the what-if oracle's optimal single-column index.
type fitter struct {
	s       *Screener
	cw      *workload.Workload
	coster  *cost.WorkloadCoster
	basePer []float64
	bestPer []float64
	per     []float64
}

func newFitter(s *Screener, cw *workload.Workload) *fitter {
	n := cw.Len()
	f := &fitter{
		s:       s,
		cw:      cw,
		coster:  s.whatIf.NewWorkloadCoster(cw.Queries, cw.Freqs),
		basePer: make([]float64, n),
		bestPer: make([]float64, n),
		per:     make([]float64, n),
	}
	f.coster.CostPer(nil, f.basePer)
	for i, q := range cw.Queries {
		f.bestPer[i] = f.basePer[i]
		if _, reduction, ok := qgen.OptimalSingleColumn(s.whatIf, q); ok {
			if best := f.basePer[i] * (1 - reduction); best < f.bestPer[i] {
				f.bestPer[i] = best
			}
		}
	}
	return f
}

// fit restores the trusted pre-update state, retrains on the subset (or the
// weight-scaled full batch when weights is non-nil) and returns every
// query's regret loss under the resulting recommendation:
//
//	ℓ_i = (cost_i(I) − best_i) / base_i, clamped at 0,
//
// where best_i is the better of the oracle's single-column optimum and the
// achieved cost. A query no index can help has ℓ = 0 — it cannot be served
// worse than its optimum, so it can never look poisonous.
func (f *fitter) fit(pre []byte, subset []int, weights []float64) []float64 {
	if err := f.s.adv.Restore(pre); err != nil {
		panic(fmt.Sprintf("trim: restore before scratch fit failed: %v", err))
	}
	sub := &workload.Workload{}
	if weights != nil {
		for i, q := range f.cw.Queries {
			sub.Add(q, f.cw.Freqs[i]*weights[i])
		}
	} else {
		for _, i := range subset {
			sub.Add(f.cw.Queries[i], f.cw.Freqs[i])
		}
	}
	f.s.adv.Retrain(sub)
	return f.currentLosses()
}

// currentLosses scores the estimator exactly as it stands — no restore, no
// retrain — under its own recommendation for the fitter's workload. fit uses
// it after retraining; the Reference realizability probe uses it alone.
func (f *fitter) currentLosses() []float64 {
	f.coster.CostPer(f.s.adv.Recommend(f.cw), f.per)

	losses := make([]float64, len(f.per))
	for i := range losses {
		base := f.basePer[i]
		if base <= 0 {
			continue
		}
		best := f.bestPer[i]
		if f.per[i] < best {
			best = f.per[i]
		}
		losses[i] = (f.per[i] - best) / base
	}
	return losses
}

func maxLoss(losses []float64) float64 {
	m := 0.0
	for _, l := range losses {
		if l > m {
			m = l
		}
	}
	return m
}

// allIndices returns 0, 1, …, n−1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// selectLowest returns the keep lowest-loss indices, ascending. Ties break on
// the canonical index, so selection is deterministic.
func selectLowest(losses []float64, keep int) []int {
	idx := allIndices(len(losses))
	sort.Slice(idx, func(a, b int) bool {
		if losses[idx[a]] != losses[idx[b]] {
			return losses[idx[a]] < losses[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := append([]int(nil), idx[:keep]...)
	sort.Ints(out)
	return out
}

func markKept(ever []bool, subset []int) {
	for _, i := range subset {
		ever[i] = true
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetLossStats brackets and averages the losses of the kept subset.
func subsetLossStats(losses []float64, subset []int) (min, max, mean float64) {
	if len(subset) == 0 {
		return 0, 0, 0
	}
	min = losses[subset[0]]
	max = min
	for _, i := range subset {
		l := losses[i]
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		mean += l
	}
	mean /= float64(len(subset))
	return min, max, mean
}

// canonicalOrder returns the batch's indices sorted by query text, then
// descending frequency, then arrival order — the canonical order every fit
// and selection uses, so a permuted batch trims identically.
func canonicalOrder(w *workload.Workload) []int {
	ord := make([]int, w.Len())
	texts := make([]string, w.Len())
	for i := range ord {
		ord[i] = i
		texts[i] = w.Queries[i].String()
	}
	sort.Slice(ord, func(a, b int) bool {
		ia, ib := ord[a], ord[b]
		if texts[ia] != texts[ib] {
			return texts[ia] < texts[ib]
		}
		if w.Freqs[ia] != w.Freqs[ib] {
			return w.Freqs[ia] > w.Freqs[ib]
		}
		return ia < ib
	})
	return ord
}

// Strategies lists the canonical -screen strategy names BuildScreener
// accepts; any "+"-joined combination of the non-"none" tokens is also valid.
func Strategies() []string {
	return []string{"none", "sanitizer", "trim", "atrim", "irl", "sanitizer+trim"}
}

// BuildScreener resolves a -screen strategy name to a screener over the given
// advisor: "none" (or "") yields nil, "sanitizer" screens against the trusted
// reference workload, "trim"/"atrim"/"irl" robustly retrain adv, and
// "+"-joined names chain left to right ("sanitizer+trim" screens first, then
// trims the survivors). Trim variants require adv to be snapshottable.
func BuildScreener(strategy string, adv advisor.Advisor, whatIf *cost.WhatIf, reference *workload.Workload, seed int64) (defense.Screener, error) {
	if strategy == "" || strategy == "none" {
		return nil, nil
	}
	var ss []defense.Screener
	for _, part := range strings.Split(strategy, "+") {
		switch part = strings.TrimSpace(part); part {
		case "sanitizer":
			ss = append(ss, defense.NewSanitizer(whatIf, reference))
		case "trim", "atrim", "irl":
			v, _ := ParseVariant(part)
			snap, ok := adv.(advisor.Snapshottable)
			if !ok {
				return nil, fmt.Errorf("trim: advisor %s is not snapshottable; %q needs byte-exact restore", adv.Name(), part)
			}
			ss = append(ss, New(snap, whatIf, Config{Variant: v, Seed: seed, Reference: reference}))
		default:
			return nil, fmt.Errorf("trim: unknown screen strategy %q (want %s, or a '+'-chain)", part, strings.Join(Strategies(), ", "))
		}
	}
	if len(ss) == 1 {
		return ss[0], nil
	}
	return defense.NewChain(ss...), nil
}
