// Package advisor defines the learned index advisors under test and their
// shared reinforcement-learning environment. The Advisor interface is the
// paper's opaque-box boundary (§2.2): PIPA may call only Train, Retrain and
// Recommend, and observe the recommended indexes — never the internals.
//
// Four learned advisors from the paper's evaluation are implemented in
// subpackages: DQN [20] and DRLindex [29,30] as the two kinds of one
// Q-learning advisor (dqn), DBA-bandit [26] (bandit) and SWIRL [19] (swirl),
// plus the heuristic comparator whose AD is identically zero (heuristic).
package advisor

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Episode-level counters shared by every learned advisor; cached handles
// keep the per-step cost to one atomic add.
var (
	episodesTotal     = obs.GetCounter("advisor_episodes_total")
	episodeStepsTotal = obs.GetCounter("advisor_episode_steps_total")
)

// Advisor is an updatable learned index advisor.
type Advisor interface {
	// Name identifies the advisor including its variant, e.g. "DQN-b".
	Name() string
	// TrialBased reports whether inference iterates trial trajectories
	// (paper §1 C2): true for DQN, DRLindex and DBA-bandit; false for the
	// one-off SWIRL.
	TrialBased() bool
	// Train optimizes parameters from scratch on the training workload.
	Train(w *workload.Workload)
	// Retrain updates the current parameters on a new training set (warm
	// start) — the "updatable" path PIPA poisons.
	Retrain(w *workload.Workload)
	// Recommend returns an index configuration for the target workload,
	// respecting the budget.
	Recommend(w *workload.Workload) []cost.Index
}

// Introspector optionally exposes an advisor's true per-column preference
// weights. Only the clear-box P-C baseline uses it; PIPA itself never does.
type Introspector interface {
	ColumnPreferences() map[string]float64
}

// Cloner is implemented by advisors that can duplicate their trained state.
// Experiment drivers train one baseline per run and stress-test an identical
// clone per injector, so injections never contaminate each other.
type Cloner interface {
	CloneAdvisor() Advisor
}

// Variant selects the paper's two training/inference implementations (§6.1).
type Variant int

const (
	// Best keeps the parameters of the best trajectory and delivers the
	// best trial at inference ("-b").
	Best Variant = iota
	// Mean keeps the average parameters of the last trajectories and
	// reports a representative of the last trials at inference ("-m").
	Mean
)

// String returns the variant suffix.
func (v Variant) String() string {
	if v == Mean {
		return "m"
	}
	return "b"
}

// Config collects the knobs shared by the learned advisors. The paper's
// setting is Budget 4, 400 training trajectories (20 for DBA-bandit) and 400
// (20) inference trials; defaults here are scaled down for simulation speed
// and can be raised to the paper's values.
type Config struct {
	Budget            int     // maximum number of indexes (paper: B = 4)
	Trajectories      int     // training trajectories per workload
	InferTrajectories int     // trial trajectories at inference (trial-based IAs)
	MeanWindow        int     // window for the Mean variant's parameter average
	Hidden            int     // hidden layer width
	LR                float64 // learning rate
	Epsilon           float64 // exploration rate (DQN-family)
	Seed              int64
	Variant           Variant

	// Trace, when non-nil, receives each training trajectory's total reward
	// as it completes. The Fig. 8 case studies use it to plot learning
	// curves across train/retrain phases.
	Trace func(reward float64)
}

// DefaultConfig returns the scaled-down defaults.
func DefaultConfig() Config {
	return Config{
		Budget:            4,
		Trajectories:      60,
		InferTrajectories: 20,
		MeanWindow:        10,
		Hidden:            64,
		LR:                1e-3,
		Epsilon:           0.2,
		Seed:              1,
	}
}

// RecordTrainReward feeds one training trajectory's total reward into the
// observability layer: a per-advisor reward series (the learning curve the
// run report exports) and a last-reward gauge. Advisors call it from their
// training loops next to the Config.Trace hook.
func RecordTrainReward(advisorName string, reward float64) {
	obs.Record(obs.Name("advisor_train_reward", "advisor", advisorName), reward)
	obs.SetGauge(obs.Name("advisor_last_train_reward", "advisor", advisorName), reward)
}

// Env is the index-selection environment shared by all learned advisors:
// the action space is the schema's indexable columns, an episode adds up to
// Budget single-column indexes, and rewards derive from what-if costs.
type Env struct {
	Schema  *catalog.Schema
	WhatIf  *cost.WhatIf
	Columns []string // fixed action order
	ColIdx  map[string]int
}

// NewEnv builds an environment over the schema with a shared what-if cache.
func NewEnv(s *catalog.Schema, w *cost.WhatIf) *Env {
	cols := s.IndexableColumnNames()
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[c] = i
	}
	return &Env{Schema: s, WhatIf: w, Columns: cols, ColIdx: idx}
}

// L returns the action-space size (number of indexable columns).
func (e *Env) L() int { return len(e.Columns) }

// FeatureDim is the number of per-column workload features.
const FeatureDim = 4

// Featurize computes per-column workload features, flattened to a vector of
// length L × FeatureDim: [weighted sargable appearances, best predicate
// selectivity potential, join-key weight, group/order weight]. Everything is
// derivable from the query texts and catalog statistics — no execution.
func (e *Env) Featurize(w *workload.Workload) []float64 {
	f := make([]float64, e.L()*FeatureDim)
	totalFreq := 0.0
	for _, fr := range w.Freqs {
		totalFreq += fr
	}
	if totalFreq == 0 {
		totalFreq = 1
	}
	for qi, q := range w.Queries {
		freq := w.Freqs[qi] / totalFreq
		for _, p := range q.Where {
			if !p.Op.Sargable() {
				continue
			}
			ci, ok := e.ColIdx[p.Column]
			if !ok {
				continue
			}
			f[ci*FeatureDim] += freq
			// Selectivity potential: 1 - sel, larger is better.
			pot := 1 - 1/float64(e.Schema.ColumnNDV(p.Column))
			if pot > f[ci*FeatureDim+1] {
				f[ci*FeatureDim+1] = pot
			}
		}
		for _, j := range q.Joins {
			for _, c := range []string{j.Left, j.Right} {
				if ci, ok := e.ColIdx[c]; ok {
					f[ci*FeatureDim+2] += freq
				}
			}
		}
		for _, c := range q.GroupBy {
			if ci, ok := e.ColIdx[c]; ok {
				f[ci*FeatureDim+3] += freq
			}
		}
		for _, o := range q.OrderBy {
			if ci, ok := e.ColIdx[o.Column]; ok {
				f[ci*FeatureDim+3] += freq
			}
		}
	}
	return f
}

// PresenceVector returns the binary column-presence state DRLindex uses: 1
// where the workload references the column at all, else 0. Its sparsity is
// the vulnerability the paper analyzes (§6.2 "comparison across IAs").
func (e *Env) PresenceVector(w *workload.Workload) []float64 {
	f := make([]float64, e.L())
	for _, q := range w.Queries {
		for _, c := range q.ReferencedColumns() {
			if ci, ok := e.ColIdx[c]; ok {
				f[ci] = 1
			}
		}
	}
	return f
}

// SargableMask reports, per column, whether the workload contains a sargable
// reference. SWIRL's invalid-action masking and DQN's candidate filtering
// both start from this mask.
func (e *Env) SargableMask(w *workload.Workload) []bool {
	mask := make([]bool, e.L())
	for _, q := range w.Queries {
		for _, c := range q.SargableColumns() {
			if ci, ok := e.ColIdx[c]; ok {
				mask[ci] = true
			}
		}
	}
	return mask
}

// CandidateFilter is DQN's heuristic index-candidate selection: sargable
// columns whose statistics make them plausible indexes (enough distinct
// values to be selective). The paper observes this filter removing columns
// like c_phone and o_retailprice targeted by low-rank injections (§6.2).
func (e *Env) CandidateFilter(w *workload.Workload) []bool {
	mask := e.SargableMask(w)
	for i, ok := range mask {
		if !ok {
			continue
		}
		if e.Schema.ColumnNDV(e.Columns[i]) < 8 {
			mask[i] = false
		}
	}
	return mask
}

// Episode is one index-selection rollout: starting from no indexes, each
// Step adds one single-column index and yields a reward.
//
// The default reward is the workload-level relative cost reduction (the
// aggregation DQN, SWIRL and DBA-bandit use). Per-query costs are tracked so
// DRLindex can derive its per-query inverse-cost reward — the over-sensitive
// aggregation that weights every query equally regardless of its absolute
// cost, which is what gives injected workloads influence proportional to
// their query count ω (§6.2, Fig. 9).
type Episode struct {
	env       *Env
	w         *workload.Workload
	budget    int
	coster    *cost.WorkloadCoster
	baseCost  float64   // Σ freq·cost with no indexes (absolute)
	curCost   float64   // Σ freq·cost under the current configuration
	perBase   []float64 // per-query no-index costs
	perCur    []float64 // per-query current costs
	freqTotal float64
	chosen    []int
	chosenSet map[int]bool
	indexes   []cost.Index
}

// NewEpisode starts a rollout for the workload. Costing runs through a
// delta-aware WorkloadCoster session: each Step grows the configuration by
// one index, so only the queries referencing that index's columns are
// re-costed — the rest of the workload's costs carry over bit-identically.
func (e *Env) NewEpisode(w *workload.Workload, budget int) *Episode {
	episodesTotal.Inc()
	ep := &Episode{
		env: e, w: w, budget: budget,
		coster:    e.WhatIf.NewWorkloadCoster(w.Queries, w.Freqs),
		perBase:   make([]float64, w.Len()),
		perCur:    make([]float64, w.Len()),
		chosenSet: make(map[int]bool, budget),
	}
	ep.baseCost = ep.coster.CostPer(nil, ep.perBase)
	copy(ep.perCur, ep.perBase)
	for _, f := range w.Freqs {
		ep.freqTotal += f
	}
	ep.curCost = ep.baseCost
	if ep.freqTotal == 0 {
		ep.freqTotal = 1
	}
	return ep
}

// Done reports whether the budget is exhausted.
func (ep *Episode) Done() bool { return len(ep.chosen) >= ep.budget }

// Chosen returns the chosen column indices in selection order.
func (ep *Episode) Chosen() []int { return ep.chosen }

// ChosenSet reports whether a column has been chosen.
func (ep *Episode) ChosenSet(col int) bool { return ep.chosenSet[col] }

// Indexes returns the built index configuration.
func (ep *Episode) Indexes() []cost.Index { return append([]cost.Index(nil), ep.indexes...) }

// TotalReduction returns the trajectory reward 1 - c(W,d,I)/c(W,d,∅).
func (ep *Episode) TotalReduction() float64 {
	if ep.baseCost <= 0 {
		return 0
	}
	return 1 - ep.curCost/ep.baseCost
}

// Step adds the column as a single-column index and returns the incremental
// relative cost reduction (c_prev - c_new)/c_base (paper Eq. 7 shape).
// Choosing an already-chosen column is a no-op with zero reward.
func (ep *Episode) Step(col int) float64 {
	if ep.Done() || ep.chosenSet[col] {
		return 0
	}
	episodeStepsTotal.Inc()
	ep.chosen = append(ep.chosen, col)
	ep.chosenSet[col] = true
	ep.indexes = append(ep.indexes, cost.NewIndex(ep.env.Columns[col]))
	prev := ep.curCost
	ep.curCost = ep.coster.CostPer(ep.indexes, ep.perCur)
	if ep.baseCost <= 0 {
		return 0
	}
	return (prev - ep.curCost) / ep.baseCost
}

// InverseCostReduction returns the frequency-weighted mean over queries of
// base_q/cur_q - 1: DRLindex's 1/cost-shaped reward level. Cheap queries
// count as much as expensive ones, the over-sensitivity of §6.2.
func (ep *Episode) InverseCostReduction() float64 {
	total := 0.0
	for i := range ep.perCur {
		if ep.perCur[i] > 0 {
			total += ep.w.Freqs[i] * (ep.perBase[i]/ep.perCur[i] - 1)
		}
	}
	return total / ep.freqTotal
}

// ConfigVector one-hot-encodes the chosen columns for state construction.
func (ep *Episode) ConfigVector() []float64 {
	v := make([]float64, ep.env.L())
	for _, c := range ep.chosen {
		v[c] = 1
	}
	return v
}

// RandRemaining returns a uniformly random unchosen, unmasked column, or -1.
func (ep *Episode) RandRemaining(mask []bool, rng *rand.Rand) int {
	var avail []int
	for i := 0; i < ep.env.L(); i++ {
		if (mask == nil || mask[i]) && !ep.chosenSet[i] {
			avail = append(avail, i)
		}
	}
	if len(avail) == 0 {
		return -1
	}
	return avail[rng.Intn(len(avail))]
}

// Signature returns a stable fingerprint of a workload (query texts and
// frequencies). Trial-based advisors keep the best trajectory *per
// workload*: the stored configuration applies only when inference sees the
// same workload it was optimized for.
func Signature(w *workload.Workload) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for i, q := range w.Queries {
		mix(q.String())
		mix(fmt.Sprintf("|%.6f;", w.Freqs[i]))
	}
	return h
}

// ParamAverager maintains the ring buffer of parameter snapshots the Mean
// variant averages (paper: "the average parameters of the last 100
// trajectories ... are kept").
type ParamAverager struct {
	window int
	buf    [][]float64
	next   int
	filled int
}

// NewParamAverager creates an averager over the given window size.
func NewParamAverager(window int) *ParamAverager {
	if window < 1 {
		window = 1
	}
	return &ParamAverager{window: window, buf: make([][]float64, window)}
}

// Push records one snapshot (the slice is copied).
func (a *ParamAverager) Push(params []float64) {
	a.buf[a.next] = append([]float64(nil), params...)
	a.next = (a.next + 1) % a.window
	if a.filled < a.window {
		a.filled++
	}
}

// Average returns the element-wise mean of the recorded snapshots, or nil if
// none were pushed.
func (a *ParamAverager) Average() []float64 {
	if a.filled == 0 {
		return nil
	}
	out := make([]float64, len(a.buf[0]))
	for i := 0; i < a.filled; i++ {
		idx := (a.next - 1 - i + a.window*2) % a.window
		for j, v := range a.buf[idx] {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(a.filled)
	}
	return out
}
