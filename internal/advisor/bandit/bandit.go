// Package bandit implements the DBA-bandit advisor [26]: index selection as
// a C²UCB-style linear contextual combinatorial bandit. Arms are candidate
// single-column indexes with statistics-derived context features; each round
// the advisor picks a super-arm of Budget indexes by upper confidence bound,
// observes per-index creation benefits, and updates a ridge-regression
// reward model. It converges in few rounds (the paper trains it with 20
// trajectories versus 400 for the deep advisors) and exposes the arm-update
// trigger the paper's Fig. 8(b) case study revolves around: persistently
// near-zero super-arm rewards force the candidate arm set to be rebuilt.
package bandit

import (
	"math"
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/workload"
)

const (
	ctxDim          = advisor.FeatureDim + 1 // per-column features + bias
	ridgeLambda     = 1.0
	ucbAlpha        = 0.6
	armUpdateReward = 0.02 // super-arm reward below this triggers arm rebuild
	inferNoise      = 0.05
)

// Bandit is the advisor. It is not safe for concurrent use.
type Bandit struct {
	env *advisor.Env
	cfg advisor.Config
	src *advisor.CountingSource
	rng *rand.Rand

	a [][]float64 // ridge Gram matrix (d×d)
	b []float64   // reward-weighted context sum

	arms     []int       // current candidate columns
	contexts [][]float64 // per-arm context of the last training workload

	bestTheta  []float64
	bestR      float64
	bestConfig []cost.Index // best super-arm's configuration (-b semantics)
	bestSig    uint64       // workload signature bestConfig belongs to
	avg        *advisor.ParamAverager

	restore advisor.Rewinder // the last restored blob, until a mutation drops it
}

// New creates an untrained bandit advisor.
func New(env *advisor.Env, cfg advisor.Config) *Bandit {
	src := advisor.NewCountingSource(cfg.Seed)
	bd := &Bandit{env: env, cfg: cfg, src: src, rng: rand.New(src)}
	bd.reset()
	return bd
}

func (bd *Bandit) reset() {
	bd.a = identity(ctxDim, ridgeLambda)
	bd.b = make([]float64, ctxDim)
	bd.arms = nil
	bd.bestTheta = nil
	bd.bestR = -1
	bd.avg = advisor.NewParamAverager(bd.cfg.MeanWindow)
}

// Name implements advisor.Advisor.
func (bd *Bandit) Name() string { return "DBAbandit-" + bd.cfg.Variant.String() }

// TrialBased implements advisor.Advisor.
func (bd *Bandit) TrialBased() bool { return true }

// Train optimizes from scratch.
func (bd *Bandit) Train(w *workload.Workload) {
	bd.reset()
	bd.trainOn(w)
}

// Retrain updates the current model on the new training set.
func (bd *Bandit) Retrain(w *workload.Workload) { bd.trainOn(w) }

func (bd *Bandit) trainOn(w *workload.Workload) {
	bd.restore.Drop()
	bd.bestSig = advisor.Signature(w)
	bd.bestConfig = nil
	feats := bd.env.Featurize(w)
	bd.rebuildArms(w, false)
	bd.contexts = bd.buildContexts(feats)

	lowRounds := 0
	for round := 0; round < bd.cfg.Trajectories; round++ {
		theta := bd.theta()
		inv := invert(bd.a)
		super := bd.selectSuperArm(theta, inv, true)
		// Play the super-arm: build indexes in order, observing per-arm
		// marginal creation benefits.
		ep := bd.env.NewEpisode(w, bd.cfg.Budget)
		total := 0.0
		for _, armIdx := range super {
			r := ep.Step(bd.arms[armIdx])
			total += r
			bd.update(bd.contexts[armIdx], r)
		}
		// Arm-update trigger (paper §6.2, Fig. 8b): persistently bad arms
		// force a rebuild of the candidate set over the full sargable pool.
		if total < armUpdateReward {
			lowRounds++
			if lowRounds >= 2 {
				bd.rebuildArms(w, true)
				bd.contexts = bd.buildContexts(feats)
				lowRounds = 0
			}
		} else {
			lowRounds = 0
		}
		advisor.RecordTrainReward(bd.Name(), total)
		if bd.cfg.Trace != nil {
			bd.cfg.Trace(total)
		}
		th := bd.theta()
		if total > bd.bestR {
			bd.bestR = total
			bd.bestTheta = th
			bd.bestConfig = ep.Indexes()
		}
		bd.avg.Push(th)
	}
}

// CloneAdvisor implements advisor.Cloner.
func (bd *Bandit) CloneAdvisor() advisor.Advisor {
	src := advisor.NewCountingSource(bd.cfg.Seed + 7919)
	c := &Bandit{
		env: bd.env, cfg: bd.cfg,
		src:        src,
		rng:        rand.New(src),
		a:          clone(bd.a),
		b:          append([]float64(nil), bd.b...),
		arms:       append([]int(nil), bd.arms...),
		contexts:   append([][]float64(nil), bd.contexts...),
		bestTheta:  append([]float64(nil), bd.bestTheta...),
		bestR:      bd.bestR,
		bestConfig: append([]cost.Index(nil), bd.bestConfig...),
		bestSig:    bd.bestSig,
		avg:        advisor.NewParamAverager(bd.cfg.MeanWindow),
	}
	return c
}

// Recommend runs trial rounds with the trained reward model. Every round
// restarts from one ∅ sweep.
func (bd *Bandit) Recommend(w *workload.Workload) []cost.Index {
	feats := bd.env.Featurize(w)
	if len(bd.arms) == 0 {
		bd.restore.Drop() // the rebuilt arms are state a rewind would not undo
		bd.rebuildArms(w, false)
	}
	contexts := bd.buildContexts(feats)
	theta := bd.finalTheta()
	start := bd.env.Start(w, bd.cfg.Budget)
	scores := make([]float64, len(bd.arms))
	trials := make([]advisor.Trial, 0, bd.cfg.InferTrajectories)
	for t := 0; t < bd.cfg.InferTrajectories; t++ {
		for i, x := range contexts {
			scores[i] = dot(theta, x) + inferNoise*bd.rng.NormFloat64()
		}
		ep := start.Restart()
		for k := 0; k < bd.cfg.Budget; k++ {
			bi := -1
			for i := range scores {
				if ep.ChosenSet(bd.arms[i]) {
					continue
				}
				if bi < 0 || scores[i] > scores[bi] {
					bi = i
				}
			}
			if bi < 0 {
				break
			}
			ep.Step(bd.arms[bi])
		}
		trials = append(trials, advisor.Trial{Reward: ep.TotalReduction(), Indexes: ep.Indexes()})
	}
	if bd.cfg.Variant == advisor.Best && len(bd.bestConfig) > 0 && advisor.Signature(w) == bd.bestSig {
		trials = append(trials, advisor.Trial{
			Reward:  bd.env.WhatIf.Reduction(w.Queries, w.Freqs, bd.bestConfig),
			Indexes: bd.bestConfig,
		})
	}
	return advisor.SelectTrial(trials, bd.cfg.Variant, bd.cfg.MeanWindow)
}

// ColumnPreferences implements advisor.Introspector: the model's predicted
// reward per current arm; non-arm columns get zero.
func (bd *Bandit) ColumnPreferences() map[string]float64 {
	prefs := make(map[string]float64, bd.env.L())
	for _, col := range bd.env.Columns {
		prefs[col] = 0
	}
	theta := bd.finalTheta()
	for i, arm := range bd.arms {
		if i < len(bd.contexts) {
			prefs[bd.env.Columns[arm]] = dot(theta, bd.contexts[i])
		}
	}
	return prefs
}

// finalTheta applies the -b/-m variant to the model parameters.
func (bd *Bandit) finalTheta() []float64 {
	switch bd.cfg.Variant {
	case advisor.Best:
		if bd.bestTheta != nil {
			return bd.bestTheta
		}
	case advisor.Mean:
		if p := bd.avg.Average(); p != nil {
			return p
		}
	}
	return bd.theta()
}

// rebuildArms constructs the candidate arm set: the heuristic candidate
// filter normally, or the full sargable pool when triggered by bad rewards.
func (bd *Bandit) rebuildArms(w *workload.Workload, widen bool) {
	var mask []bool
	if widen {
		mask = bd.env.SargableMask(w)
	} else {
		mask = bd.env.CandidateFilter(w)
	}
	bd.arms = bd.arms[:0]
	for i, ok := range mask {
		if ok {
			bd.arms = append(bd.arms, i)
		}
	}
}

func (bd *Bandit) buildContexts(feats []float64) [][]float64 {
	out := make([][]float64, len(bd.arms))
	for i, col := range bd.arms {
		x := make([]float64, ctxDim)
		copy(x, feats[col*advisor.FeatureDim:(col+1)*advisor.FeatureDim])
		x[ctxDim-1] = 1 // bias
		out[i] = x
	}
	return out
}

// selectSuperArm picks Budget distinct arms by UCB score.
func (bd *Bandit) selectSuperArm(theta []float64, inv [][]float64, explore bool) []int {
	type scored struct {
		idx   int
		score float64
	}
	scores := make([]scored, len(bd.arms))
	for i, x := range bd.contexts {
		s := dot(theta, x)
		if explore {
			s += ucbAlpha * math.Sqrt(quadForm(inv, x))
		}
		scores[i] = scored{i, s}
	}
	// Partial selection of the top Budget arms.
	k := bd.cfg.Budget
	if k > len(scores) {
		k = len(scores)
	}
	out := make([]int, 0, k)
	used := make(map[int]bool, k)
	for len(out) < k {
		bi := -1
		for i := range scores {
			if used[i] {
				continue
			}
			if bi < 0 || scores[i].score > scores[bi].score {
				bi = i
			}
		}
		used[bi] = true
		out = append(out, scores[bi].idx)
	}
	return out
}

// theta solves A θ = b.
func (bd *Bandit) theta() []float64 { return solve(bd.a, bd.b) }

// update performs the ridge update A += x xᵀ, b += r x.
func (bd *Bandit) update(x []float64, r float64) {
	for i := range x {
		for j := range x {
			bd.a[i][j] += x[i] * x[j]
		}
		bd.b[i] += r * x[i]
	}
}

// --- small dense linear algebra (d = ctxDim) ---

func identity(n int, scale float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = scale
	}
	return m
}

func clone(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}

// solve returns x with m x = v via Gauss-Jordan elimination.
func solve(m [][]float64, v []float64) []float64 {
	n := len(v)
	a := clone(m)
	x := append([]float64(nil), v...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		x[col], x[p] = x[p], x[col]
		piv := a[col][col]
		if piv == 0 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / piv
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for i := range x {
		if a[i][i] != 0 {
			x[i] /= a[i][i]
		}
	}
	return x
}

// invert returns m⁻¹ by solving against unit vectors.
func invert(m [][]float64) [][]float64 {
	n := len(m)
	inv := make([][]float64, n)
	for i := range inv {
		e := make([]float64, n)
		e[i] = 1
		col := solve(m, e)
		inv[i] = col
	}
	// solve produced columns as rows; transpose (symmetric A makes this a
	// formality, but keep it correct for any m).
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = inv[j][i]
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// quadForm computes xᵀ M x.
func quadForm(m [][]float64, x []float64) float64 {
	s := 0.0
	for i := range x {
		row := m[i]
		for j := range x {
			s += x[i] * row[j] * x[j]
		}
	}
	if s < 0 {
		s = 0
	}
	return s
}
