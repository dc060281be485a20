// Package drlindex implements the DRLindex advisor [29, 30]: a Deep
// Q-Network like DQN, but with the two design details the paper identifies
// as its robustness weaknesses (§6.2): (1) a sparse binary query-column
// presence state — injected workloads touching previously-zero entries swing
// the parameters dramatically — and (2) an over-sensitive 1/cost-shaped
// reward, which vibrates under small execution-cost changes. DRLindex also
// applies no candidate filtering: every column is an action.
package drlindex

import (
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/nn"
	"repro/internal/workload"
)

const (
	gamma           = 0.3 // low discount: index-set selection is near-greedy in marginal benefit
	batchSize       = 32
	replayCapacity  = 4096
	targetSyncEvery = 10
	inferEpsilon    = 0.15 // trial diversity: best-of-N inference needs spread
)

type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
	done   bool
}

// DRLindex is the advisor. It is not safe for concurrent use.
type DRLindex struct {
	env *advisor.Env
	cfg advisor.Config
	src *advisor.CountingSource
	rng *rand.Rand

	net    *nn.MLP
	target *nn.MLP
	replay []transition

	lastPresence []float64

	// bestConfig is the best trajectory's configuration from the latest
	// (re)training, valid for its workload signature only (-b semantics; see
	// the DQN counterpart).
	bestConfig []cost.Index
	bestSig    uint64

	restore advisor.Rewinder // the last restored blob, until training drops it
}

// New creates an untrained DRLindex advisor.
func New(env *advisor.Env, cfg advisor.Config) *DRLindex {
	src := advisor.NewCountingSource(cfg.Seed)
	d := &DRLindex{env: env, cfg: cfg, src: src, rng: rand.New(src)}
	d.reset()
	return d
}

func (d *DRLindex) reset() {
	stateDim := 2 * d.env.L() // presence vector + configuration vector
	d.net = nn.NewMLP(d.rng, []int{stateDim, d.cfg.Hidden, d.env.L()}, nn.ReLU, nn.Identity)
	d.target = d.net.Clone()
	d.replay = d.replay[:0]
}

// Name implements advisor.Advisor.
func (d *DRLindex) Name() string { return "DRLindex-" + d.cfg.Variant.String() }

// TrialBased implements advisor.Advisor.
func (d *DRLindex) TrialBased() bool { return true }

// Train optimizes from scratch with fully annealed exploration.
func (d *DRLindex) Train(w *workload.Workload) {
	d.reset()
	d.trainOn(w, true)
}

// Retrain fine-tunes on the new training set: exploration stays at its
// floor and the replay buffer restarts from fresh merged-workload
// experience — the incremental model update PIPA's trap exploits (§5).
func (d *DRLindex) Retrain(w *workload.Workload) {
	d.replay = d.replay[:0]
	d.trainOn(w, false)
}

func (d *DRLindex) trainOn(w *workload.Workload, anneal bool) {
	d.restore.Drop()
	d.bestSig = advisor.Signature(w)
	d.bestConfig = nil
	presence := d.env.PresenceVector(w)
	d.lastPresence = presence

	bestReward := -1.0
	var bestParams []float64
	avg := advisor.NewParamAverager(d.cfg.MeanWindow)

	for t := 0; t < d.cfg.Trajectories; t++ {
		// Annealed exploration: initial training anneals from fully random;
		// a model update (Retrain) re-explores from a lower ceiling — it is
		// an update, not a fresh search, which is exactly the dynamic PIPA's
		// local-optimum trap leans on (§5).
		ceil := 1.0
		if !anneal {
			ceil = 0.5
		}
		eps := ceil - float64(t)/(0.6*float64(d.cfg.Trajectories))
		if eps < d.cfg.Epsilon {
			eps = d.cfg.Epsilon
		}
		ep := d.env.NewEpisode(w, d.cfg.Budget)
		for !ep.Done() {
			state := d.state(presence, ep)
			action := d.chooseAction(state, ep, eps)
			if action < 0 {
				break
			}
			prevInv := ep.InverseCostReduction()
			ep.Step(action)
			// Over-sensitive per-query 1/cost reward (§6.2): the step change
			// of the mean inverse-cost level. Every query counts equally
			// regardless of its absolute cost, so injected workloads sway
			// this reward in proportion to their query count.
			r := ep.InverseCostReduction() - prevInv
			next := d.state(presence, ep)
			d.remember(transition{state, action, r, next, ep.Done()})
			d.trainBatch()
		}
		advisor.RecordTrainReward(d.Name(), ep.TotalReduction())
		if d.cfg.Trace != nil {
			d.cfg.Trace(ep.TotalReduction())
		}
		if r := ep.TotalReduction(); r > bestReward {
			bestReward = r
			bestParams = d.net.Params()
			d.bestConfig = ep.Indexes()
		}
		avg.Push(d.net.Params())
		if (t+1)%targetSyncEvery == 0 {
			d.target.CopyParamsFrom(d.net)
		}
	}

	switch d.cfg.Variant {
	case advisor.Best:
		if bestParams != nil {
			d.net.SetParams(bestParams)
		}
	case advisor.Mean:
		if p := avg.Average(); p != nil {
			d.net.SetParams(p)
		}
	}
	d.target.CopyParamsFrom(d.net)
}

// CloneAdvisor implements advisor.Cloner.
func (d *DRLindex) CloneAdvisor() advisor.Advisor {
	src := advisor.NewCountingSource(d.cfg.Seed + 7919)
	return &DRLindex{
		env: d.env, cfg: d.cfg,
		src:          src,
		rng:          rand.New(src),
		net:          d.net.Clone(),
		target:       d.target.Clone(),
		replay:       append([]transition(nil), d.replay...),
		lastPresence: append([]float64(nil), d.lastPresence...),
		bestConfig:   append([]cost.Index(nil), d.bestConfig...),
		bestSig:      d.bestSig,
	}
}

// Recommend rolls trial trajectories with the trained network.
func (d *DRLindex) Recommend(w *workload.Workload) []cost.Index {
	presence := d.env.PresenceVector(w)
	trials := make([]advisor.Trial, 0, d.cfg.InferTrajectories)
	for t := 0; t < d.cfg.InferTrajectories; t++ {
		ep := d.env.NewEpisode(w, d.cfg.Budget)
		for !ep.Done() {
			state := d.state(presence, ep)
			action := d.chooseAction(state, ep, inferEpsilon)
			if action < 0 {
				break
			}
			ep.Step(action)
		}
		trials = append(trials, advisor.Trial{Reward: ep.TotalReduction(), Indexes: ep.Indexes()})
	}
	if d.cfg.Variant == advisor.Best && len(d.bestConfig) > 0 && advisor.Signature(w) == d.bestSig {
		trials = append(trials, advisor.Trial{
			Reward:  d.env.WhatIf.Reduction(w.Queries, w.Freqs, d.bestConfig),
			Indexes: d.bestConfig,
		})
	}
	return advisor.SelectTrial(trials, d.cfg.Variant, d.cfg.MeanWindow)
}

// ColumnPreferences implements advisor.Introspector: initial-state Q-values.
func (d *DRLindex) ColumnPreferences() map[string]float64 {
	prefs := make(map[string]float64, d.env.L())
	if d.lastPresence == nil {
		return prefs
	}
	state := append(append([]float64(nil), d.lastPresence...), make([]float64, d.env.L())...)
	q := d.net.Forward(state)
	for i, col := range d.env.Columns {
		prefs[col] = q[i]
	}
	return prefs
}

func (d *DRLindex) state(presence []float64, ep *advisor.Episode) []float64 {
	return append(append(make([]float64, 0, 2*d.env.L()), presence...), ep.ConfigVector()...)
}

func (d *DRLindex) chooseAction(state []float64, ep *advisor.Episode, eps float64) int {
	if d.rng.Float64() < eps {
		return ep.RandRemaining(nil, d.rng)
	}
	q := d.net.Forward(state)
	valid := make([]bool, d.env.L())
	any := false
	for i := range valid {
		valid[i] = !ep.ChosenSet(i)
		any = any || valid[i]
	}
	if !any {
		return -1
	}
	return nn.Argmax(q, valid)
}

func (d *DRLindex) remember(tr transition) {
	if len(d.replay) < replayCapacity {
		d.replay = append(d.replay, tr)
		return
	}
	d.replay[d.rng.Intn(replayCapacity)] = tr
}

func (d *DRLindex) trainBatch() {
	if len(d.replay) < batchSize {
		return
	}
	for b := 0; b < batchSize; b++ {
		tr := d.replay[d.rng.Intn(len(d.replay))]
		target := tr.reward
		if !tr.done {
			tq := d.target.Forward(tr.next)
			best := nn.Argmax(tq, nil)
			target += gamma * tq[best]
		}
		q, tape := d.net.ForwardTape(tr.state)
		grad := make([]float64, len(q))
		grad[tr.action] = (q[tr.action] - target) / batchSize
		d.net.Backward(tape, grad)
	}
	d.net.Step(d.cfg.LR)
}
