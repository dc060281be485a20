// Package dqn implements the two Q-learning index advisors of the paper: DQN
// [20] and DRLindex [29, 30]. Both are a Deep Q-Network over (workload
// state, current configuration) states with experience replay, a target
// network and ε-greedy exploration. Inference is trial-based: the advisor
// rolls several trial trajectories and delivers one per the -b/-m variant.
//
// DQN reads workload features and filters index candidates heuristically.
// DRLindex differs in the design details the paper identifies as its
// robustness weaknesses (§6.2): (1) a sparse binary query-column presence
// state — injected workloads touching previously-zero entries swing the
// parameters dramatically — and (2) an over-sensitive 1/cost-shaped reward,
// which vibrates under small execution-cost changes. It also applies no
// candidate filtering: every column is an action.
package dqn

import (
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/nn"
	"repro/internal/workload"
)

const (
	batchSize       = 32
	replayCapacity  = 4096
	targetSyncEvery = 10   // trajectories between target-network syncs
	inferEpsilon    = 0.15 // trial diversity: best-of-N inference needs spread
)

// kind is what distinguishes DQN from DRLindex.
type kind struct {
	name     string // Name prefix
	snapKind string // snap envelope kind
	gamma    float64
	// presence selects DRLindex's design: the presence state instead of
	// workload features, no candidate filter, and the inverse-cost reward.
	presence bool
}

var (
	dqnKind = kind{name: "DQN", snapKind: "advisor.dqn", gamma: 0.95}
	// DRLindex discounts steeply: index-set selection is near-greedy in
	// marginal benefit.
	drlindexKind = kind{name: "DRLindex", snapKind: "advisor.drlindex", gamma: 0.3, presence: true}
)

type transition struct {
	state  []float64
	action int
	reward float64
	next   []float64
	done   bool

	// nextMax is max_a target(next) without the discount, computed under
	// target generation gen and valid while the advisor's targetGen is gen
	// (DESIGN.md §15.3).
	nextMax float64
	gen     uint64
}

// DQN is the advisor. It is not safe for concurrent use.
type DQN struct {
	kind kind
	env  *advisor.Env
	cfg  advisor.Config
	src  *advisor.CountingSource
	rng  *rand.Rand

	net    *nn.MLP
	target *nn.MLP
	replay []transition
	// targetGen changes whenever the target network's weights may have, so
	// a memoised max-Q with another generation is stale. reset moves it off
	// 0 before any transition is stored, so a fresh transition never matches.
	targetGen uint64

	lastFeatures []float64 // workload state of the most recent training workload
	lastMask     []bool    // candidate filter of that workload (nil for DRLindex)

	// bestConfig is the index configuration of the best trajectory seen in
	// the most recent (re)training, valid only for the workload signature it
	// was optimized on — the paper's -b semantics keep the best trajectory
	// per workload and deliver it among that workload's inference trials.
	bestConfig []cost.Index
	bestSig    uint64

	restore advisor.Rewinder // the last restored blob, until training drops it

	// trainBatch's scratch: the sampled transitions, their states and
	// their output gradients.
	batch  []*transition
	states [][]float64
	grads  [][]float64
}

// New creates an untrained DQN advisor.
func New(env *advisor.Env, cfg advisor.Config) *DQN { return newKind(dqnKind, env, cfg) }

// NewDRLindex creates an untrained DRLindex advisor.
func NewDRLindex(env *advisor.Env, cfg advisor.Config) *DQN { return newKind(drlindexKind, env, cfg) }

func newKind(k kind, env *advisor.Env, cfg advisor.Config) *DQN {
	src := advisor.NewCountingSource(cfg.Seed)
	d := &DQN{kind: k, env: env, cfg: cfg, src: src, rng: rand.New(src)}
	d.reset()
	return d
}

func (d *DQN) reset() {
	stateDim := d.featDim() + d.env.L()
	d.net = nn.NewMLP(d.rng, []int{stateDim, d.cfg.Hidden, d.env.L()}, nn.ReLU, nn.Identity)
	d.target = d.net.Clone()
	d.targetGen++
	d.replay = d.replay[:0]
}

// syncTarget copies the online network's weights into the target network,
// which makes every memoised max-Q stale.
func (d *DQN) syncTarget() {
	d.target.CopyParamsFrom(d.net)
	d.targetGen++
}

// featDim is the length of the workload part of the state.
func (d *DQN) featDim() int {
	if d.kind.presence {
		return d.env.L()
	}
	return d.env.L() * advisor.FeatureDim
}

// features is the workload part of the state.
func (d *DQN) features(w *workload.Workload) []float64 {
	if d.kind.presence {
		return d.env.PresenceVector(w)
	}
	return d.env.Featurize(w)
}

// filter is the candidate mask over columns; nil admits every column.
func (d *DQN) filter(w *workload.Workload) []bool {
	if d.kind.presence {
		return nil
	}
	return d.env.CandidateFilter(w)
}

// Name implements advisor.Advisor.
func (d *DQN) Name() string { return d.kind.name + "-" + d.cfg.Variant.String() }

// TrialBased implements advisor.Advisor.
func (d *DQN) TrialBased() bool { return true }

// Train optimizes from scratch with fully annealed exploration.
func (d *DQN) Train(w *workload.Workload) {
	d.reset()
	d.trainOn(w, true)
}

// Retrain fine-tunes the current parameters on the new training set: the
// model update keeps exploration at its floor and replaces the replay buffer
// with fresh merged-workload experience — the "updatable" path whose
// dynamics PIPA's local-optimum trap exploits (§5).
func (d *DQN) Retrain(w *workload.Workload) {
	d.replay = d.replay[:0]
	d.trainOn(w, false)
}

func (d *DQN) trainOn(w *workload.Workload, anneal bool) {
	d.restore.Drop()
	d.bestSig = advisor.Signature(w)
	d.bestConfig = nil
	feats := d.features(w)
	mask := d.filter(w)
	d.lastFeatures = feats
	d.lastMask = mask

	bestReward := -1.0
	var bestParams []float64 // reused from one best trajectory to the next
	// Only -m reads the parameter average, and only -b the best parameters.
	var avg *advisor.ParamAverager
	if d.cfg.Variant == advisor.Mean {
		avg = advisor.NewParamAverager(d.cfg.MeanWindow)
	}

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
		// A transition's next state is the following step's state: nothing
		// changes the episode in between, so both share one slice.
		var state []float64
		for !ep.Done() {
			if state == nil {
				state = d.state(feats, ep)
			}
			action := d.chooseAction(state, ep, mask, eps, nil)
			if action < 0 {
				break
			}
			r := d.step(ep, action)
			next := d.state(feats, ep)
			d.remember(transition{state: state, action: action, reward: r, next: next, done: ep.Done()})
			d.trainBatch()
			state = next
		}
		advisor.RecordTrainReward(d.Name(), ep.TotalReduction())
		if d.cfg.Trace != nil {
			d.cfg.Trace(ep.TotalReduction())
		}
		if r := ep.TotalReduction(); r > bestReward {
			bestReward = r
			d.bestConfig = ep.Indexes()
			if d.cfg.Variant == advisor.Best {
				bestParams = d.net.AppendParams(bestParams[:0])
			}
		}
		if avg != nil {
			avg.Push(d.net.Params())
		}
		if (t+1)%targetSyncEvery == 0 {
			d.syncTarget()
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
	d.syncTarget()
	// A trained advisor may be kept for inference only; release what only
	// training reads.
	d.net.ReleaseTape()
	d.batch, d.states, d.grads = nil, nil, nil
}

// step takes the action and returns its training reward. DQN's is the
// episode's cost reduction. DRLindex's is the over-sensitive per-query 1/cost
// reward (§6.2): the step change of the mean inverse-cost level. Every query
// counts equally regardless of its absolute cost, so injected workloads sway
// this reward in proportion to their query count.
func (d *DQN) step(ep *advisor.Episode, action int) float64 {
	if !d.kind.presence {
		return ep.Step(action)
	}
	prevInv := ep.InverseCostReduction()
	ep.Step(action)
	return ep.InverseCostReduction() - prevInv
}

// CloneAdvisor implements advisor.Cloner: a deep copy of the trained state
// with an independent RNG stream.
func (d *DQN) CloneAdvisor() advisor.Advisor {
	src := advisor.NewCountingSource(d.cfg.Seed + 7919)
	return &DQN{
		kind: d.kind, env: d.env, cfg: d.cfg,
		src:          src,
		rng:          rand.New(src),
		net:          d.net.Clone(),
		target:       d.target.Clone(),
		replay:       append([]transition(nil), d.replay...),
		targetGen:    d.targetGen,
		lastFeatures: append([]float64(nil), d.lastFeatures...),
		lastMask:     append([]bool(nil), d.lastMask...),
		bestConfig:   append([]cost.Index(nil), d.bestConfig...),
		bestSig:      d.bestSig,
	}
}

// Recommend rolls trial trajectories with the trained network. The
// candidate set is the one learned during (re)training — an injected
// workload therefore widens the candidates the advisor may waste budget on,
// the redirection channel PIPA exploits (§5) — intersected with nothing at
// inference beyond the budget. Every trial restarts from one ∅ sweep, and
// the call's own buffers hold each step's state and activations.
func (d *DQN) Recommend(w *workload.Workload) []cost.Index {
	feats := d.features(w)
	mask := d.lastMask
	if mask == nil {
		mask = d.filter(w)
	}
	sc := d.newInference(feats)
	start := d.env.Start(w, d.cfg.Budget)
	trials := make([]advisor.Trial, 0, d.cfg.InferTrajectories)
	for t := 0; t < d.cfg.InferTrajectories; t++ {
		ep := start.Restart()
		for !ep.Done() {
			action := d.chooseAction(sc.stateOf(ep), ep, mask, inferEpsilon, sc)
			if action < 0 {
				break
			}
			ep.Step(action)
		}
		trials = append(trials, advisor.Trial{Reward: ep.TotalReduction(), Indexes: ep.Indexes()})
	}
	// The -b variant also delivers the best training trajectory's
	// configuration as a candidate trial — but only when inferring for the
	// workload it was optimized on (the best trajectory is per workload).
	if d.cfg.Variant == advisor.Best && len(d.bestConfig) > 0 && advisor.Signature(w) == d.bestSig {
		trials = append(trials, advisor.Trial{
			Reward:  d.env.WhatIf.Reduction(w.Queries, w.Freqs, d.bestConfig),
			Indexes: d.bestConfig,
		})
	}
	return advisor.SelectTrial(trials, d.cfg.Variant, d.cfg.MeanWindow)
}

// inference is one Recommend call's working memory: the state vector, whose
// workload part holds still, the valid-action mask and the Q-network's
// activations. Each call owns its own, so the network stays free of
// per-call state (DESIGN.md §15.2).
type inference struct {
	state []float64
	nfeat int
	valid []bool
	fwd   nn.Scratch
}

func (d *DQN) newInference(feats []float64) *inference {
	sc := &inference{
		state: make([]float64, len(feats)+d.env.L()),
		nfeat: len(feats),
		valid: make([]bool, d.env.L()),
	}
	copy(sc.state, feats)
	return sc
}

// stateOf writes ep's configuration into the state vector and returns it:
// the vector state(feats, ep) builds.
func (sc *inference) stateOf(ep *advisor.Episode) []float64 {
	cfg := sc.state[sc.nfeat:]
	clear(cfg)
	for _, c := range ep.Chosen() {
		cfg[c] = 1
	}
	return sc.state
}

// ColumnPreferences implements advisor.Introspector for the clear-box P-C
// baseline: the initial-state Q-values over candidate columns. Columns
// pruned by DQN's heuristic filter get zero weight — the sparsity the paper
// observes in DQN's true parameters (§6.2).
func (d *DQN) ColumnPreferences() map[string]float64 {
	prefs := make(map[string]float64, d.env.L())
	if d.lastFeatures == nil {
		return prefs
	}
	state := append(append([]float64(nil), d.lastFeatures...), make([]float64, d.env.L())...)
	q := d.net.Forward(state)
	for i, col := range d.env.Columns {
		if d.lastMask != nil && !d.lastMask[i] {
			prefs[col] = 0
			continue
		}
		prefs[col] = q[i]
	}
	return prefs
}

func (d *DQN) state(feats []float64, ep *advisor.Episode) []float64 {
	return append(append(make([]float64, 0, len(feats)+d.env.L()), feats...), ep.ConfigVector()...)
}

// chooseAction is ε-greedy over unmasked, unchosen columns. The greedy pick
// runs in sc's buffers; a nil sc allocates fresh ones, as training does on
// every step.
func (d *DQN) chooseAction(state []float64, ep *advisor.Episode, mask []bool, eps float64, sc *inference) int {
	if d.rng.Float64() < eps {
		return ep.RandRemaining(mask, d.rng)
	}
	if sc == nil {
		sc = &inference{valid: make([]bool, d.env.L())}
	}
	q := d.net.ForwardScratch(state, &sc.fwd)
	any := false
	for i := range sc.valid {
		sc.valid[i] = (mask == nil || mask[i]) && !ep.ChosenSet(i)
		any = any || sc.valid[i]
	}
	if !any {
		return -1
	}
	return nn.Argmax(q, sc.valid)
}

func (d *DQN) remember(tr transition) {
	if len(d.replay) < replayCapacity {
		d.replay = append(d.replay, tr)
		return
	}
	d.replay[d.rng.Intn(replayCapacity)] = tr
}

// trainBatch runs one TD(0) update on a sampled minibatch. The online
// network's weights hold still until Step, so the minibatch goes through it
// as one batch.
func (d *DQN) trainBatch() {
	if len(d.replay) < batchSize {
		return
	}
	if d.grads == nil {
		d.batch = make([]*transition, batchSize)
		d.states = make([][]float64, batchSize)
		d.grads = make([][]float64, batchSize)
		for b := range d.grads {
			d.grads[b] = make([]float64, d.env.L())
		}
	}
	for b := range d.batch {
		tr := &d.replay[d.rng.Intn(len(d.replay))]
		d.batch[b], d.states[b] = tr, tr.state
	}
	qs, tape := d.net.ForwardBatch(d.states)
	for b, tr := range d.batch {
		target := tr.reward
		if !tr.done {
			target += d.kind.gamma * d.maxNextQ(tr)
		}
		clear(d.grads[b])
		d.grads[b][tr.action] = (qs[b][tr.action] - target) / batchSize
	}
	d.net.BackwardBatch(tape, d.grads)
	d.net.Step(d.cfg.LR)
}

// maxNextQ returns max_a target(tr.next). The target network changes only
// at a sync, so the value is memoised on the transition until targetGen
// moves on.
func (d *DQN) maxNextQ(tr *transition) float64 {
	if tr.gen != d.targetGen {
		tq := d.target.Forward(tr.next)
		tr.nextMax, tr.gen = tq[nn.Argmax(tq, nil)], d.targetGen
	}
	return tr.nextMax
}
