// Package swirl implements the SWIRL advisor [19]: proximal policy
// optimization (PPO) over a workload-featurized state with invalid-action
// masking — columns never seen in any training workload are masked out of
// the action space, the mechanism behind SWIRL's resistance to large
// injections (paper §6.3). SWIRL is the paper's one "one-off" advisor:
// after (re)training it predicts an index configuration directly, without
// trial trajectories.
package swirl

import (
	"math"
	"math/rand"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/nn"
	"repro/internal/workload"
)

const (
	ppoEpochs  = 4
	ppoClip    = 0.2
	criticLR   = 1e-3
	entropyEps = 1e-12
)

type step struct {
	state   []float64
	action  int
	oldLogp float64
	ret     float64 // reward-to-go
	adv     float64
	mask    []bool
}

// SWIRL is the advisor. It is not safe for concurrent use.
type SWIRL struct {
	env *advisor.Env
	cfg advisor.Config
	src *advisor.CountingSource
	rng *rand.Rand

	actor  *nn.MLP
	critic *nn.MLP

	// trainMask marks columns that appeared (sargable) in any training
	// workload; actions outside it are invalid.
	trainMask []bool

	lastFeatures []float64

	restore advisor.Rewinder // the last restored blob, until training drops it
}

// New creates an untrained SWIRL advisor.
func New(env *advisor.Env, cfg advisor.Config) *SWIRL {
	src := advisor.NewCountingSource(cfg.Seed)
	s := &SWIRL{env: env, cfg: cfg, src: src, rng: rand.New(src)}
	s.reset()
	return s
}

func (s *SWIRL) reset() {
	stateDim := s.env.L()*advisor.FeatureDim + s.env.L() + 1
	s.actor = nn.NewMLP(s.rng, []int{stateDim, s.cfg.Hidden, s.env.L()}, nn.Tanh, nn.Identity)
	s.critic = nn.NewMLP(s.rng, []int{stateDim, s.cfg.Hidden, 1}, nn.Tanh, nn.Identity)
	s.trainMask = make([]bool, s.env.L())
}

// Name implements advisor.Advisor.
func (s *SWIRL) Name() string { return "SWIRL" }

// TrialBased implements advisor.Advisor: SWIRL is one-off.
func (s *SWIRL) TrialBased() bool { return false }

// Train optimizes from scratch.
func (s *SWIRL) Train(w *workload.Workload) {
	s.reset()
	s.trainOn(w)
}

// Retrain fine-tunes on the new training set; the invalid-action mask grows
// to include the new workload's columns.
func (s *SWIRL) Retrain(w *workload.Workload) { s.trainOn(w) }

func (s *SWIRL) trainOn(w *workload.Workload) {
	s.restore.Drop()
	for i, ok := range s.env.SargableMask(w) {
		if ok {
			s.trainMask[i] = true
		}
	}
	feats := s.env.Featurize(w)
	s.lastFeatures = feats

	bestReward := -1.0
	var bestActor, bestCritic []float64 // reused from one best trajectory to the next

	for t := 0; t < s.cfg.Trajectories; t++ {
		steps, totalReward := s.rollout(w, feats)
		advisor.RecordTrainReward(s.Name(), totalReward)
		if s.cfg.Trace != nil {
			s.cfg.Trace(totalReward)
		}
		s.ppoUpdate(steps)
		if s.cfg.Variant == advisor.Best && totalReward > bestReward {
			bestReward = totalReward
			bestActor = s.actor.AppendParams(bestActor[:0])
			bestCritic = s.critic.AppendParams(bestCritic[:0])
		}
	}
	if s.cfg.Variant == advisor.Best && bestActor != nil {
		s.actor.SetParams(bestActor)
		s.critic.SetParams(bestCritic)
	}
	// A trained advisor may be kept for inference only; release what only
	// training reads.
	s.actor.ReleaseTape()
	s.critic.ReleaseTape()
}

// rollout samples one trajectory from the current policy.
func (s *SWIRL) rollout(w *workload.Workload, feats []float64) ([]step, float64) {
	ep := s.env.NewEpisode(w, s.cfg.Budget)
	var steps []step
	var rewards []float64
	for !ep.Done() {
		state := s.state(feats, ep)
		mask := s.validMask(ep)
		if !anyTrue(mask) {
			break
		}
		logits := s.actor.Forward(state)
		probs := nn.Softmax(logits, mask)
		action := nn.SampleCategorical(probs, s.rng)
		logp := math.Log(probs[action] + entropyEps)
		r := ep.Step(action)
		steps = append(steps, step{state: state, action: action, oldLogp: logp, mask: mask})
		rewards = append(rewards, r)
	}
	// Rewards-to-go (undiscounted within the short episode) and advantages.
	total := 0.0
	for i := len(rewards) - 1; i >= 0; i-- {
		total += rewards[i]
		steps[i].ret = total
	}
	for i := range steps {
		v := s.critic.Forward(steps[i].state)[0]
		steps[i].adv = steps[i].ret - v
	}
	// Normalize advantages across the trajectory: with a cold critic the
	// raw advantages share a large common offset that would push every
	// sampled action up indiscriminately.
	if len(steps) > 1 {
		mean, sd := 0.0, 0.0
		for i := range steps {
			mean += steps[i].adv
		}
		mean /= float64(len(steps))
		for i := range steps {
			d := steps[i].adv - mean
			sd += d * d
		}
		sd = math.Sqrt(sd / float64(len(steps)))
		if sd > 1e-9 {
			for i := range steps {
				steps[i].adv = (steps[i].adv - mean) / sd
			}
		}
	}
	return steps, ep.TotalReduction()
}

// ppoUpdate runs clipped-objective epochs over one trajectory's steps. The
// weights hold still within an epoch, so each epoch passes the steps through
// the actor and the critic as one batch.
func (s *SWIRL) ppoUpdate(steps []step) {
	if len(steps) == 0 {
		return
	}
	states := make([][]float64, len(steps))
	grads := make([][]float64, len(steps))  // the actor's; nil where the step is clipped
	vgrads := make([][]float64, len(steps)) // the critic's
	gradBuf := make([]float64, len(steps)*s.env.L())
	for k, st := range steps {
		states[k] = st.state
		vgrads[k] = make([]float64, 1)
	}
	for epoch := 0; epoch < ppoEpochs; epoch++ {
		logits, tape := s.actor.ForwardBatch(states)
		for k, st := range steps {
			probs := nn.Softmax(logits[k], st.mask)
			logp := math.Log(probs[st.action] + entropyEps)
			ratio := math.Exp(logp - st.oldLogp)
			clipped := (st.adv > 0 && ratio > 1+ppoClip) || (st.adv < 0 && ratio < 1-ppoClip)
			if clipped {
				grads[k] = nil
				continue
			}
			// d(-ratio·A)/dlogits = -A·ratio·(onehot - probs)
			grad := gradBuf[k*len(probs) : (k+1)*len(probs)]
			for i := range grad {
				grad[i] = 0
				if st.mask != nil && !st.mask[i] {
					continue
				}
				oh := 0.0
				if i == st.action {
					oh = 1
				}
				grad[i] = -st.adv * ratio * (oh - probs[i])
			}
			grads[k] = grad
		}
		s.actor.BackwardBatch(tape, grads)
		// Critic regression toward the return.
		vs, vtape := s.critic.ForwardBatch(states)
		for k, st := range steps {
			vgrads[k][0] = vs[k][0] - st.ret
		}
		s.critic.BackwardBatch(vtape, vgrads)
		s.actor.Step(s.cfg.LR)
		s.critic.Step(criticLR)
	}
}

// CloneAdvisor implements advisor.Cloner.
func (s *SWIRL) CloneAdvisor() advisor.Advisor {
	src := advisor.NewCountingSource(s.cfg.Seed + 7919)
	return &SWIRL{
		env: s.env, cfg: s.cfg,
		src:          src,
		rng:          rand.New(src),
		actor:        s.actor.Clone(),
		critic:       s.critic.Clone(),
		trainMask:    append([]bool(nil), s.trainMask...),
		lastFeatures: append([]float64(nil), s.lastFeatures...),
	}
}

// Recommend predicts a configuration directly (one-off): a greedy rollout of
// the trained policy under the invalid-action mask.
func (s *SWIRL) Recommend(w *workload.Workload) []cost.Index {
	feats := s.env.Featurize(w)
	ep := s.env.NewEpisode(w, s.cfg.Budget)
	for !ep.Done() {
		mask := s.validMask(ep)
		if !anyTrue(mask) {
			break
		}
		logits := s.actor.Forward(s.state(feats, ep))
		action := nn.Argmax(logits, mask)
		if action < 0 {
			break
		}
		ep.Step(action)
	}
	return ep.Indexes()
}

// ColumnPreferences implements advisor.Introspector: the initial-state
// policy distribution over the masked action space.
func (s *SWIRL) ColumnPreferences() map[string]float64 {
	prefs := make(map[string]float64, s.env.L())
	for _, col := range s.env.Columns {
		prefs[col] = 0
	}
	if s.lastFeatures == nil || !anyTrue(s.trainMask) {
		return prefs
	}
	state := append(append([]float64(nil), s.lastFeatures...), make([]float64, s.env.L()+1)...)
	state[len(state)-1] = 1
	probs := nn.Softmax(s.actor.Forward(state), s.trainMask)
	for i, col := range s.env.Columns {
		prefs[col] = probs[i]
	}
	return prefs
}

// state is [workload features | config one-hot | remaining budget fraction].
func (s *SWIRL) state(feats []float64, ep *advisor.Episode) []float64 {
	out := make([]float64, 0, len(feats)+s.env.L()+1)
	out = append(out, feats...)
	out = append(out, ep.ConfigVector()...)
	out = append(out, 1-float64(len(ep.Chosen()))/float64(s.cfg.Budget))
	return out
}

// validMask is the invalid-action mask: trained columns not yet chosen.
func (s *SWIRL) validMask(ep *advisor.Episode) []bool {
	mask := make([]bool, s.env.L())
	for i := range mask {
		mask[i] = s.trainMask[i] && !ep.ChosenSet(i)
	}
	return mask
}

func anyTrue(mask []bool) bool {
	for _, b := range mask {
		if b {
			return true
		}
	}
	return false
}
