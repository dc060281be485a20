// Package pipa implements the paper's contribution: the PIPA
// (Probing-Injecting Poisoning Attack) opaque-box stress-test framework for
// updatable learned index advisors, together with the robustness metrics AD
// (Def. 2.3) and RD (Def. 2.5) and the injector baselines of §6.2.
//
// The opaque-box boundary is enforced by construction: the stress tester
// touches the victim only through the advisor.Advisor interface (submit a
// workload, observe recommended indexes) plus the schema and the evaluator's
// own cost oracle. Only the clear-box P-C baseline reaches through
// advisor.Introspector, exactly as the paper positions it (a near-optimal
// reference, not part of PIPA).
package pipa

import (
	"math/rand"
	"sync"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// Config collects PIPA's hyper-parameters with the paper's defaults (§6.1):
// P = 20 probing epochs, probing/injection workloads sized like the normal
// workload, |{c}| = 4 specified columns, α = 0.1, β = 1/(10+L), and the
// mid-ranked segment ending at L/4.
type Config struct {
	P       int     // probing epochs
	Np      int     // queries per probing workload
	Na      int     // toxic injection workload size
	NumCols int     // |{c}| columns specified per generated query
	Alpha   float64 // Eq. 9 learning rate
	Beta    float64 // Eq. 9 sparsity term; 0 disables pruning
	// MidStart is the start of the mid-ranked segment (1-based rank): the
	// paper's main experiments use 5, chosen because ranks 1-4 hold the
	// best index and its foreign-key closure (§6.2, §6.4). The closure of
	// the best column is always excluded in addition.
	MidStart int
	// MidEnd is the last rank (1-based) of the mid-ranked segment; 0 means
	// L/4 (§6.2).
	MidEnd int
	// RewardTarget is the indexing-performance threshold passed to IABART.
	RewardTarget float64
	Seed         int64

	// AdaptProbes caps how many verdict-feedback probes the ADAPT guard-aware
	// attacker may spend per injection build (DESIGN.md §14): each probe is
	// one trial update submitted to the defended victim's update surface
	// (the /v1/update verdict loop). 0 disables probing, degrading ADAPT to
	// the plain opaque-box PIPA.
	AdaptProbes int
}

// DefaultConfig returns the paper's settings for the given schema.
func DefaultConfig(s *catalog.Schema) Config {
	n := s.NumColumns()
	np := workload.DefaultSize(s)
	return Config{
		P:            20,
		Np:           np,
		Na:           np,
		NumCols:      4,
		MidStart:     5,
		Alpha:        0.1,
		Beta:         1.0 / float64(10+n),
		RewardTarget: 0.5,
		Seed:         1,
		AdaptProbes:  6,
	}
}

// Preference is the probing stage's output: the estimated indexing
// preference — a ranking over all indexable columns by the estimated K score
// (Eq. 5) — plus the probing trace used by the convergence experiments.
type Preference struct {
	Ranking []string           // columns in descending K order
	K       map[string]float64 // estimated preference scores
	// EpochsRun is the number of probing epochs actually executed.
	EpochsRun int
	// SegmentsByEpoch records, per epoch, the (top, mid, low) membership
	// snapshot for convergence analysis (Fig. 12b).
	SegmentsByEpoch [][3][]string
}

// StressTester wires PIPA's components: the evaluator's schema, its own
// cost oracle (for executing probing workloads and filtering injections),
// the index-aware query generator, and the configuration.
type StressTester struct {
	Schema *catalog.Schema
	WhatIf *cost.WhatIf
	Gen    *qgen.IABART
	Cfg    Config

	// Eval, when non-nil, is the clean measurement oracle used for the
	// baseline/poisoned workload costs of StressTest. The fault-degradation
	// experiments split the oracles: WhatIf (possibly chaos-wrapped via
	// EnableFaults) carries the attacker's probing/filtering feedback, while
	// Eval scores the victim on ground truth — so a degradation curve
	// measures the attack degrading, not the ruler bending.
	Eval *cost.WhatIf

	// Faults, when non-nil, injects probe-level faults (dropped probe
	// responses) into the Probe loop; cost-level faults live on the WhatIf
	// oracle itself.
	Faults *fault.Injector

	// distOnce caches the benchmark-template column split the OOD injectors
	// partition the schema by (ablation.go); the tester is shared across
	// concurrent experiment cells, so the split is computed exactly once.
	distOnce sync.Once
	inDist   []string // indexable columns the templates touch sargably
	outDist  []string // indexable columns outside the template distribution
}

// eval returns the measurement oracle: Eval if set, else WhatIf.
func (st *StressTester) eval() *cost.WhatIf {
	if st.Eval != nil {
		return st.Eval
	}
	return st.WhatIf
}

// NewStressTester builds a stress tester; gen may be nil to train a fresh
// IABART over the schema.
func NewStressTester(s *catalog.Schema, w *cost.WhatIf, gen *qgen.IABART, cfg Config) *StressTester {
	if gen == nil {
		gen = qgen.TrainIABART(qgen.NewFSM(s), w, nil, qgen.DefaultOptions(), cfg.Seed)
	}
	return &StressTester{Schema: s, WhatIf: w, Gen: gen, Cfg: cfg}
}

// rng derives a fresh deterministic RNG for one stress-test phase.
func (st *StressTester) rng(phase int64) *rand.Rand {
	return rand.New(rand.NewSource(st.Cfg.Seed*1000003 + phase))
}
