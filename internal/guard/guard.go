// Package guard makes advisor updates transactional: every Retrain becomes
// snapshot → screen → update → canary evaluation → commit-or-rollback
// (DESIGN.md §9). The canary is a held-out trusted workload costed on the
// clean oracle; an update whose canary cost regresses past a configurable
// budget is rolled back byte-exactly via advisor.Snapshotter, and the batch
// that caused it is quarantined with per-query reasons. Repeated rollbacks
// trip a circuit-breaker-style guard state: Open freezes updates entirely
// (the advisor keeps serving the last good model — graceful degradation under
// sustained attack), and after a cooldown a single half-open probe decides
// whether updates are re-admitted.
//
// Unlike fault.Breaker, the guard's cooldown is counted in update attempts,
// not wall time: experiment replays must be deterministic at any worker
// count, and the poisoning timeline has no meaningful clock.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/advisor"
	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Process-wide guard counters (ISSUE: obs instrumentation).
var (
	commitsTotal        = obs.GetCounter("guard_commits_total")
	rollbacksTotal      = obs.GetCounter("guard_rollbacks_total")
	quarantinedTotal    = obs.GetCounter("guard_quarantined_queries_total")
	tripsTotal          = obs.GetCounter("guard_trips_total")
	frozenTotal         = obs.GetCounter("guard_frozen_updates_total")
	partialScreensTotal = obs.GetCounter("guard_partial_screens_total")
)

// State is the guard's update-admission state.
type State int

const (
	// Closed admits updates; consecutive rollbacks are counted.
	Closed State = iota
	// Open freezes updates for cooldownAttempts attempts; the model serves as-is.
	Open
	// HalfOpen is the probe attempt after the cooldown: a commit re-admits
	// updates (Closed), a rollback re-freezes them (Open).
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Outcome classifies one Retrain attempt.
type Outcome int

const (
	// Committed: the update passed the canary gate.
	Committed Outcome = iota
	// RolledBack: the canary regressed past the budget; state was restored.
	RolledBack
	// Frozen: the guard was Open; the update was rejected outright.
	Frozen
	// Screened: the screener dropped the entire batch; nothing to train on.
	Screened
	// Replayed: the attempt predates the restored checkpoint and was skipped
	// (its effect is already part of the restored state).
	Replayed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case RolledBack:
		return "rolled-back"
	case Frozen:
		return "frozen"
	case Screened:
		return "screened"
	case Replayed:
		return "replayed"
	default:
		return "unknown"
	}
}

// Stats are the trainer's cumulative counters. They are part of the
// persisted checkpoint, so a resumed run continues them exactly.
type Stats struct {
	Attempts       uint64  // Retrain attempts seen (excluding replayed ones)
	Commits        uint64  // updates that passed the canary gate
	Rollbacks      uint64  // updates undone by the canary gate
	Frozen         uint64  // updates rejected while the guard was Open
	Screened       uint64  // batches fully dropped by the screener
	PartialScreens uint64  // batches the screener thinned but did not empty
	Quarantined    uint64  // queries quarantined (bounded buffer may evict)
	Trips          uint64  // Closed/HalfOpen → Open transitions
	LastCanaryAD   float64 // canary regression measured by the last gated update
}

// The breaker and quarantine sizes every Trainer uses.
const (
	// tripThreshold is the number of consecutive rollbacks that trip the
	// guard Open.
	tripThreshold = 3
	// cooldownAttempts is how many update attempts stay frozen after a trip
	// before the half-open probe. Counted in attempts, not time, so replays
	// are deterministic.
	cooldownAttempts = 2
	// quarantineCap bounds the quarantine buffer.
	quarantineCap = 256
)

// Config parameterizes a Trainer.
type Config struct {
	// Budget is the canary regression budget: an update is rolled back when
	// (canary cost - anchor)/anchor exceeds it. The anchor is fixed when the
	// advisor is (re)trained on trusted data, so the budget bounds cumulative
	// drift, not per-step drift. Default 0.02.
	Budget float64

	// Canary is the held-out trusted workload the gate evaluates on, and
	// Eval the clean oracle costing it (PR 3's oracle split: the attacker's
	// chaos-wrapped WhatIf never touches the gate).
	Canary *workload.Workload
	Eval   *cost.WhatIf

	// Screener, when non-nil, screens each batch before the update; dropped
	// queries are quarantined with the screener's per-query reasons. Any
	// defense.Screener plugs in: the sanitizer, a defense/trim robust
	// retrainer, or a stacked defense.Chain.
	Screener defense.Screener

	// ModelDir, when non-empty, persists the last committed snapshot (plus
	// guard metadata) there crash-safely; TryRestore resumes from it.
	ModelDir string

	// CanaryCost overrides the canary evaluation — tests use it to script
	// commit/rollback sequences without training real models.
	CanaryCost func(advisor.Advisor) float64
}

// Trainer wraps a snapshottable advisor and guards its update path. It
// implements advisor.Advisor and is not safe for concurrent use (like the
// advisors it wraps).
type Trainer struct {
	inner advisor.Advisor
	snapr advisor.Snapshotter
	cfg   Config

	state      State
	consec     int // consecutive rollbacks while Closed
	frozenLeft int // frozen attempts remaining while Open

	anchored     bool
	canaryBase   float64
	canaryCoster *cost.WorkloadCoster // delta session over the fixed canary workload

	calls      uint64 // live Retrain calls, including replayed ones
	resumeSkip uint64 // calls to skip after TryRestore

	quarantine *Quarantine
	provenance string // source tag stamped on quarantine entries
	stats      Stats
	lastOut    Outcome
	lastReport *defense.Report // screening report of the last live attempt
}

// NewTrainer wraps inner. inner must implement advisor.Snapshotter, and the
// config must provide a canary evaluation (Canary+Eval, or the CanaryCost
// hook).
func NewTrainer(inner advisor.Advisor, cfg Config) (*Trainer, error) {
	snapr, ok := inner.(advisor.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("guard: advisor %s does not implement Snapshotter", inner.Name())
	}
	if cfg.CanaryCost == nil && (cfg.Canary == nil || cfg.Canary.Len() == 0 || cfg.Eval == nil) {
		return nil, errors.New("guard: config needs a canary workload and eval oracle (or a CanaryCost hook)")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 0.02
	}
	return &Trainer{
		inner:      inner,
		snapr:      snapr,
		cfg:        cfg,
		canaryBase: math.NaN(),
		quarantine: NewQuarantine(quarantineCap),
	}, nil
}

// Name implements advisor.Advisor.
func (t *Trainer) Name() string { return t.inner.Name() + "+guard" }

// TrialBased implements advisor.Advisor.
func (t *Trainer) TrialBased() bool { return t.inner.TrialBased() }

// Recommend implements advisor.Advisor, serving the current (last good, when
// the guard rolled back or froze) model.
func (t *Trainer) Recommend(w *workload.Workload) []cost.Index { return t.inner.Recommend(w) }

// Inner returns the wrapped advisor.
func (t *Trainer) Inner() advisor.Advisor { return t.inner }

// State returns the guard state.
func (t *Trainer) State() State { return t.state }

// Stats returns a copy of the cumulative counters.
func (t *Trainer) Stats() Stats { return t.stats }

// LastOutcome returns the classification of the most recent Retrain call.
func (t *Trainer) LastOutcome() Outcome { return t.lastOut }

// Quarantine returns the quarantine buffer.
func (t *Trainer) Quarantine() *Quarantine { return t.quarantine }

// ScreenStrategy names the configured screener ("none" without one), so the
// serving daemon's /v1/status can report which defense guards the update path.
func (t *Trainer) ScreenStrategy() string {
	if t.cfg.Screener == nil {
		return "none"
	}
	return t.cfg.Screener.Name()
}

// LastScreenReport returns the screening report of the most recent live
// Retrain attempt, or nil when no screener ran (no screener configured, a
// frozen update, or a replayed attempt).
func (t *Trainer) LastScreenReport() *defense.Report { return t.lastReport }

// canaryCost evaluates the wrapped advisor on the canary workload. It
// consumes advisor RNG draws (Recommend is stochastic for trial-based
// advisors); the transaction accounts for that by snapshotting before the
// update and re-snapshotting after the gate when committing.
func (t *Trainer) canaryCost() float64 {
	if t.cfg.CanaryCost != nil {
		return t.cfg.CanaryCost(t.inner)
	}
	idx := t.inner.Recommend(t.cfg.Canary)
	// The canary workload is fixed for the trainer's lifetime, so successive
	// evaluations (anchor, then every retrain gate) usually differ by a few
	// indexes at most: the delta session re-costs only the touched queries.
	if t.canaryCoster == nil {
		t.canaryCoster = t.cfg.Eval.NewWorkloadCoster(t.cfg.Canary.Queries, t.cfg.Canary.Freqs)
	}
	return t.canaryCoster.Cost(idx)
}

// anchor fixes the canary baseline from the current (trusted) model.
func (t *Trainer) anchor() {
	t.canaryBase = t.canaryCost()
	t.anchored = true
}

// Train delegates to the wrapped advisor and re-anchors the canary baseline:
// a from-scratch training set is trusted by definition, and the guard resets.
func (t *Trainer) Train(w *workload.Workload) {
	t.inner.Train(w)
	t.state = Closed
	t.consec = 0
	t.anchor()
}

// Retrain is the guarded transaction. The incoming batch is screened, the
// update applied, and the canary gate decides commit or rollback; the
// outcome is retrievable via LastOutcome and Stats.
func (t *Trainer) Retrain(w *workload.Workload) {
	t.RetrainCtx(context.Background(), w)
}

// RetrainCtx is Retrain with trace correlation: when ctx carries a
// request-scoped span (obs.SpanFrom), the transaction records a
// "guard:retrain" child whose sub-spans mirror the phases — screen,
// snapshot, update, canary, commit-or-rollback — annotated with the batch
// size, canary regression, verdict, and resulting guard state. Untraced
// callers pay one nil check.
func (t *Trainer) RetrainCtx(ctx context.Context, w *workload.Workload) {
	sp := obs.SpanFrom(ctx).StartChild("guard:retrain")
	defer sp.End()
	sp.Annotate("batch_queries", strconv.Itoa(w.Len()))
	t.retrain(ctx, sp, w)
	sp.Annotate("outcome", t.lastOut.String())
	sp.Annotate("guard_state", t.state.String())
}

// retrain is the transaction body; sp may be nil (untraced).
func (t *Trainer) retrain(ctx context.Context, sp *obs.TSpan, w *workload.Workload) {
	t.calls++
	if t.calls <= t.resumeSkip {
		// This attempt is part of the restored checkpoint's history: its
		// commits are in the restored model, its rollbacks had no effect,
		// and its counters are in the restored stats.
		t.lastOut = Replayed
		return
	}
	t.stats.Attempts++
	t.lastReport = nil

	// Guard-open: reject the update outright, quarantining the batch.
	if t.state == Open {
		if t.frozenLeft > 0 {
			t.frozenLeft--
			t.stats.Frozen++
			frozenTotal.Inc()
			t.quarantineBatch(w, "update-frozen")
			t.lastOut = Frozen
			sp.Event("guard:frozen", "frozen_left", strconv.Itoa(t.frozenLeft))
			return
		}
		t.state = HalfOpen // cooldown elapsed: this attempt is the probe
		sp.Event("guard:half-open-probe")
	}

	if !t.anchored {
		// Wrapped an already-trained advisor: anchor lazily, before the
		// snapshot, so the anchor draws are part of the pre-update state.
		t.anchor()
	}

	clean := w
	if t.cfg.Screener != nil {
		scr := sp.StartChild("guard:screen")
		scr.Annotate("strategy", t.cfg.Screener.Name())
		screened, report := defense.ScreenWith(obs.ContextWithSpan(ctx, scr), t.cfg.Screener, w)
		t.lastReport = report
		// report.Reasons is a map; quarantine in the batch's query order so
		// the buffer's contents are deterministic.
		for _, q := range w.Queries {
			if why, ok := report.Reasons[q.String()]; ok {
				t.addQuarantine(q.String(), why)
			}
		}
		clean = screened
		scr.Annotate("dropped", strconv.Itoa(report.Dropped))
		scr.Annotate("kept", strconv.Itoa(clean.Len()))
		scr.End()
		if clean.Len() == 0 {
			t.stats.Screened++
			t.lastOut = Screened
			return
		}
		if report.Dropped > 0 {
			t.stats.PartialScreens++
			partialScreensTotal.Inc()
		}
	}

	snap := sp.StartChild("guard:snapshot")
	pre, err := t.snapr.Snapshot()
	snap.Annotate("bytes", strconv.Itoa(len(pre)))
	snap.End()
	if err != nil {
		// Cannot make the update reversible: refuse it (fail safe).
		t.stats.Frozen++
		frozenTotal.Inc()
		t.lastOut = Frozen
		sp.Event("guard:snapshot-failed", "error", err.Error())
		return
	}

	upd := sp.StartChild("guard:update")
	t.inner.Retrain(clean)
	upd.End()

	can := sp.StartChild("guard:canary")
	now := t.canaryCost()
	regression := 0.0
	if t.canaryBase > 0 {
		regression = (now - t.canaryBase) / t.canaryBase
	}
	t.stats.LastCanaryAD = regression
	obs.Record(obs.Name("guard_canary_ad", "advisor", t.inner.Name()), regression)
	can.Annotate("cost", strconv.FormatFloat(now, 'g', -1, 64))
	can.Annotate("regression", strconv.FormatFloat(regression, 'g', -1, 64))
	can.Annotate("budget", strconv.FormatFloat(t.cfg.Budget, 'g', -1, 64))
	can.End()

	if regression > t.cfg.Budget {
		t.rollback(sp, pre, clean, regression)
		return
	}
	t.commit(sp)
}

// rollback restores the pre-update snapshot and advances the guard state.
// sp may be nil (untraced).
func (t *Trainer) rollback(sp *obs.TSpan, pre []byte, batch *workload.Workload, regression float64) {
	rb := sp.StartChild("guard:rollback")
	defer rb.End()
	if err := t.snapr.Restore(pre); err != nil {
		// The snapshot came from Snapshot() moments ago; failure here means
		// memory corruption — nothing safe to continue with.
		panic(fmt.Sprintf("guard: rollback restore failed: %v", err))
	}
	t.stats.Rollbacks++
	rollbacksTotal.Inc()
	t.quarantineBatch(batch, fmt.Sprintf("canary-regression %.4f > budget %.4f", regression, t.cfg.Budget))
	t.lastOut = RolledBack
	rb.Annotate("quarantined", strconv.Itoa(batch.Len()))

	switch t.state {
	case HalfOpen:
		t.trip(rb) // failed probe: straight back to Open
	default:
		t.consec++
		if t.consec >= tripThreshold {
			t.trip(rb)
		}
	}
}

// trip opens the guard. sp may be nil (untraced).
func (t *Trainer) trip(sp *obs.TSpan) {
	t.state = Open
	t.frozenLeft = cooldownAttempts
	t.consec = 0
	t.stats.Trips++
	tripsTotal.Inc()
	sp.Event("guard:trip", "cooldown", strconv.Itoa(cooldownAttempts))
}

// commit accepts the update, closes the guard and persists the checkpoint.
// sp may be nil (untraced).
func (t *Trainer) commit(sp *obs.TSpan) {
	cm := sp.StartChild("guard:commit")
	defer cm.End()
	t.state = Closed
	t.consec = 0
	t.stats.Commits++
	commitsTotal.Inc()
	t.lastOut = Committed
	if t.cfg.ModelDir != "" {
		// Persist best-effort: a full disk must not abort the experiment,
		// it only degrades resumability.
		_ = t.persist()
	}
}

// quarantineBatch adds every query of the batch under one reason.
func (t *Trainer) quarantineBatch(w *workload.Workload, reason string) {
	for _, q := range w.Queries {
		t.addQuarantine(q.String(), reason)
	}
}

func (t *Trainer) addQuarantine(text, reason string) {
	if t.quarantine.AddSource(text, reason, t.provenance) {
		t.stats.Quarantined++
		quarantinedTotal.Inc()
	}
}

// SetProvenance sets the source tag stamped onto quarantine entries created
// by subsequent Retrain calls — the injector name in the attack-zoo grids,
// the client's declared source in the serving daemon. Call it from the same
// goroutine that calls Retrain (the trainer is not internally synchronized;
// the daemon's single update worker and the per-cell experiment loops both
// satisfy this).
func (t *Trainer) SetProvenance(source string) { t.provenance = source }
