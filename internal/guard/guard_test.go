package guard

import (
	"fmt"
	"testing"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/snap"
	"repro/internal/sql"
	"repro/internal/workload"
)

// stubAdvisor is a minimal Snapshotter advisor whose whole state is one
// number, so guard transaction semantics are observable directly.
type stubAdvisor struct {
	param   float64
	updates int64
}

func (s *stubAdvisor) Name() string                                { return "Stub" }
func (s *stubAdvisor) TrialBased() bool                            { return false }
func (s *stubAdvisor) Train(w *workload.Workload)                  { s.param = 1; s.updates = 0 }
func (s *stubAdvisor) Retrain(w *workload.Workload)                { s.param += float64(w.Len()); s.updates++ }
func (s *stubAdvisor) Recommend(w *workload.Workload) []cost.Index { return nil }

func (s *stubAdvisor) Snapshot() ([]byte, error) {
	var e snap.Encoder
	e.Float64(s.param)
	e.Int64(s.updates)
	return e.Seal("advisor.stub"), nil
}

func (s *stubAdvisor) Restore(b []byte) error {
	d, err := snap.Open(b, "advisor.stub")
	if err != nil {
		return err
	}
	param := d.Float64()
	updates := d.Int64()
	if err := d.Close(); err != nil {
		return err
	}
	s.param, s.updates = param, updates
	return nil
}

// script returns a CanaryCost hook popping canned values; the first value
// serves the Train-time anchor.
func script(vals ...float64) func(advisor.Advisor) float64 {
	i := 0
	return func(advisor.Advisor) float64 {
		v := vals[i]
		if i < len(vals)-1 {
			i++
		}
		return v
	}
}

func batch(t *testing.T, n int) *workload.Workload {
	t.Helper()
	w := &workload.Workload{}
	for i := 0; i < n; i++ {
		q, err := sql.Parse(fmt.Sprintf("SELECT * FROM lineitem WHERE l_quantity > %d", i))
		if err != nil {
			t.Fatal(err)
		}
		w.Add(q, 1)
	}
	return w
}

func TestQuarantineBounds(t *testing.T) {
	q := NewQuarantine(3)
	for i := 0; i < 5; i++ {
		if !q.Add(fmt.Sprintf("q%d", i), "r") {
			t.Fatalf("q%d rejected", i)
		}
	}
	if q.Len() != 3 || q.Cap() != 3 {
		t.Fatalf("len/cap = %d/%d", q.Len(), q.Cap())
	}
	if q.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", q.Evicted())
	}
	// Stable oldest-first ordering with monotonic Seq across evictions.
	ents := q.Entries()
	for i, want := range []string{"q2", "q3", "q4"} {
		if ents[i].Query != want || ents[i].Seq != uint64(i+2) {
			t.Fatalf("entry %d = %+v, want %s seq %d", i, ents[i], want, i+2)
		}
	}
	// Duplicates of live entries collapse; evicted queries may return.
	if q.Add("q3", "again") {
		t.Error("live duplicate created a new entry")
	}
	if !q.Add("q0", "returned") {
		t.Error("evicted query could not return")
	}
}

func newStubTrainer(t *testing.T, canary func(advisor.Advisor) float64, cfg Config) (*Trainer, *stubAdvisor) {
	t.Helper()
	stub := &stubAdvisor{}
	cfg.CanaryCost = canary
	tr, err := NewTrainer(stub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, stub
}

func TestGuardCommitAndRollback(t *testing.T) {
	// Anchor 100; first update canaries at 101 (within the 2% budget:
	// commit), second at 150 (rollback).
	tr, stub := newStubTrainer(t, script(100, 101, 150), Config{Budget: 0.02})
	tr.Train(batch(t, 1))
	if stub.param != 1 {
		t.Fatalf("param = %v after train", stub.param)
	}

	tr.Retrain(batch(t, 2))
	if tr.LastOutcome() != Committed {
		t.Fatalf("outcome = %v, want committed", tr.LastOutcome())
	}
	if stub.param != 3 || stub.updates != 1 {
		t.Fatalf("committed state param=%v updates=%d", stub.param, stub.updates)
	}

	tr.Retrain(batch(t, 4))
	if tr.LastOutcome() != RolledBack {
		t.Fatalf("outcome = %v, want rolled-back", tr.LastOutcome())
	}
	if stub.param != 3 || stub.updates != 1 {
		t.Fatalf("rollback did not restore: param=%v updates=%d", stub.param, stub.updates)
	}
	st := tr.Stats()
	if st.Commits != 1 || st.Rollbacks != 1 || st.Attempts != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The rolled-back batch is quarantined with the canary reason.
	if tr.Quarantine().Len() != 4 {
		t.Fatalf("quarantined %d queries, want 4", tr.Quarantine().Len())
	}
	if got := tr.Quarantine().Entries()[0].Reason; got != "canary-regression 0.5000 > budget 0.0200" {
		t.Fatalf("reason = %q", got)
	}
}

func TestGuardBreakerTransitions(t *testing.T) {
	// Anchor 100, then: three rollbacks (Closed→Open), two frozen attempts
	// (no canary calls), failed half-open probe (→Open), two frozen, then a
	// successful probe (→Closed) and a normal commit.
	tr, stub := newStubTrainer(t,
		script(100, 200, 200, 200, 200, 100, 100),
		Config{Budget: 0.02, Threshold: 3, Cooldown: 2})
	tr.Train(batch(t, 1))
	base := stub.param

	for i := 0; i < 3; i++ {
		tr.Retrain(batch(t, 1))
		if tr.LastOutcome() != RolledBack {
			t.Fatalf("attempt %d outcome = %v", i, tr.LastOutcome())
		}
	}
	if tr.State() != Open {
		t.Fatalf("state = %v after %d rollbacks, want open", tr.State(), 3)
	}
	if st := tr.Stats(); st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}

	for i := 0; i < 2; i++ {
		tr.Retrain(batch(t, 1))
		if tr.LastOutcome() != Frozen {
			t.Fatalf("cooldown attempt %d outcome = %v, want frozen", i, tr.LastOutcome())
		}
		if stub.updates != 0 {
			t.Fatal("frozen attempt reached the advisor")
		}
	}

	// Half-open probe: admitted, canaries at 200, rolls back, re-opens.
	tr.Retrain(batch(t, 1))
	if tr.LastOutcome() != RolledBack || tr.State() != Open {
		t.Fatalf("failed probe: outcome=%v state=%v", tr.LastOutcome(), tr.State())
	}
	if st := tr.Stats(); st.Trips != 2 {
		t.Fatalf("trips = %d, want 2", st.Trips)
	}

	for i := 0; i < 2; i++ {
		tr.Retrain(batch(t, 1))
		if tr.LastOutcome() != Frozen {
			t.Fatalf("second cooldown attempt %d outcome = %v", i, tr.LastOutcome())
		}
	}

	// Successful probe re-admits updates.
	tr.Retrain(batch(t, 1))
	if tr.LastOutcome() != Committed || tr.State() != Closed {
		t.Fatalf("successful probe: outcome=%v state=%v", tr.LastOutcome(), tr.State())
	}
	if stub.param != base+1 || stub.updates != 1 {
		t.Fatalf("probe commit state param=%v updates=%d", stub.param, stub.updates)
	}
	tr.Retrain(batch(t, 1))
	if tr.LastOutcome() != Committed {
		t.Fatalf("post-probe update outcome = %v", tr.LastOutcome())
	}
	wantStats := Stats{Attempts: 10, Commits: 2, Rollbacks: 4, Frozen: 4, Trips: 2,
		Quarantined: tr.Stats().Quarantined, LastCanaryAD: tr.Stats().LastCanaryAD}
	if tr.Stats() != wantStats {
		t.Fatalf("stats = %+v, want %+v", tr.Stats(), wantStats)
	}
}

func TestGuardRequiresSnapshotter(t *testing.T) {
	if _, err := NewTrainer(plainAdvisor{}, Config{CanaryCost: script(1)}); err == nil {
		t.Fatal("non-snapshottable advisor accepted")
	}
}

type plainAdvisor struct{}

func (plainAdvisor) Name() string                              { return "Plain" }
func (plainAdvisor) TrialBased() bool                          { return false }
func (plainAdvisor) Train(*workload.Workload)                  {}
func (plainAdvisor) Retrain(*workload.Workload)                {}
func (plainAdvisor) Recommend(*workload.Workload) []cost.Index { return nil }

func TestGuardRequiresCanary(t *testing.T) {
	if _, err := NewTrainer(&stubAdvisor{}, Config{}); err == nil {
		t.Fatal("config without canary accepted")
	}
}

// fakeScreener drops the first `drop` queries of every batch, prefixing
// reasons with its name — a controllable defense.Screener for the guard's
// screen stage.
type fakeScreener struct {
	name string
	drop int
}

func (f *fakeScreener) Name() string { return f.name }

func (f *fakeScreener) Screen(w *workload.Workload) (*workload.Workload, *defense.Report) {
	rep := &defense.Report{Strategy: f.name, Reasons: map[string]string{}}
	kept := &workload.Workload{}
	for i, q := range w.Queries {
		if i < f.drop {
			rep.Dropped++
			rep.Reasons[q.String()] = f.name + ":first"
			continue
		}
		kept.Add(q, w.Freqs[i])
		rep.Kept++
	}
	return kept, rep
}

func TestGuardScreenerPartialAndFull(t *testing.T) {
	plain, _ := newStubTrainer(t, script(100, 101), Config{Budget: 0.02})
	if got := plain.ScreenStrategy(); got != "none" {
		t.Fatalf("ScreenStrategy without a screener = %q, want none", got)
	}

	scr := &fakeScreener{name: "fake", drop: 2}
	tr, stub := newStubTrainer(t, script(100, 101, 101), Config{Budget: 0.02, Screener: scr})
	tr.Train(batch(t, 1))

	if got := tr.ScreenStrategy(); got != "fake" {
		t.Fatalf("ScreenStrategy = %q", got)
	}

	// Partial screen: 5 in, 2 dropped, 3 retrained, update commits.
	tr.Retrain(batch(t, 5))
	if tr.LastOutcome() != Committed {
		t.Fatalf("outcome = %v", tr.LastOutcome())
	}
	if stub.param != 1+3 {
		t.Fatalf("param = %v: screened batch should retrain 3 queries", stub.param)
	}
	st := tr.Stats()
	if st.PartialScreens != 1 || st.Screened != 0 {
		t.Fatalf("stats = %+v, want one partial screen", st)
	}
	rep := tr.LastScreenReport()
	if rep == nil || rep.Dropped != 2 || rep.Strategy != "fake" {
		t.Fatalf("LastScreenReport = %+v", rep)
	}
	// Dropped queries are quarantined with the screener's reasons.
	if got := tr.Quarantine().Len(); got != 2 {
		t.Fatalf("quarantined %d, want 2", got)
	}
	for _, e := range tr.Quarantine().Entries() {
		if e.Reason != "fake:first" {
			t.Fatalf("reason = %q", e.Reason)
		}
	}

	// Full screen: every query dropped, the update is skipped entirely.
	scr.drop = 100
	tr.Retrain(batch(t, 4))
	if tr.LastOutcome() != Screened {
		t.Fatalf("outcome = %v, want screened", tr.LastOutcome())
	}
	st = tr.Stats()
	if st.Screened != 1 || st.PartialScreens != 1 {
		t.Fatalf("stats = %+v, want full screen counted separately", st)
	}
	if stub.param != 4 {
		t.Fatalf("param = %v: fully-screened batch must not retrain", stub.param)
	}
}

func TestGuardSanitizerConfigCompat(t *testing.T) {
	// The defense sanitizer plugs into the screen stage as a Screener.
	ref := &workload.Workload{}
	for i := 0; i < 3; i++ {
		q, err := sql.Parse(fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE lineitem.l_quantity > %d", i))
		if err != nil {
			t.Fatal(err)
		}
		ref.Add(q, 1)
	}
	san := defense.NewSanitizer(cost.NewWhatIf(cost.NewModel(catalog.TPCH(1))), ref)
	tr, _ := newStubTrainer(t, script(100, 101), Config{Budget: 0.02, Screener: san})
	if got := tr.ScreenStrategy(); got != "sanitizer" {
		t.Fatalf("ScreenStrategy = %q, want sanitizer", got)
	}
	tr2, _ := newStubTrainer(t, script(100, 101), Config{Budget: 0.02})
	if got := tr2.ScreenStrategy(); got != "none" {
		t.Fatalf("ScreenStrategy = %q, want none", got)
	}
}

func TestGuardPersistCarriesPartialScreens(t *testing.T) {
	dir := t.TempDir()
	scr := &fakeScreener{name: "fake", drop: 1}
	stub := &stubAdvisor{}
	tr, err := NewTrainer(stub, Config{Budget: 0.05, ModelDir: dir, Screener: scr, CanaryCost: stateCanary(stub)})
	if err != nil {
		t.Fatal(err)
	}
	tr.Train(batch(t, 1))
	tr.Retrain(batch(t, 3))
	if st := tr.Stats(); st.PartialScreens != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := tr.Persist(); err != nil {
		t.Fatal(err)
	}

	stub2 := &stubAdvisor{}
	tr2, err := NewTrainer(stub2, Config{Budget: 0.05, ModelDir: dir, CanaryCost: stateCanary(stub2)})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := tr2.TryRestore(); err != nil || !ok {
		t.Fatalf("TryRestore = %v, %v", ok, err)
	}
	if st := tr2.Stats(); st.PartialScreens != 1 {
		t.Fatalf("restored stats = %+v, want PartialScreens carried", st)
	}
}
