package experiments

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestGuardRatesLadder(t *testing.T) {
	got := GuardRates()
	want := []float64{0, 0.25, 0.5, 1}
	if len(got) != len(want) {
		t.Fatalf("ladder = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
}

// TestGuardSweepDeterministicAcrossWorkers pins two acceptance criteria at
// once: the sweep is byte-identical at any worker width (every cell owns its
// advisors, trainer and RNG streams), and the guard works — at every nonzero
// poison rate the guarded AD stays strictly below the unguarded AD, with at
// least one automatic rollback exercised.
func TestGuardSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	rates := []float64{0, 1}
	var golden *GuardSweepResult
	var goldenJSON string
	for _, workers := range []int{1, 4} {
		s := *tinySetup
		s.Workers = workers
		r, err := RunGuardSweep(context.Background(), &s, "DBAbandit-b", rates)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			golden, goldenJSON = r, string(b)
			continue
		}
		if string(b) != goldenJSON {
			t.Errorf("guard sweep at workers=%d diverges from serial:\n got %s\nwant %s", workers, b, goldenJSON)
		}
	}

	if len(golden.Points) != len(rates) {
		t.Fatalf("points = %d", len(golden.Points))
	}
	var rollbacks uint64
	for _, p := range golden.Points {
		un, g := p.Arms["unguarded"], p.Arms["guard"]
		rollbacks += g.Rollbacks
		if p.Rate == 0 {
			continue
		}
		if g.AD.Mean >= un.AD.Mean {
			t.Errorf("rate %g: guarded AD %+.3f not below unguarded %+.3f",
				p.Rate, g.AD.Mean, un.AD.Mean)
		}
	}
	if rollbacks == 0 {
		t.Error("no automatic rollback exercised across the sweep")
	}
}

// TestJournalKeyNamesConfig: a journal written under one guard budget must
// not replay into a run under another. Rerunning a guardsweep on the same
// journal with a different GuardBudget has to reproduce a fresh run at that
// budget, not the first run's cells.
func TestJournalKeyNamesConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	rates := []float64{0, 1}
	run := func(budget float64, j *Journal) string {
		t.Helper()
		s := *tinySetup
		s.Runs = 1
		s.GuardBudget = budget
		s.Journal = j
		r, err := RunGuardSweep(context.Background(), &s, "DBAbandit-b", rates)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r.Points)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tight := run(0.02, j)
	got := run(0.5, j)
	want := run(0.5, nil)
	if tight == want {
		t.Fatal("budgets 0.02 and 0.5 give the same sweep; the test cannot tell a stale replay")
	}
	if got != want {
		t.Errorf("budget-0.5 rerun on a budget-0.02 journal diverges from a fresh run:\n got %s\nwant %s", got, want)
	}
}

// TestSweepsAgreeOnSharedArms pins by test what the committed goldens show:
// guardsweep rows are the PIPA unguarded/guard arms of the defense sweep and
// of the attack zoo, at every rate the ladders share.
func TestSweepsAgreeOnSharedArms(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	ctx := context.Background()
	s := *tinySetup
	pipaOnly := []string{"PIPA"}
	gs, err := RunGuardSweep(ctx, &s, "DBAbandit-b", nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := RunDefenseSweep(ctx, &s, "DBAbandit-b", nil, pipaOnly)
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := RunAttackZoo(ctx, &s, "DBAbandit-b", nil, pipaOnly)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, other := range []struct {
		name   string
		points []TimelinePoint
	}{{"defensesweep", ds.Points}, {"attackzoo", zoo.Points}} {
		for _, g := range gs.Points {
			for _, p := range other.points {
				if p.Rate != g.Rate {
					continue
				}
				shared++
				for _, arm := range []string{"unguarded", "guard"} {
					want, got := g.Arms[arm], p.Arms[arm]
					if got.AD != want.AD || got.Commits != want.Commits ||
						got.Rollbacks != want.Rollbacks || got.Quarantined != want.Quarantined {
						t.Errorf("%s rate %g arm %s = %+v, guardsweep has %+v", other.name, p.Rate, arm, got, want)
					}
				}
			}
		}
	}
	if shared != len(GuardRates())+len(AttackZooRates()) {
		t.Errorf("compared %d shared rungs", shared)
	}
}
