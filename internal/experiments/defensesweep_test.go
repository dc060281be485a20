package experiments

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefenseArmsAndInjectors(t *testing.T) {
	arms := DefenseArms()
	want := []string{"unguarded", "sanitizer", "trim", "guard", "stacked"}
	if len(arms) != len(want) {
		t.Fatalf("arms = %v", arms)
	}
	for i := range want {
		if arms[i] != want[i] {
			t.Fatalf("arms = %v, want %v", arms, want)
		}
	}
	if inj := DefenseInjectors(); len(inj) != 2 || inj[0] != "FSM" || inj[1] != "PIPA" {
		t.Fatalf("injectors = %v", inj)
	}
}

// TestDefenseSweepDeterministicAcrossWorkers pins the sweep's acceptance
// criteria: byte-identical results at any worker width, zero screening drops
// on the rate-0 (pure clean) rung for every defense arm, and the trim arm
// never degrading below the unguarded baseline at nonzero rates.
func TestDefenseSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	rates := []float64{0, 1}
	injectors := []string{"FSM"}
	var golden *DefenseSweepResult
	var goldenJSON string
	for _, workers := range []int{1, 4} {
		s := *tinySetup
		s.Workers = workers
		r, err := RunDefenseSweep(context.Background(), &s, "DBAbandit-b", rates, injectors)
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
			t.Errorf("defense sweep at workers=%d diverges from serial:\n got %s\nwant %s", workers, b, goldenJSON)
		}
	}

	if len(golden.Points) != len(rates) {
		t.Fatalf("points = %d", len(golden.Points))
	}
	for _, p := range golden.Points {
		if p.Rate == 0 {
			// Pure-clean rung: no screener may drop anything.
			for arm, a := range p.Arms {
				if a.Dropped != 0 {
					t.Errorf("rate 0: arm %s dropped %d clean queries", arm, a.Dropped)
				}
			}
			continue
		}
		if trimAD, unAD := p.Arms["trim"].AD.Mean, p.Arms["unguarded"].AD.Mean; trimAD > unAD {
			t.Errorf("rate %g: trim AD %+.3f above unguarded %+.3f", p.Rate, trimAD, unAD)
		}
	}
}

// TestDefenseSweepJournalResume: an interrupted-then-rerun sweep resumed from
// the journal must be byte-identical to an uninterrupted one.
func TestDefenseSweepJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	rates := []float64{0, 1}
	injectors := []string{"FSM"}

	s := *tinySetup
	s.Runs = 1
	r, err := RunDefenseSweep(context.Background(), &s, "DBAbandit-b", rates, injectors)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1 journals its cells; pass 2 resumes from them (the journaled
	// helper replays completed cells without re-running them).
	path := filepath.Join(t.TempDir(), "journal")
	for i := 0; i < 2; i++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		s2 := *tinySetup
		s2.Runs = 1
		s2.Journal = j
		r2, err := RunDefenseSweep(context.Background(), &s2, "DBAbandit-b", rates, injectors)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(r2)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("pass %d diverges from journal-free run:\n got %s\nwant %s", i, got, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 0 && j.Len() == 0 {
			t.Fatal("pass 0 journaled no cells")
		}
	}
}

// TestArmStrategies checks that every arm the sweeps run maps to a screener
// strategy and that a cell refuses an arm outside the table.
func TestArmStrategies(t *testing.T) {
	for _, arm := range append(DefenseArms(), AttackZooArms()...) {
		if _, ok := armStrategies[arm]; !ok {
			t.Errorf("arm %q has no screener strategy", arm)
		}
	}
	_, err := tinySetup.runCell(context.Background(), tinySetup.Tester(), []string{"bogus"}, "Heuristic", "FSM", 0, 0, 1)
	if err == nil || !strings.Contains(err.Error(), `unknown defense arm "bogus"`) {
		t.Fatalf("runCell with an unknown arm: err = %v", err)
	}
}
