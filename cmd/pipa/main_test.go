package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runKey is the journal key Journaled files one run under.
func runKey(setup *experiments.Setup, advisorName, injector string, guard bool, faults float64, run int) string {
	return setup.CellKey(runName(advisorName, injector, guard, faults, run))
}

// TestRunKeyNamesConfig: a -checkpoint journal written under one
// configuration must not replay into a run under another. Each run key has
// to differ from the base key whenever a setting the run reads differs, and
// match it when nothing does.
func TestRunKeyNamesConfig(t *testing.T) {
	tpch := experiments.NewSetup("tpch", 1, experiments.ScaleTiny)
	tpcds := experiments.NewSetup("tpcds", 1, experiments.ScaleTiny)
	budget := *tpch
	budget.GuardBudget = 0.5
	faultSeed := *tpch
	faultSeed.FaultSeed = 7

	base := runKey(tpch, "DQN-b", "PIPA", false, 0, 0)
	guarded := runKey(tpch, "DQN-b", "PIPA", true, 0, 0)
	faulty := runKey(tpch, "DQN-b", "PIPA", false, 0.1, 0)
	if again := runKey(tpch, "DQN-b", "PIPA", false, 0, 0); again != base {
		t.Fatalf("same configuration, different keys: %s vs %s", base, again)
	}
	for _, c := range []struct {
		setting   string
		key, from string
	}{
		{"benchmark", runKey(tpcds, "DQN-b", "PIPA", false, 0, 0), base},
		{"advisor", runKey(tpch, "DQN-m", "PIPA", false, 0, 0), base},
		{"injector", runKey(tpch, "DQN-b", "FSM", false, 0, 0), base},
		{"run", runKey(tpch, "DQN-b", "PIPA", false, 0, 1), base},
		{"guard", guarded, base},
		{"guard budget", runKey(&budget, "DQN-b", "PIPA", true, 0, 0), guarded},
		{"fault rate", faulty, base},
		{"fault seed", runKey(&faultSeed, "DQN-b", "PIPA", false, 0.1, 0), faulty},
	} {
		if c.key == c.from {
			t.Errorf("changing the %s leaves the run key at %s", c.setting, c.from)
		}
	}
}

// TestRunJournaledUnderRunKey: a run goes through experiments.Journaled and
// must land under runKey, whose cell part keeps its format, so a -checkpoint
// journal written by an earlier build still resumes.
func TestRunJournaledUnderRunKey(t *testing.T) {
	s := experiments.NewSetup("tpch", 1, experiments.ScaleTiny)
	j, err := experiments.OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s.Journal = j

	want := runCell{GuardOutcome: "committed"}
	if _, err := experiments.Journaled(s, runName("DQN-b", "PIPA", true, 0.1, 2), func() (runCell, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}
	key := runKey(s, "DQN-b", "PIPA", true, 0.1, 2)
	if !strings.HasPrefix(key, "pipa/DQN-b/PIPA/guard=true/faults=0.1/run=2@") {
		t.Errorf("run key %s changed its cell format", key)
	}
	var got runCell
	if !j.Lookup(key, &got) || got.GuardOutcome != want.GuardOutcome {
		t.Errorf("run not journaled under its run key %s", key)
	}
}
