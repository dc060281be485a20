package main

import (
	"testing"

	"repro/internal/experiments"
)

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
