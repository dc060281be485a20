package registry

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/workload"
)

func fastConfig() advisor.Config {
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 25
	cfg.InferTrajectories = 8
	cfg.MeanWindow = 4
	cfg.Hidden = 32
	return cfg
}

func testSetup(t *testing.T) (*advisor.Env, *workload.Workload) {
	t.Helper()
	s := catalog.TPCH(1)
	env := advisor.NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
	rng := rand.New(rand.NewSource(21))
	w := workload.GenerateNormal(s, workload.TPCHTemplates(), 12, rng)
	return env, w
}

func TestUnknownAdvisor(t *testing.T) {
	env, _ := testSetup(t)
	if _, err := New("Nope", env, fastConfig()); err == nil {
		t.Error("want error for unknown advisor")
	}
}

func TestNamesSortedAndDeterministic(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for i := 0; i < 20; i++ { // map iteration order must never leak through
		again := Names()
		if !reflect.DeepEqual(names, again) {
			t.Fatalf("Names() unstable: %v vs %v", names, again)
		}
	}
	for _, n := range names {
		if !Valid(n) {
			t.Errorf("Names() lists %q but Valid rejects it", n)
		}
	}
	// Every paper variant plus the heuristic control must be listed.
	want := append(append([]string(nil), PaperAdvisors...), "Heuristic")
	for _, n := range want {
		if i := sort.SearchStrings(names, n); i >= len(names) || names[i] != n {
			t.Errorf("Names() missing %q: %v", n, names)
		}
	}
}

func TestAllAdvisorsTrainAndRecommend(t *testing.T) {
	env, w := testSetup(t)
	names := append([]string(nil), PaperAdvisors...)
	names = append(names, "Heuristic")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			ia, err := New(name, env, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			if ia.Name() != name && name != "Heuristic" {
				t.Errorf("Name() = %q, want %q", ia.Name(), name)
			}
			// The experiment drivers clone every victim off a trained base
			// and keep no retrain fallback, so every advisor must clone.
			if _, ok := ia.(advisor.Cloner); !ok {
				t.Errorf("%s does not implement advisor.Cloner", name)
			}
			ia.Train(w)
			idx := ia.Recommend(w)
			if len(idx) > fastConfig().Budget {
				t.Fatalf("budget violated: %d indexes", len(idx))
			}
			// All recommended indexes must be single-column over schema
			// columns (heuristic may be multi-column).
			for _, ix := range idx {
				for _, c := range ix.Columns {
					if env.Schema.Column(c) == nil {
						t.Errorf("recommended unknown column %q", c)
					}
				}
			}
		})
	}
}

func TestLearnedAdvisorsBeatNoIndex(t *testing.T) {
	env, w := testSetup(t)
	base := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, nil)
	for _, name := range []string{"DQN-b", "DRLindex-b", "DBAbandit-b", "SWIRL"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ia, err := New(name, env, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			ia.Train(w)
			idx := ia.Recommend(w)
			c := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, idx)
			if c >= base {
				t.Errorf("%s: trained cost %f >= base %f", name, c, base)
			}
		})
	}
}

func TestTrialBasedFlags(t *testing.T) {
	env, _ := testSetup(t)
	want := map[string]bool{
		"DQN-b": true, "DRLindex-m": true, "DBAbandit-b": true,
		"SWIRL": false, "Heuristic": false,
	}
	for name, tb := range want {
		ia, err := New(name, env, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		if ia.TrialBased() != tb {
			t.Errorf("%s.TrialBased() = %v, want %v", name, ia.TrialBased(), tb)
		}
	}
}

func TestIntrospection(t *testing.T) {
	env, w := testSetup(t)
	for _, name := range []string{"DQN-b", "DRLindex-b", "DBAbandit-b", "SWIRL"} {
		ia, err := New(name, env, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		intro, ok := ia.(advisor.Introspector)
		if !ok {
			t.Fatalf("%s does not implement Introspector", name)
		}
		ia.Train(w)
		prefs := intro.ColumnPreferences()
		if len(prefs) != env.L() {
			t.Errorf("%s: preferences over %d columns, want %d", name, len(prefs), env.L())
		}
	}
}

func TestHeuristicDeterministicAcrossRetrain(t *testing.T) {
	// The heuristic control has no trainable state: Retrain must not change
	// its recommendation (the paper's AD ≡ 0 property for heuristic IAs).
	env, w := testSetup(t)
	ia, err := New("Heuristic", env, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ia.Train(w)
	before := ia.Recommend(w)
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 12, rand.New(rand.NewSource(99)))
	ia.Retrain(w.Merge(other))
	after := ia.Recommend(w)
	if len(before) != len(after) {
		t.Fatalf("recommendation size changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Key() != after[i].Key() {
			t.Errorf("index %d changed: %s vs %s", i, before[i].Key(), after[i].Key())
		}
	}
}

func TestHeuristicFindsStrongIndexes(t *testing.T) {
	env, w := testSetup(t)
	ia, err := New("Heuristic", env, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx := ia.Recommend(w)
	if len(idx) == 0 {
		t.Fatal("heuristic recommended nothing")
	}
	base := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, nil)
	c := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, idx)
	if red := 1 - c/base; red < 0.05 {
		t.Errorf("heuristic reduction = %f, want >= 0.05", red)
	}
}

func TestRetrainIsWarmStart(t *testing.T) {
	// Retraining on the same workload must keep a trained advisor
	// performing at least as well, not reset it.
	env, w := testSetup(t)
	ia, err := New("SWIRL", env, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ia.Train(w)
	base := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, nil)
	c1 := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, ia.Recommend(w))
	ia.Retrain(w)
	c2 := env.WhatIf.WorkloadCost(w.Queries, w.Freqs, ia.Recommend(w))
	if c1 >= base && c2 >= base {
		t.Skip("advisor failed to learn at this tiny budget; warm-start check not meaningful")
	}
	if c2 > base {
		t.Errorf("retrain on same data degraded below no-index baseline: %f > %f", c2, base)
	}
}
