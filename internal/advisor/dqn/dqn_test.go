package dqn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/nn"
	"repro/internal/sql"
	"repro/internal/workload"
)

func setup(t *testing.T) (*advisor.Env, *workload.Workload) {
	t.Helper()
	s := catalog.TPCH(1)
	env := advisor.NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
	w := workload.GenerateNormal(s, workload.TPCHTemplates(), 10, rand.New(rand.NewSource(3)))
	return env, w
}

func fastCfg() advisor.Config {
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 25
	cfg.InferTrajectories = 6
	cfg.Hidden = 32
	cfg.MeanWindow = 4
	return cfg
}

// kinds lists both Q-learning advisors; the table tests run each subtest
// under the kind's name prefix.
var kinds = []struct {
	name string
	new  func(*advisor.Env, advisor.Config) *DQN
}{
	{"DQN", New},
	{"DRLindex", NewDRLindex},
}

func TestNameAndVariant(t *testing.T) {
	env, _ := setup(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			cfg := fastCfg()
			d := k.new(env, cfg)
			if got := d.Name(); got != k.name+"-b" {
				t.Errorf("Name = %q", got)
			}
			if !d.TrialBased() {
				t.Error("TrialBased = false")
			}
			cfg.Variant = advisor.Mean
			if got := k.new(env, cfg).Name(); got != k.name+"-m" {
				t.Errorf("Name = %q", got)
			}
		})
	}
}

func TestVariants(t *testing.T) {
	env, w := setup(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, v := range []advisor.Variant{advisor.Best, advisor.Mean} {
				cfg := fastCfg()
				cfg.Variant = v
				d := k.new(env, cfg)
				d.Train(w)
				if idx := d.Recommend(w); len(idx) == 0 || len(idx) > cfg.Budget {
					t.Errorf("variant %v: %d indexes", v, len(idx))
				}
			}
		})
	}
}

func TestBudgetRespected(t *testing.T) {
	env, w := setup(t)
	cfg := fastCfg()
	cfg.Budget = 2
	d := New(env, cfg)
	d.Train(w)
	if idx := d.Recommend(w); len(idx) > 2 {
		t.Errorf("recommended %d indexes, budget 2", len(idx))
	}
}

func TestTraceHookFires(t *testing.T) {
	env, w := setup(t)
	cfg := fastCfg()
	n := 0
	cfg.Trace = func(float64) { n++ }
	d := New(env, cfg)
	d.Train(w)
	if n != cfg.Trajectories {
		t.Errorf("trace fired %d times, want %d", n, cfg.Trajectories)
	}
	d.Retrain(w)
	if n != 2*cfg.Trajectories {
		t.Errorf("trace fired %d times after retrain, want %d", n, 2*cfg.Trajectories)
	}
}

func TestRetrainClearsReplay(t *testing.T) {
	env, w := setup(t)
	d := New(env, fastCfg())
	d.Train(w)
	if len(d.replay) == 0 {
		t.Fatal("no replay after training")
	}
	// Retrain restarts the buffer with fresh experience only.
	before := len(d.replay)
	d.Retrain(w)
	after := len(d.replay)
	maxNew := fastCfg().Trajectories * fastCfg().Budget
	if after > maxNew {
		t.Errorf("replay has %d entries after retrain, want <= %d fresh (had %d)", after, maxNew, before)
	}
}

func TestInferenceUsesTrainingMask(t *testing.T) {
	env, w := setup(t)
	d := New(env, fastCfg())
	d.Train(w)
	if d.lastMask == nil {
		t.Fatal("no training mask recorded")
	}
	// Recommend on an unrelated workload must still respect the learned
	// candidate set: all recommended lead columns are in lastMask.
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 6, rand.New(rand.NewSource(9)))
	for _, ix := range d.Recommend(other) {
		ci := env.ColIdx[ix.LeadColumn()]
		if !d.lastMask[ci] {
			t.Errorf("recommended %s outside the training candidate set", ix.Key())
		}
	}
}

// TestCandidateFilterByKind: DQN prunes columns outside the heuristic
// candidate filter, so its preferences give them zero weight; DRLindex
// applies no filtering (§6.2), so every column is an action with a learned
// Q-value.
func TestCandidateFilterByKind(t *testing.T) {
	env, w := setup(t)
	filter := env.CandidateFilter(w)
	var outside []string
	for i, col := range env.Columns {
		if !filter[i] {
			outside = append(outside, col)
		}
	}
	if len(outside) == 0 {
		t.Fatal("the candidate filter admits every column; the test cannot tell the kinds apart")
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d := k.new(env, fastCfg())
			d.Train(w)
			if filtered := d.lastMask != nil; filtered != !d.kind.presence {
				t.Fatalf("training mask recorded = %v", filtered)
			}
			prefs := d.ColumnPreferences()
			for _, col := range outside {
				if zero := prefs[col] == 0; zero != !d.kind.presence {
					t.Errorf("%s outside the candidate filter: preference %g", col, prefs[col])
				}
			}
		})
	}
}

// TestPreferencesCoverAllColumns: a trained advisor of either kind reports a
// preference for every column, filtered or not.
func TestPreferencesCoverAllColumns(t *testing.T) {
	env, w := setup(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d := k.new(env, fastCfg())
			d.Train(w)
			if prefs := d.ColumnPreferences(); len(prefs) != env.L() {
				t.Errorf("preferences over %d columns, want %d", len(prefs), env.L())
			}
		})
	}
}

// TestInverseCostRewardSensitivity: the per-query inverse-cost reward weighs
// a cheap query's improvement as much as an expensive one's — the
// over-sensitivity of §6.2 — and it is DRLindex's training reward, while DQN
// trains on the episode's cost reduction.
func TestInverseCostRewardSensitivity(t *testing.T) {
	env, _ := setup(t)
	s := env.Schema
	cheap, err := sql.ParseResolved("SELECT * FROM region WHERE r_name = 2", s)
	if err != nil {
		t.Fatal(err)
	}
	costly, err := sql.ParseResolved("SELECT COUNT(*) FROM lineitem WHERE l_partkey = 5", s)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.New(cheap, costly)
	action := env.ColIdx["lineitem.l_partkey"]
	ep := env.NewEpisode(w, 2)
	before := ep.InverseCostReduction()
	// Index that only helps the (cheap-table-irrelevant) expensive query.
	reduction := ep.Step(action)
	after := ep.InverseCostReduction()
	if after <= before {
		t.Errorf("inverse-cost level did not rise: %f <= %f", after, before)
	}
	// Its magnitude reflects the expensive query's own relative gain, not
	// its absolute cost share.
	if after-before < 0.3 {
		t.Errorf("per-query reward %.3f too small: should track relative, not absolute, gain", after-before)
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			want := reduction
			if k.name == "DRLindex" {
				want = after - before
			}
			if got := k.new(env, fastCfg()).step(env.NewEpisode(w, 2), action); got != want {
				t.Errorf("step reward %g, want %g", got, want)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	env, w := setup(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d := k.new(env, fastCfg())
			d.Train(w)
			before := d.net.Params()
			c := d.CloneAdvisor().(*DQN)
			if c.Name() != d.Name() {
				t.Errorf("clone is %s, original %s", c.Name(), d.Name())
			}
			c.Retrain(w)
			after := d.net.Params()
			for i := range before {
				if before[i] != after[i] {
					t.Fatal("retraining the clone mutated the original's parameters")
				}
			}
		})
	}
}

func TestColumnPreferencesUntrained(t *testing.T) {
	env, _ := setup(t)
	d := New(env, fastCfg())
	if prefs := d.ColumnPreferences(); len(prefs) != 0 {
		t.Errorf("untrained preferences = %d entries, want 0", len(prefs))
	}
}

func TestRecommendDeterministicPerSeed(t *testing.T) {
	env, w := setup(t)
	mk := func() []cost.Index {
		d := New(env, fastCfg())
		d.Train(w)
		return d.Recommend(w)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Errorf("index %d differs: %s vs %s (same seed must reproduce)", i, a[i].Key(), b[i].Key())
		}
	}
}

// TestTargetMemoFresh: every max-Q memoised under the current target
// generation must equal, bit for bit, the target network's value now. A
// sync, or a Clone or Restore that replaces the target, must therefore move
// the generation on.
func TestTargetMemoFresh(t *testing.T) {
	env, w := setup(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d := k.new(env, fastCfg())
			d.Train(w)
			check := func(what string, d *DQN) {
				t.Helper()
				memos := 0
				for _, tr := range d.replay {
					if tr.gen != d.targetGen {
						continue
					}
					memos++
					tq := d.target.Forward(tr.next)
					if want := tq[nn.Argmax(tq, nil)]; math.Float64bits(tr.nextMax) != math.Float64bits(want) {
						t.Fatalf("%s: memoised max-Q %v, target network gives %v", what, tr.nextMax, want)
					}
				}
				if memos == 0 {
					t.Fatalf("%s: no memoised max-Q to check", what)
				}
			}
			for round := 0; round < 3; round++ {
				d.trainBatch()
				d.trainBatch()
				check("after training", d)
				d.syncTarget()
				d.trainBatch()
				check("after a sync", d)
			}
			c := d.CloneAdvisor().(*DQN)
			c.trainBatch()
			check("clone", c)

			blob, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r := k.new(env, fastCfg())
			if err := r.Restore(blob); err != nil {
				t.Fatal(err)
			}
			r.replay = append(r.replay, d.replay...)
			r.trainBatch()
			check("restored", r)
		})
	}
}
