package trim

import (
	"bytes"
	"context"
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/defense"
	"repro/internal/obs"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// setup builds the tiny TPC-H environment the defense tests share: a trusted
// 14-query normal workload and a stress tester for building injections.
func setup(t *testing.T) (*advisor.Env, *workload.Workload, *pipa.StressTester) {
	t.Helper()
	s := catalog.TPCH(1)
	w := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, w)
	nw := workload.GenerateNormal(s, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(13)))
	cfg := pipa.DefaultConfig(s)
	cfg.P = 5
	cfg.Np = 8
	cfg.Na = 12
	opts := qgen.DefaultOptions()
	opts.CorpusSize = 80
	gen := qgen.TrainIABART(qgen.NewFSM(s), w, nil, opts, 3)
	return env, nw, pipa.NewStressTester(s, w, gen, cfg)
}

func fastCfg() advisor.Config {
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 30
	cfg.InferTrajectories = 10
	cfg.Hidden = 32
	return cfg
}

// trainedVictim returns a snapshottable advisor trained on the trusted
// workload. DBAbandit-b converges fastest, keeping the refit loops cheap.
func trainedVictim(t *testing.T, env *advisor.Env, nw *workload.Workload) advisor.Snapshottable {
	t.Helper()
	ia, err := registry.New("DBAbandit-b", env, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	ia.Train(nw)
	snap, ok := ia.(advisor.Snapshottable)
	if !ok {
		t.Fatal("DBAbandit-b is not snapshottable")
	}
	return snap
}

// toxicInjection builds the hand-crafted toxic workload the defense tests
// use: a preference whose mid segment holds columns the reference workload
// never rewards, the genuinely poisonous case.
func toxicInjection(t *testing.T, env *advisor.Env, st *pipa.StressTester) *workload.Workload {
	t.Helper()
	cols := env.Schema.IndexableColumnNames()
	ranking := []string{
		"lineitem.l_shipdate", "lineitem.l_partkey", "lineitem.l_orderkey",
		"lineitem.l_receiptdate",
		"part.p_retailprice", "customer.c_phone", "supplier.s_acctbal",
		"orders.o_clerk", "partsupp.ps_supplycost",
	}
	seen := make(map[string]bool)
	k := map[string]float64{}
	for i, c := range ranking {
		seen[c] = true
		k[c] = 1 / float64(i+1)
	}
	for _, c := range cols {
		if !seen[c] {
			ranking = append(ranking, c)
		}
	}
	tw := st.Inject(context.Background(), &pipa.Preference{Ranking: ranking, K: k})
	if tw.Len() == 0 {
		t.Skip("no toxic queries generated at this scale")
	}
	return tw
}

// TestTrimScreenCleanZeroFalsePositives is the satellite guarantee: on
// pure-clean batches every variant at ε up to 0.3 must drop nothing, and
// defense_clean_dropped_total must not move.
func TestTrimScreenCleanZeroFalsePositives(t *testing.T) {
	env, nw, _ := setup(t)
	victim := trainedVictim(t, env, nw)
	// Two clean batches: the trusted training set itself, and unseen normal
	// traffic from the same templates (different parameters).
	other := workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(29)))

	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		for _, eps := range []float64{0.1, 0.2, 0.3} {
			scr := New(victim, env.WhatIf, Config{Variant: v, Epsilon: eps, Seed: 7})
			for name, clean := range map[string]*workload.Workload{"trained": nw, "unseen": other} {
				before := obs.GetCounter("defense_clean_dropped_total").Value()
				rep := defense.ScreenCleanWith(scr, clean)
				after := obs.GetCounter("defense_clean_dropped_total").Value()
				if rep.Dropped != 0 {
					t.Errorf("%s eps=%.1f dropped %d clean %s queries: %s", v, eps, rep.Dropped, name, rep)
				}
				if after != before+int64(rep.Dropped) {
					t.Errorf("%s eps=%.1f: defense_clean_dropped_total rose by %d, want %d",
						v, eps, after-before, rep.Dropped)
				}
			}
		}
	}
}

// TestTrimDropsToxicKeepsClean: on a poisoned merge the screener must drop
// only injected queries, never the trusted normal ones.
func TestTrimDropsToxicKeepsClean(t *testing.T) {
	env, nw, st := setup(t)
	victim := trainedVictim(t, env, nw)
	tw := toxicInjection(t, env, st)
	batch := nw.Merge(tw)

	cleanTexts := make(map[string]bool)
	for _, q := range nw.Queries {
		cleanTexts[q.String()] = true
	}

	anyDropped := false
	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		scr := New(victim, env.WhatIf, Config{Variant: v, Seed: 7})
		kept, rep := scr.Screen(batch)
		if rep.Kept+rep.Dropped != batch.Len() {
			t.Errorf("%s: ledger: kept %d + dropped %d != incoming %d", v, rep.Kept, rep.Dropped, batch.Len())
		}
		for q := range rep.Reasons {
			if cleanTexts[q] {
				t.Errorf("%s dropped a trusted normal query: %s", v, q)
			}
		}
		if rep.Dropped > 0 {
			anyDropped = true
		}
		if kept.Len() == 0 {
			t.Errorf("%s kept nothing", v)
		}
	}
	if !anyDropped {
		t.Log("no variant dropped toxic queries at this scale (margins are conservative)")
	}
}

// TestTrimRestoresAdvisorState: Screen's scratch fits must leave the advisor
// byte-identical to its pre-call state.
func TestTrimRestoresAdvisorState(t *testing.T) {
	env, nw, st := setup(t)
	victim := trainedVictim(t, env, nw)
	tw := toxicInjection(t, env, st)
	batch := nw.Merge(tw)

	pre, err := victim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		scr := New(victim, env.WhatIf, Config{Variant: v, Seed: 7})
		scr.Screen(batch)
		post, err := victim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pre, post) {
			t.Fatalf("%s: advisor state changed across Screen (%d vs %d bytes)", v, len(pre), len(post))
		}
	}
}

// TestTrimOrderInsensitive: a permuted batch must select the identical drop
// set — the canonicalization rule FuzzTrimSubsetStable fuzzes.
func TestTrimOrderInsensitive(t *testing.T) {
	env, nw, st := setup(t)
	victim := trainedVictim(t, env, nw)
	tw := toxicInjection(t, env, st)
	batch := nw.Merge(tw)

	perm := rand.New(rand.NewSource(99)).Perm(batch.Len())
	shuffled := &workload.Workload{}
	for _, i := range perm {
		shuffled.Add(batch.Queries[i], batch.Freqs[i])
	}

	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		scr := New(victim, env.WhatIf, Config{Variant: v, Seed: 7})
		kept1, rep1 := scr.Screen(batch)
		kept2, rep2 := scr.Screen(shuffled)
		if rep1.Dropped != rep2.Dropped || rep1.Kept != rep2.Kept {
			t.Errorf("%s: permuted batch screened differently: %s vs %s", v, rep1, rep2)
		}
		if len(rep1.Reasons) != len(rep2.Reasons) {
			t.Errorf("%s: reason sets differ: %v vs %v", v, rep1.Reasons, rep2.Reasons)
		}
		for q := range rep1.Reasons {
			if _, ok := rep2.Reasons[q]; !ok {
				t.Errorf("%s: query dropped from original but not permuted batch: %s", v, q)
			}
		}
		if kept1.Len() != kept2.Len() {
			t.Errorf("%s: kept sizes differ: %d vs %d", v, kept1.Len(), kept2.Len())
		}
	}
}

// TestTrimReportGrammar pins the quarantine-reason grammar
// "<variant>:high-loss iter=N" and the report's strategy provenance.
func TestTrimReportGrammar(t *testing.T) {
	env, nw, st := setup(t)
	victim := trainedVictim(t, env, nw)
	tw := toxicInjection(t, env, st)
	batch := nw.Merge(tw)

	grammar := regexp.MustCompile(`^(trim|atrim|irl):high-loss iter=\d+$`)
	for _, v := range []Variant{TRIM, ATRIM, IRL} {
		scr := New(victim, env.WhatIf, Config{Variant: v, Seed: 7})
		if scr.Name() != v.String() {
			t.Errorf("Name = %q, want %q", scr.Name(), v)
		}
		_, rep := scr.Screen(batch)
		if rep.Strategy != v.String() {
			t.Errorf("Strategy = %q, want %q", rep.Strategy, v)
		}
		for q, why := range rep.Reasons {
			if !grammar.MatchString(why) {
				t.Errorf("%s: reason %q for %s does not match the grammar", v, why, q)
			}
		}
	}
}

// TestTrimEmptyAndTinyBatches: degenerate inputs must screen without
// panicking and keep everything.
func TestTrimEmptyAndTinyBatches(t *testing.T) {
	env, nw, _ := setup(t)
	victim := trainedVictim(t, env, nw)
	scr := New(victim, env.WhatIf, Config{Seed: 7})

	empty := &workload.Workload{}
	kept, rep := scr.Screen(empty)
	if kept.Len() != 0 || rep.Dropped != 0 {
		t.Errorf("empty batch: kept=%d %s", kept.Len(), rep)
	}

	single := &workload.Workload{}
	single.Add(nw.Queries[0], nw.Freqs[0])
	kept, rep = scr.Screen(single)
	if kept.Len() != 1 || rep.Dropped != 0 {
		t.Errorf("single-query batch: kept=%d %s", kept.Len(), rep)
	}
}

// TestBuildScreener covers the strategy factory: every canonical name, the
// stacked chain, and the error paths.
func TestBuildScreener(t *testing.T) {
	env, nw, _ := setup(t)
	victim := trainedVictim(t, env, nw)

	for _, none := range []string{"", "none"} {
		s, err := BuildScreener(none, victim, env.WhatIf, nw, 1)
		if s != nil || err != nil {
			t.Errorf("BuildScreener(%q) = %v, %v; want nil, nil", none, s, err)
		}
	}
	for _, name := range []string{"sanitizer", "trim", "atrim", "irl", "sanitizer+trim"} {
		s, err := BuildScreener(name, victim, env.WhatIf, nw, 1)
		if err != nil {
			t.Fatalf("BuildScreener(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("BuildScreener(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := BuildScreener("bogus", victim, env.WhatIf, nw, 1); err == nil {
		t.Error("BuildScreener(bogus) did not fail")
	}
	if _, err := BuildScreener("trim", notSnapshottable{}, env.WhatIf, nw, 1); err == nil {
		t.Error("BuildScreener(trim) accepted a non-snapshottable advisor")
	}
	var chain defense.CtxScreener = &defense.Chain{}
	_ = chain // Chain must satisfy CtxScreener at compile time.
}

// notSnapshottable is an advisor without Snapshot/Restore.
type notSnapshottable struct{}

func (notSnapshottable) Name() string                              { return "stub" }
func (notSnapshottable) TrialBased() bool                          { return false }
func (notSnapshottable) Train(*workload.Workload)                  {}
func (notSnapshottable) Retrain(*workload.Workload)                {}
func (notSnapshottable) Recommend(*workload.Workload) []cost.Index { return nil }
