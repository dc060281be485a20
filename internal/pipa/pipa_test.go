package pipa

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/qgen"
	"repro/internal/workload"
)

// fastTester builds a stress tester scaled down for test speed.
func fastTester(t *testing.T) (*StressTester, *advisor.Env, *workload.Workload) {
	t.Helper()
	s := catalog.TPCH(1)
	w := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, w)
	cfg := DefaultConfig(s)
	cfg.P = 6
	cfg.Np = 8
	cfg.Na = 12
	opts := qgen.DefaultOptions()
	opts.CorpusSize = 60
	opts.MaxAttempts = 5
	gen := qgen.TrainIABART(qgen.NewFSM(s), w, nil, opts, 3)
	st := NewStressTester(s, w, gen, cfg)
	nw := workload.GenerateNormal(s, workload.TPCHTemplates(), 14, rand.New(rand.NewSource(31)))
	return st, env, nw
}

func fastAdvisor(t *testing.T, env *advisor.Env, name string) advisor.Advisor {
	t.Helper()
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 30
	cfg.InferTrajectories = 8
	cfg.MeanWindow = 4
	cfg.Hidden = 32
	ia, err := registry.New(name, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ia
}

func TestDefaultConfig(t *testing.T) {
	s := catalog.TPCH(1)
	cfg := DefaultConfig(s)
	if cfg.P != 20 || cfg.Np != 18 || cfg.Na != 18 || cfg.NumCols != 4 {
		t.Errorf("TPC-H defaults wrong: %+v", cfg)
	}
	ds := DefaultConfig(catalog.TPCDS(1))
	if ds.Np != 90 || ds.Na != 90 {
		t.Errorf("TPC-DS defaults wrong: %+v", ds)
	}
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		t.Errorf("beta = %f", cfg.Beta)
	}
}

func TestProbeProducesFullRanking(t *testing.T) {
	st, env, nw := fastTester(t)
	ia := fastAdvisor(t, env, "DQN-b")
	ia.Train(nw)
	pref := st.Probe(context.Background(), ia)
	if len(pref.Ranking) != env.L() {
		t.Fatalf("ranking over %d columns, want %d", len(pref.Ranking), env.L())
	}
	seen := make(map[string]bool)
	for _, c := range pref.Ranking {
		if seen[c] {
			t.Fatalf("duplicate column %s in ranking", c)
		}
		seen[c] = true
	}
	// K must be non-increasing along the ranking.
	for i := 1; i < len(pref.Ranking); i++ {
		if pref.K[pref.Ranking[i]] > pref.K[pref.Ranking[i-1]]+1e-12 {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
	if pref.EpochsRun == 0 {
		t.Error("no probing epochs ran")
	}
	// The probe should surface at least one genuinely preferred column:
	// the top of the estimated ranking has positive K.
	if pref.K[pref.Ranking[0]] <= 0 {
		t.Errorf("top-ranked K = %f, want > 0", pref.K[pref.Ranking[0]])
	}
}

func TestSegments(t *testing.T) {
	st, _, _ := fastTester(t)
	cols := st.Schema.IndexableColumnNames()
	pref := &Preference{Ranking: cols, K: map[string]float64{}}
	// Force l_partkey to the top: its FK closure must land in the top
	// segment (§6.4's l_partkey/ps_partkey/p_partkey example).
	ranking := append([]string{"lineitem.l_partkey"}, removeString(cols, "lineitem.l_partkey")...)
	pref.Ranking = ranking
	top, mid, low := st.Segments(pref)
	if !contains(top, "lineitem.l_partkey") || !contains(top, "partsupp.ps_partkey") || !contains(top, "part.p_partkey") {
		t.Errorf("top segment %v missing FK closure", top)
	}
	if len(mid) == 0 || len(low) == 0 {
		t.Errorf("degenerate segments: mid %d low %d", len(mid), len(low))
	}
	if len(top)+len(mid)+len(low) != len(cols) {
		t.Error("segments do not partition the ranking")
	}
	// Mid segment ends at L/4 by default.
	if len(mid) > len(cols)/4 {
		t.Errorf("mid segment too large: %d > L/4", len(mid))
	}
}

func TestSegmentsOverrides(t *testing.T) {
	st, _, _ := fastTester(t)
	st.Cfg.MidStart = 3
	st.Cfg.MidEnd = 10
	cols := st.Schema.IndexableColumnNames()
	pref := &Preference{Ranking: cols}
	top, mid, _ := st.Segments(pref)
	// Ranks 1-2 plus the best column's FK closure: ranking[0] is
	// region.r_regionkey, whose closure adds nation.n_regionkey.
	if len(top) != 3 {
		t.Errorf("top = %d, want 3 (MidStart 3 + closure)", len(top))
	}
	if len(mid) != 7 {
		t.Errorf("mid = %d, want 7 (ranks 3..10 minus closure)", len(mid))
	}
}

func TestInjectFiltersTopColumn(t *testing.T) {
	st, env, nw := fastTester(t)
	ia := fastAdvisor(t, env, "DQN-b")
	ia.Train(nw)
	pref := st.Probe(context.Background(), ia)
	tw := st.InjectN(context.Background(), pref, st.Cfg.Na)
	if tw.Len() == 0 {
		t.Fatal("empty toxic workload")
	}
	top, mid, _ := st.Segments(pref)
	midSet := make(map[string]bool)
	for _, c := range mid {
		midSet[c] = true
	}
	var topIdx []cost.Index
	if len(top) > 0 {
		topIdx = []cost.Index{cost.NewIndex(top[0])}
	}
	for _, q := range tw.Queries {
		// Every toxic query beats the top index with some mid-column set
		// (Alg. 2 filter): verify the weaker invariant that the query's
		// optimal column is not the top-ranked column.
		opt, _, ok := qgen.OptimalSingleColumn(st.WhatIf, q)
		if !ok {
			t.Errorf("non-sargable toxic query %q", q)
			continue
		}
		if len(top) > 0 && opt == top[0] {
			t.Errorf("toxic query optimized by the top column %s: %q", opt, q)
		}
		_ = topIdx
	}
}

func TestStressTestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end stress test")
	}
	st, env, nw := fastTester(t)
	ia := fastAdvisor(t, env, "DRLindex-b")
	ia.Train(nw)
	victim := ia.(advisor.Cloner).CloneAdvisor()
	res := st.StressTest(context.Background(), victim, PIPAInjector{st}, nw, st.Cfg.Na)
	if res.BaselineCost <= 0 || res.PoisonedCost <= 0 {
		t.Fatalf("degenerate costs: %+v", res)
	}
	if res.Injector != "PIPA" || res.Advisor != "DRLindex-b" {
		t.Errorf("labels wrong: %+v", res)
	}
	if res.InjectionSize == 0 {
		t.Error("no toxic queries injected")
	}
	if len(res.BaselineIndexes) == 0 || len(res.PoisonedIndexes) == 0 {
		t.Errorf("missing index records: %+v", res)
	}
	// AD is consistent with the recorded costs (Def. 2.3).
	want := (res.PoisonedCost - res.BaselineCost) / res.BaselineCost
	if diff := res.AD - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("AD = %f, want %f", res.AD, want)
	}
	// At this tiny training budget the baseline is underfit, so the sign of
	// AD is noisy; the shape claim (PIPA ≥ random) is validated at real
	// budgets by the experiments package and pipa-bench.
}

func TestHeuristicADZero(t *testing.T) {
	st, env, nw := fastTester(t)
	ia := fastAdvisor(t, env, "Heuristic")
	ia.Train(nw)
	res := st.StressTest(context.Background(), ia, PIPAInjector{st}, nw, st.Cfg.Na)
	if res.AD != 0 {
		t.Errorf("heuristic AD = %f, want exactly 0 (§2.1)", res.AD)
	}
}

func TestInjectorNames(t *testing.T) {
	st, _, _ := fastTester(t)
	wantPaper := []string{"TP", "FSM", "I-R", "I-L", "P-C", "PIPA"}
	paper := PaperInjectors(st)
	if len(paper) != len(wantPaper) {
		t.Fatalf("paper injectors = %d, want %d", len(paper), len(wantPaper))
	}
	for i, inj := range paper {
		if inj.Name() != wantPaper[i] {
			t.Errorf("paper injector %d = %s, want %s", i, inj.Name(), wantPaper[i])
		}
	}
	wantZoo := append(append([]string(nil), wantPaper...),
		"BAD", "SUB", "BAD+SUB", "R-OOD", "N-OOD", "ADAPT")
	zoo := Injectors(st)
	if len(zoo) != len(wantZoo) {
		t.Fatalf("zoo injectors = %d, want %d", len(zoo), len(wantZoo))
	}
	for i, inj := range zoo {
		if inj.Name() != wantZoo[i] {
			t.Errorf("zoo injector %d = %s, want %s", i, inj.Name(), wantZoo[i])
		}
	}
}

func TestNonProbingInjectorsBuild(t *testing.T) {
	st, env, _ := fastTester(t)
	ia := fastAdvisor(t, env, "Heuristic")
	for _, inj := range []Injector{TPInjector{st}, FSMInjector{st}, IRInjector{st}} {
		tw := inj.BuildInjection(context.Background(), ia, 6)
		if tw.Len() == 0 {
			t.Errorf("%s produced empty injection", inj.Name())
		}
	}
}

func TestRD(t *testing.T) {
	toxic := Result{AD: 0.5}
	random := Result{AD: 0.1}
	if got := RD(toxic, random); got != 0.4 {
		t.Errorf("RD = %f, want 0.4", got)
	}
}

func TestSampleColumnsRespectsZeroMass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols := []string{"a", "b", "c"}
	mu := []float64{0, 1, 0}
	for i := 0; i < 20; i++ {
		got := sampleColumns(cols, mu, 2, rng, nil)
		if len(got) != 1 || got[0] != "b" {
			t.Fatalf("sampleColumns = %v, want [b]", got)
		}
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeString(s []string, v string) []string {
	out := make([]string, 0, len(s))
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func TestILInjectorTargetsLowRanks(t *testing.T) {
	st, env, nw := fastTester(t)
	ia := fastAdvisor(t, env, "DQN-b")
	ia.Train(nw)
	tw := ILInjector{st}.BuildInjection(context.Background(), ia, 6)
	// I-L may produce fewer queries (low-ranked columns are often
	// unindexable), but whatever it produces must be resolvable queries.
	for _, q := range tw.Queries {
		if len(q.Tables) == 0 {
			t.Errorf("malformed I-L query %q", q)
		}
	}
}

func TestPCFallsBackWithoutIntrospection(t *testing.T) {
	st, env, nw := fastTester(t)
	// The heuristic advisor does not implement Introspector... it has no
	// preference weights; wrap it to hide any optional interfaces.
	ia := opaqueOnly{fastAdvisor(t, env, "Heuristic")}
	ia.Train(nw)
	tw := PCInjector{st}.BuildInjection(context.Background(), ia, 4)
	if tw == nil {
		t.Fatal("P-C returned nil workload on fallback")
	}
}

// opaqueOnly strips optional interfaces from an advisor.
type opaqueOnly struct{ inner advisor.Advisor }

func (o opaqueOnly) Name() string                                { return o.inner.Name() }
func (o opaqueOnly) TrialBased() bool                            { return o.inner.TrialBased() }
func (o opaqueOnly) Train(w *workload.Workload)                  { o.inner.Train(w) }
func (o opaqueOnly) Retrain(w *workload.Workload)                { o.inner.Retrain(w) }
func (o opaqueOnly) Recommend(w *workload.Workload) []cost.Index { return o.inner.Recommend(w) }
