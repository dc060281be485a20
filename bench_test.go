// Benchmarks: one macro benchmark per table/figure of the paper's evaluation
// (scaled-down ScaleTiny budgets; run the full parameterization with
// cmd/pipa-bench), plus micro benchmarks of the substrates. See DESIGN.md's
// experiment index for the table/figure ↔ benchmark mapping.
package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/defense"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/nn"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// tinySetup is shared across the macro benchmarks; construction trains the
// query generator once.
var tinySetup = experiments.NewSetup("tpch", 1, experiments.ScaleTiny)

// --- macro benchmarks: the paper's tables and figures ---

// BenchmarkFig1Motivation regenerates the Fig. 1 motivating comparison. It
// also reports the what-if cache hit volume per iteration — the memoization
// layer dominates this benchmark's profile.
func BenchmarkFig1Motivation(b *testing.B) {
	calls0, hits0 := tinySetup.WhatIf.Stats()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMotivation(context.Background(), tinySetup); err != nil {
			b.Fatal(err)
		}
	}
	calls, hits := tinySetup.WhatIf.Stats()
	b.ReportMetric(float64(calls-calls0)/float64(b.N), "whatif-calls/op")
	b.ReportMetric(float64(hits-hits0)/float64(b.N), "whatif-hits/op")
}

// BenchmarkFig7MainResult regenerates Fig. 7's AD boxes (one advisor at
// bench scale; pipa-bench runs all seven).
func BenchmarkFig7MainResult(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMainResult(context.Background(), tinySetup, []string{"DQN-b"}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMainResult runs the Fig. 7 driver over two advisors at a fixed pool
// width; the Serial/Parallel pair below measures the experiment-runner
// speedup (results are byte-identical across widths, only wall clock moves).
func benchMainResult(b *testing.B, workers int) {
	b.Helper()
	saved := tinySetup.Workers
	tinySetup.Workers = workers
	defer func() { tinySetup.Workers = saved }()
	calls0, hits0 := tinySetup.WhatIf.Stats()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMainResult(context.Background(), tinySetup, []string{"DQN-b", "DRLindex-b"}); err != nil {
			b.Fatal(err)
		}
	}
	calls, hits := tinySetup.WhatIf.Stats()
	b.ReportMetric(float64(calls-calls0)/float64(b.N), "whatif-calls/op")
	if calls > calls0 {
		b.ReportMetric(float64(hits-hits0)/float64(calls-calls0), "hit-rate")
	}
}

func BenchmarkMainResultSerial(b *testing.B)   { benchMainResult(b, 1) }
func BenchmarkMainResultParallel(b *testing.B) { benchMainResult(b, 0) }

// BenchmarkTable1RD regenerates the Table 1 RD rows (trial-based advisor).
func BenchmarkTable1RD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMainResult(context.Background(), tinySetup, []string{"DRLindex-b"})
		if err != nil {
			b.Fatal(err)
		}
		_ = r.RD
	}
}

// BenchmarkFig8CaseStudies regenerates the Fig. 8 learning-curve traces.
func BenchmarkFig8CaseStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCaseStudies(context.Background(), tinySetup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Table2InjectionSize regenerates the ω sweep (two points at
// bench scale).
func BenchmarkFig9Table2InjectionSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunInjectionSize(context.Background(), tinySetup, []string{"DQN-b"}, []float64{0.5, 2}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Boundaries regenerates the target-segment boundary sweep.
func BenchmarkFig10Boundaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBoundaries(context.Background(), tinySetup, "DQN-b", []int{3, 5}, []float64{0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11ProbingEpochs regenerates the probing-budget sweep.
func BenchmarkFig11ProbingEpochs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunProbingEpochs(context.Background(), tinySetup, []string{"DQN-b"}, []int{0, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12ProbingParams regenerates the α/β parameter sweeps.
func BenchmarkFig12ProbingParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunProbingParams(context.Background(), tinySetup, "DQN-b", []float64{0.1}, []float64{0, 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3GeneratorQuality regenerates the query-generator rows.
func BenchmarkTable3GeneratorQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGeneratorQuality(context.Background(), tinySetup, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro benchmarks: substrates ---

func benchQuery(b *testing.B) (*catalog.Schema, *cost.Model, *sql.Query) {
	b.Helper()
	s := catalog.TPCH(1)
	m := cost.NewModel(s)
	q, err := sql.ParseResolved(
		"SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderdate BETWEEN 100 AND 140 AND l_quantity > 30", s)
	if err != nil {
		b.Fatal(err)
	}
	return s, m, q
}

func BenchmarkCostModelPlan(b *testing.B) {
	_, m, q := benchQuery(b)
	idx := []cost.Index{cost.NewIndex("lineitem.l_orderkey"), cost.NewIndex("orders.o_orderdate")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.QueryCost(q, idx)
	}
}

func BenchmarkWhatIfCached(b *testing.B) {
	s, m, q := benchQuery(b)
	_ = s
	w := cost.NewWhatIf(m)
	idx := []cost.Index{cost.NewIndex("lineitem.l_orderkey")}
	w.QueryCost(q, idx) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.QueryCost(q, idx)
	}
	b.StopTimer()
	st := w.CacheStats()
	b.ReportMetric(st.HitRate(), "hit-rate")
}

// BenchmarkWhatIfCachedParallel hammers the sharded cache from every CPU over
// a handful of hot (query, index set) keys — the access pattern concurrent
// experiment cells produce. The serial BenchmarkWhatIfCached above is the
// single-goroutine reference; scaling between the two is the shard win.
func BenchmarkWhatIfCachedParallel(b *testing.B) {
	s, m, q := benchQuery(b)
	q2, err := sql.ParseResolved(
		"SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17 AND l_quantity > 30", s)
	if err != nil {
		b.Fatal(err)
	}
	w := cost.NewWhatIf(m)
	type cell struct {
		q   *sql.Query
		idx []cost.Index
	}
	cells := []cell{
		{q, nil},
		{q, []cost.Index{cost.NewIndex("lineitem.l_orderkey")}},
		{q, []cost.Index{cost.NewIndex("orders.o_orderdate")}},
		{q, []cost.Index{cost.NewIndex("lineitem.l_orderkey"), cost.NewIndex("orders.o_orderdate")}},
		{q2, nil},
		{q2, []cost.Index{cost.NewIndex("lineitem.l_partkey")}},
	}
	for _, c := range cells {
		w.QueryCost(c.q, c.idx) // warm
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c := cells[i%len(cells)]
			w.QueryCost(c.q, c.idx)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(w.CacheStats().HitRate(), "hit-rate")
}

// benchSweepSetup builds the |W|=200 TPC-H workload and the rotating
// single-index-delta candidate sets the sweep benchmarks iterate over: a
// fixed three-index base configuration plus one rotating single-column
// candidate, the access pattern of greedy/bandit candidate enumeration.
func benchSweepSetup(b *testing.B) (*cost.WhatIf, *workload.Workload, [][]cost.Index) {
	b.Helper()
	s := catalog.TPCH(1)
	w := cost.NewWhatIf(cost.NewModel(s))
	wl := workload.GenerateNormal(s, workload.TPCHTemplates(), 200, rand.New(rand.NewSource(9)))
	base := []cost.Index{
		cost.NewIndex("lineitem.l_orderkey"),
		cost.NewIndex("orders.o_orderdate"),
		cost.NewIndex("customer.c_custkey"),
	}
	cands := []string{
		"lineitem.l_partkey", "lineitem.l_suppkey", "lineitem.l_shipdate",
		"lineitem.l_quantity", "orders.o_custkey", "orders.o_totalprice",
		"customer.c_nationkey", "customer.c_acctbal", "part.p_size",
		"part.p_brand", "partsupp.ps_availqty", "supplier.s_nationkey",
	}
	// Interleave the base configuration between candidates so every
	// consecutive evaluation differs by exactly one single-column index —
	// greedy enumeration's evaluate-candidate-then-revert access pattern.
	sets := make([][]cost.Index, 0, 2*len(cands))
	for _, c := range cands {
		sets = append(sets, base,
			append(append([]cost.Index(nil), base...), cost.NewIndex(c)))
	}
	// Warm every (query, set) pair so both sweep styles measure pure sweep
	// overhead over a hot cache, not first-plan cost.
	for _, set := range sets {
		w.WorkloadCost(wl.Queries, wl.Freqs, set)
	}
	return w, wl, sets
}

// BenchmarkWorkloadCostFullSweep is the pre-delta baseline: every evaluation
// probes the cache once per query (|W|=200 probes) even though consecutive
// sets differ by a single index.
func BenchmarkWorkloadCostFullSweep(b *testing.B) {
	w, wl, sets := benchSweepSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WorkloadCost(wl.Queries, wl.Freqs, sets[i%len(sets)])
	}
}

// BenchmarkWorkloadCostDelta sweeps the same rotating sets through a
// WorkloadCoster session: each evaluation re-costs only the queries whose
// referenced columns intersect the two swapped candidates' columns. The
// ns/op ratio against BenchmarkWorkloadCostFullSweep is the delta win.
func BenchmarkWorkloadCostDelta(b *testing.B) {
	w, wl, sets := benchSweepSetup(b)
	coster := w.NewWorkloadCoster(wl.Queries, wl.Freqs)
	for _, set := range sets {
		coster.Cost(set) // warm the session across the whole rotation
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coster.Cost(sets[i%len(sets)])
	}
	b.StopTimer()
	st := coster.Stats()
	if st.Recosted+st.Reused > 0 {
		b.ReportMetric(float64(st.Recosted)/float64(st.Recosted+st.Reused), "recost-frac")
	}
}

// BenchmarkWorkloadCostDeltaRepeat measures the anchor-equal fast path
// (re-evaluating the set just costed), the floor of the delta design.
func BenchmarkWorkloadCostDeltaRepeat(b *testing.B) {
	w, wl, sets := benchSweepSetup(b)
	coster := w.NewWorkloadCoster(wl.Queries, wl.Freqs)
	coster.Cost(sets[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coster.Cost(sets[0])
	}
}

func BenchmarkSQLParse(b *testing.B) {
	src := "SELECT l_returnflag, SUM(l_extendedprice), COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipdate BETWEEN 100 AND 200 GROUP BY l_returnflag ORDER BY l_returnflag DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bt := storage.NewBTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.Insert(rng.Int63n(1_000_000), int32(i))
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	keys := make([]int64, 1_000_000)
	rids := make([]int32, len(keys))
	rng := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = rng.Int63n(500_000)
		rids[i] = int32(i)
	}
	bt := storage.BulkLoad(keys, rids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Search(keys[i%len(keys)])
	}
}

func BenchmarkDatagenTPCH(b *testing.B) {
	s := catalog.TPCH(0.001)
	for i := 0; i < b.N; i++ {
		datagen.Generate(s, int64(i))
	}
}

func BenchmarkEngineExecute(b *testing.B) {
	db := engine.Open(catalog.TPCH(0.002), 42)
	q, err := sql.ParseResolved("SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17", db.Schema)
	if err != nil {
		b.Fatal(err)
	}
	idx := []cost.Index{cost.NewIndex("lineitem.l_partkey")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNForwardBackward times one ForwardTape + Backward pass, with an
// Adam step every 32 passes, on the traffic the advisors send:
//   - dqn-state: DQN's Q-network over Env.Featurize plus Episode.ConfigVector
//     (305 inputs, mostly zeros) with a one-hot TD gradient;
//   - swirl-actor: SWIRL's tanh actor over the same state plus its budget
//     entry, with a softmax policy gradient over the valid actions;
//   - dense-input: the DQN shape fed a fully dense random input.
func BenchmarkNNForwardBackward(b *testing.B) {
	s := catalog.TPCH(1)
	env := advisor.NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
	nw := workload.GenerateNormal(s, workload.TPCHTemplates(), 18, rand.New(rand.NewSource(5)))
	feats := env.Featurize(nw)
	mask := env.CandidateFilter(nw)
	ep := env.NewEpisode(nw, 4)
	for i, ok := range mask {
		if ok && len(ep.Chosen()) < 2 {
			ep.Step(i)
		}
	}
	dqnState := append(append([]float64(nil), feats...), ep.ConfigVector()...)
	hidden := advisor.DefaultConfig().Hidden
	L := env.L()

	b.Run("dqn-state", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		net := nn.NewMLP(rng, []int{len(dqnState), hidden, L}, nn.ReLU, nn.Identity)
		grad := make([]float64, L)
		grad[7] = 1
		benchForwardBackward(b, net, dqnState, grad)
	})
	b.Run("swirl-actor", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		state := append(append([]float64(nil), dqnState...), 0.5)
		net := nn.NewMLP(rng, []int{len(state), hidden, L}, nn.Tanh, nn.Identity)
		valid := make([]bool, L)
		action := -1
		for i, ok := range mask {
			valid[i] = ok && !ep.ChosenSet(i)
			if valid[i] && action < 0 {
				action = i
			}
		}
		probs := nn.Softmax(net.Forward(state), valid)
		grad := make([]float64, L)
		for i := range grad {
			if valid[i] {
				oh := 0.0
				if i == action {
					oh = 1
				}
				grad[i] = -(oh - probs[i])
			}
		}
		benchForwardBackward(b, net, state, grad)
	})
	b.Run("dense-input", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		net := nn.NewMLP(rng, []int{len(dqnState), hidden, L}, nn.ReLU, nn.Identity)
		x := make([]float64, len(dqnState))
		for i := range x {
			x[i] = rng.Float64()
		}
		grad := make([]float64, L)
		grad[7] = 1
		benchForwardBackward(b, net, x, grad)
	})
}

func benchForwardBackward(b *testing.B, net *nn.MLP, x, grad []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tape := net.ForwardTape(x)
		net.Backward(tape, grad)
		if i%32 == 31 {
			net.Step(1e-3)
		}
	}
}

func BenchmarkIABARTGenerate(b *testing.B) {
	s := tinySetup
	rng := rand.New(rand.NewSource(4))
	cols := []string{"lineitem.l_suppkey", "orders.o_orderdate"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Gen.Generate(cols, 0.5, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdvisorTraining(b *testing.B) {
	s := catalog.TPCH(1)
	w := cost.NewWhatIf(cost.NewModel(s))
	env := advisor.NewEnv(s, w)
	nw := workload.GenerateNormal(s, workload.TPCHTemplates(), 10, rand.New(rand.NewSource(5)))
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 20
	cfg.Hidden = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ia, err := registry.New("DQN-b", env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		ia.Train(nw)
	}
}

func BenchmarkProbing(b *testing.B) {
	st := tinySetup.Tester()
	env := tinySetup.Env
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = 20
	cfg.Hidden = 32
	ia, err := registry.New("DQN-b", env, cfg)
	if err != nil {
		b.Fatal(err)
	}
	nw := tinySetup.NormalWorkload(0)
	ia.Train(nw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Probe(context.Background(), ia)
	}
}

func BenchmarkInjecting(b *testing.B) {
	st := tinySetup.Tester()
	cols := tinySetup.Schema.IndexableColumnNames()
	k := map[string]float64{}
	for i, c := range cols {
		k[c] = 1 / float64(i+1)
	}
	pref := &pipa.Preference{Ranking: cols, K: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tw := st.Inject(context.Background(), pref); tw.Len() == 0 {
			b.Fatal("empty injection")
		}
	}
}

func BenchmarkQGenEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < b.N; i++ {
		qgen.EvaluateGenerator(qgen.ST{Schema: tinySetup.Schema}, tinySetup.Schema, tinySetup.WhatIf, nil, 20, rng)
	}
}

// BenchmarkDefenseAblation measures the sanitizer's effect: the same PIPA
// attack against an undefended advisor and one behind a guard.Trainer with
// the sanitizer as its screener (extension beyond the paper; see
// internal/defense and internal/guard).
func BenchmarkDefenseAblation(b *testing.B) {
	st := tinySetup.Tester()
	for i := 0; i < b.N; i++ {
		w := tinySetup.NormalWorkload(i)
		plain, err := tinySetup.TrainAdvisor("DQN-b", i, w)
		if err != nil {
			b.Fatal(err)
		}
		res := st.StressTest(context.Background(), plain, pipa.PIPAInjector{Tester: st}, w, tinySetup.PipaCfg.Na)
		inner, err := tinySetup.TrainAdvisor("DQN-b", i, w)
		if err != nil {
			b.Fatal(err)
		}
		guarded, err := guard.NewTrainer(inner, guard.Config{
			Screener: defense.NewSanitizer(tinySetup.WhatIf, w),
			Canary:   tinySetup.CanaryWorkload(i),
			Eval:     tinySetup.WhatIf,
		})
		if err != nil {
			b.Fatal(err)
		}
		resDef := st.StressTest(context.Background(), guarded, pipa.PIPAInjector{Tester: st}, w, tinySetup.PipaCfg.Na)
		_ = res
		_ = resDef
	}
}
