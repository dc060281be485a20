package advisor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/workload"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	s := catalog.TPCH(1)
	return NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
}

func testWorkload(t *testing.T, env *Env) *workload.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return workload.GenerateNormal(env.Schema, workload.TPCHTemplates(), 12, rng)
}

func TestEnvActionSpace(t *testing.T) {
	env := testEnv(t)
	if env.L() != 61 {
		t.Fatalf("L = %d, want 61", env.L())
	}
	for i, c := range env.Columns {
		if env.ColIdx[c] != i {
			t.Fatalf("ColIdx inconsistent at %d", i)
		}
	}
}

func TestFeaturize(t *testing.T) {
	env := testEnv(t)
	w := testWorkload(t, env)
	f := env.Featurize(w)
	if len(f) != env.L()*FeatureDim {
		t.Fatalf("feature len = %d", len(f))
	}
	nonzero := 0
	for _, v := range f {
		if v != 0 {
			nonzero++
		}
		if v < 0 {
			t.Fatalf("negative feature %f", v)
		}
	}
	if nonzero < 10 {
		t.Errorf("only %d nonzero features", nonzero)
	}
	// l_shipdate appears in predicates: its appearance feature is positive.
	ci := env.ColIdx["lineitem.l_shipdate"]
	if f[ci*FeatureDim] <= 0 {
		t.Error("l_shipdate appearance feature is zero")
	}
}

func TestPresenceVectorBinary(t *testing.T) {
	env := testEnv(t)
	w := testWorkload(t, env)
	p := env.PresenceVector(w)
	ones := 0
	for _, v := range p {
		if v != 0 && v != 1 {
			t.Fatalf("presence value %f", v)
		}
		if v == 1 {
			ones++
		}
	}
	if ones == 0 || ones == len(p) {
		t.Errorf("presence vector degenerate: %d ones of %d", ones, len(p))
	}
}

func TestCandidateFilterPrunesLowNDV(t *testing.T) {
	env := testEnv(t)
	w := testWorkload(t, env)
	sarg := env.SargableMask(w)
	cand := env.CandidateFilter(w)
	// Filter is a subset of the sargable mask.
	for i := range cand {
		if cand[i] && !sarg[i] {
			t.Fatal("candidate not sargable")
		}
	}
	// l_returnflag (NDV 3) is sargable in the workload but filtered.
	ci := env.ColIdx["lineitem.l_returnflag"]
	if sarg[ci] && cand[ci] {
		t.Error("low-NDV l_returnflag not pruned by candidate filter")
	}
}

func TestEpisode(t *testing.T) {
	env := testEnv(t)
	w := testWorkload(t, env)
	ep := env.NewEpisode(w, 2)
	if ep.Done() {
		t.Fatal("fresh episode done")
	}
	ci := env.ColIdx["lineitem.l_shipdate"]
	r1 := ep.Step(ci)
	if r1 <= 0 {
		t.Errorf("reward for useful index = %f, want > 0", r1)
	}
	if got := ep.Step(ci); got != 0 {
		t.Errorf("re-choosing column rewarded %f", got)
	}
	cj := env.ColIdx["lineitem.l_partkey"]
	ep.Step(cj)
	if !ep.Done() {
		t.Error("episode should be done at budget 2")
	}
	if got := len(ep.Indexes()); got != 2 {
		t.Errorf("indexes = %d, want 2", got)
	}
	if tr := ep.TotalReduction(); tr <= 0 || tr >= 1 {
		t.Errorf("TotalReduction = %f", tr)
	}
}

func TestEpisodeUselessIndexZeroReward(t *testing.T) {
	env := testEnv(t)
	w := testWorkload(t, env)
	ep := env.NewEpisode(w, 1)
	// region.r_comment is never predicated in TPC-H templates.
	r := ep.Step(env.ColIdx["region.r_comment"])
	if r != 0 {
		t.Errorf("useless index rewarded %f", r)
	}
}

func TestRandRemaining(t *testing.T) {
	env := testEnv(t)
	w := testWorkload(t, env)
	ep := env.NewEpisode(w, env.L())
	rng := rand.New(rand.NewSource(1))
	mask := make([]bool, env.L())
	mask[3] = true
	if got := ep.RandRemaining(mask, rng); got != 3 {
		t.Errorf("RandRemaining = %d, want 3", got)
	}
	ep.Step(3)
	if got := ep.RandRemaining(mask, rng); got != -1 {
		t.Errorf("RandRemaining after exhaustion = %d, want -1", got)
	}
}

func TestParamAverager(t *testing.T) {
	a := NewParamAverager(2)
	if a.Average() != nil {
		t.Error("empty averager should return nil")
	}
	a.Push([]float64{1, 2})
	a.Push([]float64{3, 4})
	a.Push([]float64{5, 6}) // evicts {1,2}
	avg := a.Average()
	if avg[0] != 4 || avg[1] != 5 {
		t.Errorf("Average = %v, want [4 5]", avg)
	}
}

func TestSelectTrial(t *testing.T) {
	ixA := []cost.Index{cost.NewIndex("lineitem.l_partkey")}
	ixB := []cost.Index{cost.NewIndex("orders.o_custkey")}
	ixC := []cost.Index{cost.NewIndex("lineitem.l_suppkey")}
	trials := []Trial{{0.1, ixA}, {0.9, ixB}, {0.5, ixC}}
	if got := SelectTrial(trials, Best, 3); got[0].Key() != ixB[0].Key() {
		t.Errorf("Best selected %v", got)
	}
	// Mean over last 3: mean reward 0.5 → closest is the 0.5 trial.
	if got := SelectTrial(trials, Mean, 3); got[0].Key() != ixC[0].Key() {
		t.Errorf("Mean selected %v", got)
	}
	if got := SelectTrial(nil, Best, 3); got != nil {
		t.Errorf("empty trials = %v", got)
	}
}

func TestVariantString(t *testing.T) {
	if Best.String() != "b" || Mean.String() != "m" {
		t.Error("variant suffixes wrong")
	}
}

// signatureFmt is Signature as it was first written: FNV-1a over each
// query's rendering and fmt's "|%.6f;" of its frequency.
func signatureFmt(w *workload.Workload) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for i, q := range w.Queries {
		mix(q.String())
		mix(fmt.Sprintf("|%.6f;", w.Freqs[i]))
	}
	return h
}

// TestSignatureMatchesFormatted pins Signature's value to the fmt-based
// original over resolved and unresolved queries and the frequencies whose
// formatting differs most: the -b advisors compare it with a signature
// stored at training.
func TestSignatureMatchesFormatted(t *testing.T) {
	env := testEnv(t)
	resolved := testWorkload(t, env).Queries
	unresolved := make([]*sql.Query, 0, len(resolved))
	for _, q := range resolved {
		unresolved = append(unresolved, q.Clone())
	}
	freqs := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1, 2.5, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, qs := range [][]*sql.Query{resolved, unresolved} {
		for _, f := range freqs {
			w := &workload.Workload{Queries: qs, Freqs: make([]float64, len(qs))}
			for i := range w.Freqs {
				w.Freqs[i] = f * float64(i%3)
			}
			if got, want := Signature(w), signatureFmt(w); got != want {
				t.Errorf("freq %v: Signature = %x, want %x", f, got, want)
			}
		}
	}
	if got, want := Signature(&workload.Workload{}), signatureFmt(&workload.Workload{}); got != want {
		t.Errorf("empty workload: Signature = %x, want %x", got, want)
	}
}

// TestRestartMatchesNewEpisode rolls the same random step sequences once
// from NewEpisode and once from Restarts of one Start, each side on a cold
// oracle of its own. Every step reward, per-query cost, TotalReduction and
// InverseCostReduction must carry the same bits and every Indexes must be
// equal. The Restart side must end with the same entries and plans, exactly
// (trials−1)·|W| fewer calls, and count as many episodes.
func TestRestartMatchesNewEpisode(t *testing.T) {
	s := catalog.TPCH(1)
	episodes := obs.GetCounter("advisor_episodes_total")
	plans := obs.GetCounter("cost_plans_total")
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := workload.GenerateNormal(s, workload.TPCHTemplates(), 8+int(seed)*4, rng)
		const trials, budget = 6, 4
		probe := NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
		mask := probe.SargableMask(w)
		var cols [][]int
		for range trials {
			var seq []int
			for range budget + 2 { // past the budget, and repeats, step nothing
				c := rng.Intn(probe.L())
				for rng.Intn(4) > 0 && !mask[c] {
					c = rng.Intn(probe.L())
				}
				seq = append(seq, c)
			}
			cols = append(cols, seq)
		}

		type side struct {
			bits     []uint64
			indexes  [][]cost.Index
			st       cost.CacheStats
			plans    int64
			episodes int64
		}
		run := func(restart bool) (r side) {
			env := NewEnv(s, cost.NewWhatIf(cost.NewModel(s)))
			p0, e0 := plans.Value(), episodes.Value()
			var start *Episode
			if restart {
				start = env.Start(w, budget)
			}
			for _, seq := range cols {
				var ep *Episode
				if restart {
					ep = start.Restart()
				} else {
					ep = env.NewEpisode(w, budget)
				}
				for _, c := range seq {
					r.bits = append(r.bits, math.Float64bits(ep.Step(c)),
						math.Float64bits(ep.TotalReduction()), math.Float64bits(ep.InverseCostReduction()))
					for _, v := range ep.perCur {
						r.bits = append(r.bits, math.Float64bits(v))
					}
				}
				r.indexes = append(r.indexes, ep.Indexes())
			}
			r.st, r.plans, r.episodes = env.WhatIf.CacheStats(), plans.Value()-p0, episodes.Value()-e0
			return r
		}
		fresh, restarted := run(false), run(true)

		if !slices.Equal(restarted.bits, fresh.bits) {
			t.Fatalf("seed %d: restarted episodes differ from new ones", seed)
		}
		if !reflect.DeepEqual(restarted.indexes, fresh.indexes) {
			t.Fatalf("seed %d: indexes %v, want %v", seed, restarted.indexes, fresh.indexes)
		}
		if restarted.st.Entries != fresh.st.Entries || restarted.plans != fresh.plans {
			t.Errorf("seed %d: restart side %d entries, %d plans; new side %d entries, %d plans",
				seed, restarted.st.Entries, restarted.plans, fresh.st.Entries, fresh.plans)
		}
		if got, want := fresh.st.Calls-restarted.st.Calls, int64((trials-1)*w.Len()); got != want {
			t.Errorf("seed %d: restarts saved %d calls, want (trials−1)·|W| = %d", seed, got, want)
		}
		if restarted.episodes != trials || fresh.episodes != trials {
			t.Errorf("seed %d: %d restarted and %d new episodes counted, want %d each",
				seed, restarted.episodes, fresh.episodes, trials)
		}
	}
}
