package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sql"
)

// costerTables lists the TPC-H tables the differential workload draws from,
// with their sargable columns and join partners.
var costerTables = []struct {
	name string
	cols []string
}{
	{"lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_shipdate", "l_discount"}},
	{"orders", []string{"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"}},
	{"customer", []string{"c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"}},
	{"part", []string{"p_partkey", "p_size", "p_brand", "p_retailprice"}},
	{"partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty"}},
	{"supplier", []string{"s_suppkey", "s_nationkey", "s_acctbal"}},
}

var costerJoins = []struct {
	t1, t2, c1, c2 string
}{
	{"orders", "lineitem", "o_orderkey", "l_orderkey"},
	{"customer", "orders", "c_custkey", "o_custkey"},
	{"part", "partsupp", "p_partkey", "ps_partkey"},
	{"supplier", "partsupp", "s_suppkey", "ps_suppkey"},
}

// randomCosterWorkload builds n resolved queries spanning single-table
// filters, joins, aggregates, ORDER BY and LIMIT — enough shape diversity to
// exercise every planner branch the delta filter must be sound for.
func randomCosterWorkload(t testing.TB, s *catalog.Schema, rng *rand.Rand, n int) ([]*sql.Query, []float64) {
	t.Helper()
	queries := make([]*sql.Query, 0, n)
	freqs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var src string
		if rng.Intn(4) == 0 {
			j := costerJoins[rng.Intn(len(costerJoins))]
			src = fmt.Sprintf("SELECT COUNT(*) FROM %s, %s WHERE %s = %s AND %s > %d",
				j.t1, j.t2, j.c1, j.c2, j.c1, rng.Intn(1000))
		} else {
			tb := costerTables[rng.Intn(len(costerTables))]
			c1 := tb.cols[rng.Intn(len(tb.cols))]
			src = fmt.Sprintf("SELECT %s FROM %s WHERE %s", c1, tb.name, c1)
			switch rng.Intn(3) {
			case 0:
				src += fmt.Sprintf(" = %d", rng.Intn(5000))
			case 1:
				src += fmt.Sprintf(" BETWEEN %d AND %d", rng.Intn(1000), 1000+rng.Intn(4000))
			default:
				src += fmt.Sprintf(" < %d", rng.Intn(5000))
			}
			if rng.Intn(3) == 0 {
				c2 := tb.cols[rng.Intn(len(tb.cols))]
				src += fmt.Sprintf(" ORDER BY %s", c2)
				if rng.Intn(2) == 0 {
					src += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(100))
				}
			}
		}
		q, err := sql.ParseResolved(src, s)
		if err != nil {
			t.Fatalf("ParseResolved(%q): %v", src, err)
		}
		queries = append(queries, q)
		freqs = append(freqs, 1+rng.Float64()*9)
	}
	return queries, freqs
}

// costerCandidates enumerates the single- and two-column index candidates
// the random walk mutates over.
func costerCandidates() []Index {
	var out []Index
	for _, tb := range costerTables {
		for _, c := range tb.cols {
			out = append(out, NewIndex(tb.name+"."+c))
		}
		out = append(out, NewIndex(tb.name+"."+tb.cols[0], tb.name+"."+tb.cols[1]))
	}
	return out
}

// mutateSet applies one random add/drop/swap to the index set.
func mutateSet(cur []Index, cands []Index, rng *rand.Rand) []Index {
	switch {
	case len(cur) == 0 || rng.Intn(3) == 0: // add
		return append(cur, cands[rng.Intn(len(cands))])
	case rng.Intn(2) == 0: // drop
		i := rng.Intn(len(cur))
		return append(cur[:i], cur[i+1:]...)
	default: // swap
		cur[rng.Intn(len(cur))] = cands[rng.Intn(len(cands))]
		return cur
	}
}

// TestCosterDifferentialSerial random-walks an index set through adds, drops
// and swaps, asserting after every step that the delta session's answer is
// bit-identical (math.Float64bits) to a full sweep on an independent oracle
// with its own cold cache.
func TestCosterDifferentialSerial(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(7))
	queries, freqs := randomCosterWorkload(t, s, rng, 60)
	cands := costerCandidates()

	wDelta := NewWhatIf(NewModel(s))
	wFull := NewWhatIf(NewModel(s))
	coster := wDelta.NewWorkloadCoster(queries, freqs)

	var cur []Index
	for step := 0; step < 150; step++ {
		cur = mutateSet(cur, cands, rng)
		got := coster.Cost(cur)
		want := wFull.WorkloadCost(queries, freqs, cur)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d (|I|=%d): delta %v != full %v", step, len(cur), got, want)
		}
	}
	st := coster.Stats()
	if st.Reused == 0 {
		t.Error("delta filter never reused a cost — the walk should have produced disjoint deltas")
	}
	if st.Recosted == 0 {
		t.Error("delta filter never re-costed — suspicious")
	}
}

// TestCosterDifferentialConcurrent hammers one shared session from 16
// goroutines. Whatever order the mutex serializes the sweeps in, every
// returned total must be bit-identical to the full-sweep answer for the set
// that was asked about.
func TestCosterDifferentialConcurrent(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(11))
	queries, freqs := randomCosterWorkload(t, s, rng, 40)
	cands := costerCandidates()

	// Fixed universe of index sets with precomputed full-sweep answers.
	sets := make([][]Index, 32)
	want := make([]uint64, len(sets))
	wFull := NewWhatIf(NewModel(s))
	var cur []Index
	for i := range sets {
		cur = mutateSet(cur, cands, rng)
		sets[i] = append([]Index(nil), cur...)
		want[i] = math.Float64bits(wFull.WorkloadCost(queries, freqs, sets[i]))
	}

	coster := NewWhatIf(NewModel(s)).NewWorkloadCoster(queries, freqs)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for n := 0; n < 60; n++ {
				i := r.Intn(len(sets))
				got := coster.Cost(sets[i])
				if math.Float64bits(got) != want[i] {
					select {
					case errs <- fmt.Sprintf("set %d: got %x want %x", i, math.Float64bits(got), want[i]):
					default:
					}
					return
				}
			}
		}(int64(g) + 100)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestCosterFaultBypass verifies the delta filter disables itself under an
// active fault injector: perturbed costs are keyed by the full (query, set)
// cache key, so reuse across sets would diverge. Two identically-seeded
// faulty oracles must agree — one driven through the coster, one through
// plain full sweeps.
func TestCosterFaultBypass(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(23))
	queries, freqs := randomCosterWorkload(t, s, rng, 30)
	cands := costerCandidates()

	faulty := func() *WhatIf {
		w := NewWhatIf(NewModel(s))
		w.EnableFaults(fault.New(fault.Config{
			Rate: 0.5,
			Seed: 99,
			Only: map[fault.Kind]bool{fault.NoisyCost: true},
		}, fault.NewVirtualClock()))
		return w
	}
	wDelta, wFull := faulty(), faulty()
	coster := wDelta.NewWorkloadCoster(queries, freqs)

	var cur []Index
	for step := 0; step < 40; step++ {
		cur = mutateSet(cur, cands, rng)
		got := coster.Cost(cur)
		want := wFull.WorkloadCost(queries, freqs, cur)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: faulty delta %v != faulty full %v", step, got, want)
		}
	}
	if st := coster.Stats(); st.Reused != 0 {
		t.Errorf("coster reused %d costs under faults; want 0 (bypass)", st.Reused)
	}
}

// TestCosterReductionMatchesWhatIf pins Reduction equivalence, which the
// PIPA probe and the serving tiers rely on.
func TestCosterReductionMatchesWhatIf(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(31))
	queries, freqs := randomCosterWorkload(t, s, rng, 25)
	cands := costerCandidates()

	wDelta := NewWhatIf(NewModel(s))
	wFull := NewWhatIf(NewModel(s))
	coster := wDelta.NewWorkloadCoster(queries, freqs)

	var cur []Index
	for step := 0; step < 30; step++ {
		cur = mutateSet(cur, cands, rng)
		got := coster.Reduction(cur)
		want := wFull.Reduction(queries, freqs, cur)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: Reduction %v != %v", step, got, want)
		}
	}
}

// TestInternedIndexesKeyMatchesIndexSet pins the interned key rendering to
// the canonical IndexSet.Key format the cache has always used.
func TestInternedIndexesKeyMatchesIndexSet(t *testing.T) {
	cands := costerCandidates()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(5)
		set := make([]Index, 0, n)
		is := NewIndexSet()
		for i := 0; i < n; i++ {
			// IndexSet dedups; keep the slice duplicate-free so the two key
			// derivations see the same members.
			if ix := cands[rng.Intn(len(cands))]; is.Add(ix) {
				set = append(set, ix)
			}
		}
		want := is.Key()
		if n == 0 {
			want = ""
		}
		if got := internedIndexesKey(set); got != want {
			t.Fatalf("internedIndexesKey(%v) = %q, want %q", set, got, want)
		}
	}
}

// TestCosterForkDifferential runs the same random walks twice, each time on
// a cold oracle of its own: once from fresh sessions that sweep ∅ first,
// as an episode does, and once from forks of one session anchored at ∅.
// Every total and per-query cost must carry the same bits. The fork side
// must end with the same entries and plans and exactly (walks−1)·|W| fewer
// calls: the ∅ sweeps its forks skip.
func TestCosterForkDifferential(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(41))
	queries, freqs := randomCosterWorkload(t, s, rng, 40)
	cands := costerCandidates()
	const walks, steps = 6, 15
	sets := make([][][]Index, walks)
	for i := range sets {
		var cur []Index
		for range steps {
			cur = mutateSet(cur, cands, rng)
			sets[i] = append(sets[i], slices.Clone(cur))
		}
	}

	plans := obs.GetCounter("cost_plans_total")
	run := func(fork bool) (bits []uint64, st CacheStats, planned int64) {
		w := NewWhatIf(NewModel(s))
		p0 := plans.Value()
		per := make([]float64, len(queries))
		var base *WorkloadCoster
		if fork {
			base = w.NewWorkloadCoster(queries, freqs)
			base.CostPer(nil, per)
		}
		for _, walk := range sets {
			var c *WorkloadCoster
			if fork {
				c = base.Fork()
			} else {
				c = w.NewWorkloadCoster(queries, freqs)
				c.CostPer(nil, per)
			}
			for _, set := range walk {
				bits = append(bits, math.Float64bits(c.CostPer(set, per)))
				for _, v := range per {
					bits = append(bits, math.Float64bits(v))
				}
			}
		}
		return bits, w.CacheStats(), plans.Value() - p0
	}
	freshBits, freshSt, freshPlans := run(false)
	forkBits, forkSt, forkPlans := run(true)

	if !slices.Equal(forkBits, freshBits) {
		t.Fatal("a forked session's costs differ from a fresh session's")
	}
	if forkSt.Entries != freshSt.Entries || forkPlans != freshPlans {
		t.Errorf("fork side: %d entries, %d plans; fresh side: %d entries, %d plans",
			forkSt.Entries, forkPlans, freshSt.Entries, freshPlans)
	}
	if got, want := freshSt.Calls-forkSt.Calls, int64((walks-1)*len(queries)); got != want {
		t.Errorf("forks saved %d calls, want (walks−1)·|W| = %d", got, want)
	}
	if got, want := freshSt.Hits-forkSt.Hits, int64((walks-1)*len(queries)); got != want {
		t.Errorf("forks saved %d hits, want %d", got, want)
	}
}
