package cost

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/sql"
)

func whatifQuery(t testing.TB, s *catalog.Schema, src string) *sql.Query {
	t.Helper()
	q, err := sql.ParseResolved(src, s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestWhatIfCacheStats(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17")
	idx := []Index{NewIndex("lineitem.l_partkey")}

	before := obs.GetCounter("cost_whatif_calls_total").Value()
	w.QueryCost(q, idx)
	w.QueryCost(q, idx)
	w.QueryCost(q, nil)

	st := w.CacheStats()
	if st.Calls != 3 || st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 1.0/3 {
		t.Fatalf("hit rate = %v", got)
	}
	calls, hits := w.Stats()
	if calls != 3 || hits != 1 {
		t.Fatalf("Stats() = %d, %d", calls, hits)
	}
	if d := obs.GetCounter("cost_whatif_calls_total").Value() - before; d != 3 {
		t.Fatalf("obs calls delta = %d, want 3", d)
	}
}

// TestWhatIfKeyIsQueryText checks that the cache keys on the query's text,
// not its identity: a second, separately parsed Query with the same text
// hits the first one's entry, for the empty and a non-empty index set.
func TestWhatIfKeyIsQueryText(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	const src = "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17"
	a, b := whatifQuery(t, s, src), whatifQuery(t, s, src)
	if a == b {
		t.Fatal("want two distinct Query objects")
	}
	for _, idx := range [][]Index{nil, {NewIndex("lineitem.l_partkey")}} {
		want := w.QueryCost(a, idx)
		before := w.CacheStats()
		if got := w.QueryCost(b, idx); got != want {
			t.Fatalf("indexes %v: cost %v, want %v", idx, got, want)
		}
		after := w.CacheStats()
		if after.Hits != before.Hits+1 || after.Entries != before.Entries {
			t.Fatalf("indexes %v: second parse gave hits %d→%d, entries %d→%d; want one hit and no new entry",
				idx, before.Hits, after.Hits, before.Entries, after.Entries)
		}
	}
}

// TestShardOfHashesCompositeKey pins shardOf to FNV-1a over the composite
// "<fp>|<set>" string, so keying the maps by struct moved no entry to
// another shard.
func TestShardOfHashesCompositeKey(t *testing.T) {
	for _, k := range []cacheKey{
		{"SELECT * FROM t", ""},
		{"SELECT * FROM t", "t(a)"},
		{"q", "lineitem(l_partkey);orders(o_custkey)"},
		{"", ""},
	} {
		h := fnv.New32a()
		h.Write([]byte(k.String()))
		if got, want := shardOf(k), h.Sum32()&(numShards-1); got != want {
			t.Errorf("shardOf(%q) = %d, want %d", k.String(), got, want)
		}
	}
}

// TestWhatIfConcurrentMatchesSerialOracle drives 16 goroutines over a mixed
// key population (several queries × several index sets) and checks every
// returned cost against a serial, uncached oracle: sharding and singleflight
// must never change a value.
func TestWhatIfConcurrentMatchesSerialOracle(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	queries := []*sql.Query{
		whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17"),
		whatifQuery(t, s, "SELECT COUNT(*) FROM orders WHERE o_custkey < 500"),
		whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem, orders WHERE o_orderkey = l_orderkey AND l_quantity > 30"),
		whatifQuery(t, s, "SELECT COUNT(*) FROM part WHERE p_size = 4"),
	}
	idxSets := [][]Index{
		nil,
		{NewIndex("lineitem.l_partkey")},
		{NewIndex("orders.o_custkey")},
		{NewIndex("lineitem.l_orderkey"), NewIndex("orders.o_orderkey")},
	}
	oracle := make([]float64, len(queries)*len(idxSets))
	for qi, q := range queries {
		for ii, idx := range idxSets {
			oracle[qi*len(idxSets)+ii] = w.Model.QueryCost(q, idx)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g*7 + i) % len(oracle)
				q, idx := queries[k/len(idxSets)], idxSets[k%len(idxSets)]
				if got := w.QueryCost(q, idx); got != oracle[k] {
					t.Errorf("concurrent cost for key %d = %v, want %v", k, got, oracle[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.CacheStats()
	if want := int64(16 * 300); st.Calls != want {
		t.Fatalf("calls = %d, want %d", st.Calls, want)
	}
	if st.Entries != len(oracle) {
		t.Fatalf("entries = %d, want %d distinct keys", st.Entries, len(oracle))
	}
}

// TestWhatIfSingleflight checks miss deduplication: when many goroutines miss
// on the same cold key at once, the underlying model computes it once and
// everyone shares the result.
func TestWhatIfSingleflight(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17")

	const goroutines = 12
	var computations atomic.Int64
	gate := make(chan struct{})
	w.costFn = func(q *sql.Query, idx []Index) float64 {
		computations.Add(1)
		<-gate // hold the first computation until every goroutine has arrived
		return 42.5
	}

	var started, wg sync.WaitGroup
	started.Add(goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			started.Done()
			if got := w.QueryCost(q, nil); got != 42.5 {
				t.Errorf("cost = %v, want 42.5", got)
			}
		}()
	}
	started.Wait() // all goroutines running; at most one is inside costFn
	close(gate)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("model computed %d times, want 1 (singleflight)", n)
	}
	// Every other caller — whether it shared the in-flight computation or
	// arrived after the insert — counts as a hit; exactly one miss total.
	st := w.CacheStats()
	if st.Calls != goroutines || st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want %d calls and exactly 1 miss", st, goroutines)
	}
}

func TestPlanDecisionCounters(t *testing.T) {
	s := catalog.TPCH(1)
	m := NewModel(s)
	seq := obs.GetCounter(obs.Name("cost_plan_access_total", "kind", "SeqScan"))
	indexed := func() int64 {
		return obs.GetCounter(obs.Name("cost_plan_access_total", "kind", "IndexScan")).Value() +
			obs.GetCounter(obs.Name("cost_plan_access_total", "kind", "IndexOnlyScan")).Value() +
			obs.GetCounter(obs.Name("cost_plan_access_total", "kind", "IndexFullScan")).Value()
	}
	seq0, idx0 := seq.Value(), indexed()

	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17")
	m.QueryCost(q, nil)
	if seq.Value() == seq0 {
		t.Fatalf("no-index plan did not count a SeqScan")
	}
	m.QueryCost(q, []Index{NewIndex("lineitem.l_partkey")})
	if indexed() == idx0 {
		t.Fatalf("indexed plan did not count an index access path")
	}
}

// TestShardAfterCachedHash checks that continuing a query's cached
// fingerprint hash over the set key picks the shard shardOf picks for the
// composite key, so the cached hash moved no entry to another shard.
func TestShardAfterCachedHash(t *testing.T) {
	s := catalog.TPCH(1)
	q := whatifQuery(t, s, "SELECT l_partkey FROM lineitem WHERE l_quantity > 30 ORDER BY l_partkey")
	for _, idx := range [][]Index{nil, {NewIndex("lineitem.l_partkey")},
		{NewIndex("lineitem.l_partkey"), NewIndex("lineitem.l_quantity", "lineitem.l_partkey")}} {
		set := internedIndexesKey(idx)
		key := cacheKey{q.Fingerprint(), set}
		if got, want := shardAfter(q.FingerprintHash(), set), shardOf(key); got != want {
			t.Errorf("shardAfter(%q) = %d, shardOf = %d", key.String(), got, want)
		}
	}
}
