package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/sql"
)

// TestMemoMatchesWhatIf costs random (query, index set) pairs through a memo
// and through an independent oracle: every value must be bit-identical, and
// the memo's lookups, repeated ones included, must leave its oracle's cache
// and counters untouched.
func TestMemoMatchesWhatIf(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(11))
	queries, _ := randomCosterWorkload(t, s, rng, 40)
	cands := costerCandidates()

	w := NewWhatIf(NewModel(s))
	w.QueryCost(queries[0], nil) // one shared entry the memo must not disturb
	before := w.CacheStats()
	ref := NewWhatIf(NewModel(s))
	memo := w.NewMemo()
	var cur []Index
	for step := 0; step < 300; step++ {
		cur = mutateSet(cur, cands, rng)
		q := queries[rng.Intn(len(queries))]
		got, want := memo.QueryCost(q, cur), ref.QueryCost(q, cur)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: memo cost %v != what-if cost %v", step, got, want)
		}
	}
	if after := w.CacheStats(); after != before {
		t.Errorf("memo lookups changed the shared cache: %+v → %+v", before, after)
	}
}

// TestMemoPublish checks that Publish inserts exactly the published query's
// keys, counts one shared call per key (a hit when the key is already
// cached, a miss and an insert otherwise), and that the inserted values are
// the memo's.
func TestMemoPublish(t *testing.T) {
	s := catalog.TPCH(1)
	a := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42 AND l_suppkey < 100")
	b := whatifQuery(t, s, "SELECT COUNT(*) FROM orders WHERE o_custkey = 7")
	sets := [][]Index{nil, {NewIndex("lineitem.l_partkey")}, {NewIndex("lineitem.l_suppkey")}}

	w := NewWhatIf(NewModel(s))
	w.QueryCost(a, sets[1]) // already shared: its publish is a hit
	memo := w.NewMemo()
	for _, idx := range sets {
		memo.QueryCost(a, idx)
		memo.QueryCost(a, idx) // a repeat is one key, not two
	}
	memo.QueryCost(b, nil) // a rejected candidate
	before := w.CacheStats()

	memo.Publish(a)
	after := w.CacheStats()
	if d := after.Calls - before.Calls; d != 3 {
		t.Errorf("publish counted %d calls, want 3 (one per key)", d)
	}
	if d := after.Hits - before.Hits; d != 1 {
		t.Errorf("publish counted %d hits, want 1 (the key already cached)", d)
	}
	if d := after.Entries - before.Entries; d != 2 {
		t.Errorf("publish inserted %d entries, want 2", d)
	}

	// Reading the published keys back through the shared path hits every
	// time and returns the memo's values; the rejected candidate never
	// reached the shared cache.
	ref := NewWhatIf(NewModel(s))
	before = w.CacheStats()
	for _, idx := range sets {
		if got, want := w.QueryCost(a, idx), ref.QueryCost(a, idx); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("published cost under %v = %v, want %v", idx, got, want)
		}
	}
	if st := w.CacheStats(); st.Hits-before.Hits != 3 || st.Entries != before.Entries {
		t.Errorf("reading published keys: %+v → %+v, want 3 hits and no insert", before, st)
	}
	w.QueryCost(b, nil)
	if st := w.CacheStats(); st.Entries != before.Entries+1 {
		t.Errorf("rejected candidate's key was published: entries %d → %d", before.Entries, st.Entries)
	}

	// Publishing again finds nothing left to move.
	before = w.CacheStats()
	memo.Publish(a)
	if st := w.CacheStats(); st != before {
		t.Errorf("second publish changed the cache: %+v → %+v", before, st)
	}
}

// TestMemoFaultBypass: on a chaos-wrapped oracle the memo is a pass-through,
// so two identically seeded oracles, one read through a memo and one
// directly, agree on every value and on their fault telemetry.
func TestMemoFaultBypass(t *testing.T) {
	s := catalog.TPCH(1)
	faulty := func() *WhatIf {
		w := NewWhatIf(NewModel(s))
		w.EnableFaults(fault.New(fault.Config{Rate: 0.5, Seed: 5}, fault.NewVirtualClock()))
		return w
	}
	viaMemo, direct := faulty(), faulty()
	memo := viaMemo.NewMemo()
	idx := []Index{NewIndex("lineitem.l_partkey")}
	for _, q := range faultQueries(t, s, 60) {
		for _, set := range [][]Index{nil, idx} {
			got, want := memo.QueryCost(q, set), direct.QueryCost(q, set)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("memo cost %v != direct faulty cost %v", got, want)
			}
		}
		memo.Publish(q)
	}
	if a, b := viaMemo.FaultStats(), direct.FaultStats(); a != b {
		t.Errorf("fault stats through the memo %+v != direct %+v", a, b)
	}
	if a, b := viaMemo.CacheStats(), direct.CacheStats(); a != b {
		t.Errorf("cache stats through the memo %+v != direct %+v", a, b)
	}
}

// TestMemoCostHookBypass: a test cost hook on the oracle also sends the
// memo down the shared path.
func TestMemoCostHookBypass(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	calls := 0
	w.costFn = func(*sql.Query, []Index) float64 { calls++; return 1 }
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42")
	memo := w.NewMemo()
	if c := memo.QueryCost(q, nil); c != 1 || calls != 1 {
		t.Errorf("memo over a hooked oracle: cost %v after %d hook calls, want 1 after 1", c, calls)
	}
	if st := w.CacheStats(); st.Calls != 1 || st.Entries != 1 {
		t.Errorf("hooked memo call bypassed the shared cache: %+v", st)
	}
}

// TestMemoPublishOrderIndependent: one cell reads a key through the shared
// path while another publishes the same key from its memo. Whichever comes
// first, the shared counters end the same, which is what keeps the goldens'
// trailers independent of -workers.
func TestMemoPublishOrderIndependent(t *testing.T) {
	s := catalog.TPCH(1)
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42")
	idx := []Index{NewIndex("lineitem.l_partkey")}
	run := func(publishFirst bool) CacheStats {
		w := NewWhatIf(NewModel(s))
		memo := w.NewMemo()
		memo.QueryCost(q, idx)
		if publishFirst {
			memo.Publish(q)
			w.QueryCost(q, idx)
		} else {
			w.QueryCost(q, idx)
			memo.Publish(q)
		}
		return w.CacheStats()
	}
	a, b := run(true), run(false)
	if a != b {
		t.Errorf("publish first: %+v; shared read first: %+v", a, b)
	}
	if want := (CacheStats{Calls: 2, Hits: 1, Misses: 1, Entries: 1}); a != want {
		t.Errorf("stats = %+v, want %+v", a, want)
	}
}

// TestMemoPublishDuringFlight: a key another caller is still planning counts
// as a hit, and that caller's insert is the only one, so misses keep equal
// to entries.
func TestMemoPublishDuringFlight(t *testing.T) {
	s := catalog.TPCH(1)
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42")
	idx := []Index{NewIndex("lineitem.l_partkey")}
	w := NewWhatIf(NewModel(s))
	memo := w.NewMemo()
	memo.QueryCost(q, idx)

	started, release := make(chan struct{}), make(chan struct{})
	w.costFn = func(q *sql.Query, idx []Index) float64 {
		close(started)
		<-release
		return w.Model.QueryCost(q, idx)
	}
	done := make(chan struct{})
	go func() {
		w.QueryCost(q, idx)
		close(done)
	}()
	<-started
	memo.Publish(q)
	close(release)
	<-done
	if st, want := w.CacheStats(), (CacheStats{Calls: 2, Hits: 1, Misses: 1, Entries: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}
