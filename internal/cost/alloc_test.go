//go:build !race

// Allocation regression guards for the what-if hot paths. testing.AllocsPerRun
// under the race detector reports instrumentation allocations, so this file is
// excluded from -race runs (the CI test job); the bench job runs it unraced.
package cost

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
)

// TestCacheHitPathAllocFree pins the warmed QueryCost cache-hit path at zero
// allocations: pooled key buffers plus non-allocating map probes mean a hit
// costs no garbage at all (down from 3 allocs/op before interning).
func TestCacheHitPathAllocFree(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42")
	idx := []Index{NewIndex("lineitem.l_partkey")}
	w.QueryCost(q, idx) // warm cache + intern tables

	if got := testing.AllocsPerRun(200, func() {
		w.QueryCost(q, idx)
	}); got != 0 {
		t.Errorf("cache-hit QueryCost allocates %.1f/op, want 0", got)
	}
}

// TestMemoHitPathAllocFree pins a verification memo's repeat lookup at zero
// allocations: the same fingerprint and interned set key as the shared hit.
func TestMemoHitPathAllocFree(t *testing.T) {
	s := catalog.TPCH(1)
	memo := NewWhatIf(NewModel(s)).NewMemo()
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 42")
	idx := []Index{NewIndex("lineitem.l_partkey")}
	memo.QueryCost(q, idx) // warm the memo + intern tables

	if got := testing.AllocsPerRun(200, func() {
		memo.QueryCost(q, idx)
	}); got != 0 {
		t.Errorf("memo-hit QueryCost allocates %.1f/op, want 0", got)
	}
}

// TestCosterAnchorHitAllocFree pins the coster's anchor-equal fast path
// (re-costing the set it just costed) at zero allocations.
func TestCosterAnchorHitAllocFree(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(5))
	queries, freqs := randomCosterWorkload(t, s, rng, 20)
	coster := NewWhatIf(NewModel(s)).NewWorkloadCoster(queries, freqs)
	idx := []Index{NewIndex("lineitem.l_partkey"), NewIndex("orders.o_custkey")}
	coster.Cost(idx)

	if got := testing.AllocsPerRun(100, func() {
		coster.Cost(idx)
	}); got != 0 {
		t.Errorf("anchor-hit Cost allocates %.1f/op, want 0", got)
	}
}

// TestCosterWarmDeltaAllocBound bounds the warm single-index delta sweep: all
// per-query costs hit the what-if cache and the changed-column scratch is
// reused, so a small constant bound (map growth jitter aside) holds
// regardless of workload size.
func TestCosterWarmDeltaAllocBound(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(6))
	queries, freqs := randomCosterWorkload(t, s, rng, 50)
	coster := NewWhatIf(NewModel(s)).NewWorkloadCoster(queries, freqs)
	a := []Index{NewIndex("lineitem.l_partkey")}
	b := []Index{NewIndex("lineitem.l_partkey"), NewIndex("orders.o_custkey")}
	coster.Cost(a)
	coster.Cost(b) // warm both sets' per-query costs and interned keys

	if got := testing.AllocsPerRun(100, func() {
		coster.Cost(a)
		coster.Cost(b)
	}); got > 4 {
		t.Errorf("warm delta pair allocates %.1f/op, want <= 4", got)
	}
}

// TestInternedKeyAllocFree pins warm index-set key derivation at zero
// allocations, the fix for the per-query key re-derivation hot spot.
func TestInternedKeyAllocFree(t *testing.T) {
	idx := []Index{NewIndex("orders.o_custkey"), NewIndex("lineitem.l_partkey")}
	internedIndexesKey(idx)
	if got := testing.AllocsPerRun(200, func() {
		internedIndexesKey(idx)
	}); got != 0 {
		t.Errorf("warm internedIndexesKey allocates %.1f/op, want 0", got)
	}
}
