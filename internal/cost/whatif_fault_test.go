package cost

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sql"
)

// faultQueries builds n distinct resolved queries so each costs through a
// separate cache key (and therefore a separate fault decision).
func faultQueries(t testing.TB, s *catalog.Schema, n int) []*sql.Query {
	t.Helper()
	qs := make([]*sql.Query, n)
	for i := range qs {
		qs[i] = whatifQuery(t, s, fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE l_partkey = %d", i))
	}
	return qs
}

// TestWhatIfFaultCountersObservable drives the oracle at a transient-error
// rate high enough to exercise every resilience layer and asserts the
// degradation is visible in both the per-instance FaultStats and the
// process-wide obs counters (retries, breaker trips, fallback decisions).
func TestWhatIfFaultCountersObservable(t *testing.T) {
	s := catalog.TPCH(1)
	w := NewWhatIf(NewModel(s))
	w.EnableFaults(fault.New(fault.Config{
		Rate: 0.9,
		Seed: 1,
		Only: map[fault.Kind]bool{fault.TransientErr: true},
	}, fault.NewVirtualClock()))

	obsRetries := obs.GetCounter("fault_retries_total").Value()
	obsTrips := obs.GetCounter("fault_breaker_trips_total").Value()
	obsFallbacks := obs.GetCounter("cost_whatif_fallbacks_total").Value()

	for _, q := range faultQueries(t, s, 200) {
		if c := w.QueryCost(q, nil); c <= 0 {
			t.Fatalf("degraded cost %g, want > 0", c)
		}
	}

	st := w.FaultStats()
	if st.Injected == 0 || st.Retries == 0 || st.Giveups == 0 || st.Trips == 0 || st.Fallbacks == 0 {
		t.Fatalf("every resilience layer should have fired at rate 0.9: %+v", st)
	}
	if st.Fallbacks < st.Giveups {
		t.Errorf("every give-up must fall back: %+v", st)
	}
	if d := obs.GetCounter("fault_retries_total").Value() - obsRetries; d < st.Retries {
		t.Errorf("fault_retries_total += %d, want ≥ %d", d, st.Retries)
	}
	if d := obs.GetCounter("fault_breaker_trips_total").Value() - obsTrips; d != st.Trips {
		t.Errorf("fault_breaker_trips_total += %d, want %d", d, st.Trips)
	}
	if d := obs.GetCounter("cost_whatif_fallbacks_total").Value() - obsFallbacks; d != st.Fallbacks {
		t.Errorf("cost_whatif_fallbacks_total += %d, want %d", d, st.Fallbacks)
	}
}

// TestWhatIfFaultDeterministic runs two identically configured oracles over
// the same workload and demands identical values — the property faultsweep's
// byte-identical output rests on.
func TestWhatIfFaultDeterministic(t *testing.T) {
	s := catalog.TPCH(1)
	qs := faultQueries(t, s, 100)
	run := func() []float64 {
		w := NewWhatIf(NewModel(s))
		w.EnableFaults(fault.New(fault.Config{Rate: 0.5, Seed: 9}, fault.NewVirtualClock()))
		out := make([]float64, len(qs))
		for i, q := range qs {
			out[i] = w.QueryCost(q, nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d diverged under identical fault config: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestWhatIfFaultRateZeroMatchesClean pins the -faults 0 acceptance
// criterion at this layer: an injector at rate zero must leave every
// estimate bit-identical to the clean oracle.
func TestWhatIfFaultRateZeroMatchesClean(t *testing.T) {
	s := catalog.TPCH(1)
	clean := NewWhatIf(NewModel(s))
	faulty := NewWhatIf(NewModel(s))
	faulty.EnableFaults(fault.New(fault.Config{Rate: 0, Seed: 3}, fault.NewVirtualClock()))
	for _, q := range faultQueries(t, s, 50) {
		idx := []Index{NewIndex("lineitem.l_partkey")}
		if a, b := clean.QueryCost(q, idx), faulty.QueryCost(q, idx); a != b {
			t.Fatalf("rate-0 injector changed a cost: %g vs %g", a, b)
		}
	}
	if st := faulty.FaultStats(); st != (FaultStats{}) {
		t.Errorf("rate-0 run recorded fault activity: %+v", st)
	}
}

// TestWhatIfPerturbApplied checks the noisy-cost path: at rate 1 with only
// NoisyCost enabled, every fresh estimate differs from the clean model but
// stays within the ±15% band.
func TestWhatIfPerturbApplied(t *testing.T) {
	s := catalog.TPCH(1)
	clean := NewWhatIf(NewModel(s))
	faulty := NewWhatIf(NewModel(s))
	faulty.EnableFaults(fault.New(fault.Config{
		Rate: 1,
		Seed: 5,
		Only: map[fault.Kind]bool{fault.NoisyCost: true},
	}, fault.NewVirtualClock()))
	perturbed := 0
	for _, q := range faultQueries(t, s, 50) {
		a, b := clean.QueryCost(q, nil), faulty.QueryCost(q, nil)
		if b < a*0.85 || b > a*1.15 {
			t.Fatalf("perturbed cost %g outside ±15%% of %g", b, a)
		}
		if a != b {
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Error("rate-1 noisy-cost fault never changed an estimate")
	}
}

// TestFallbackCostHeuristic pins the degraded model's two contracts: it is
// strictly positive for any table-referencing query, and a sargable-covering
// index makes it cheaper (so degraded advisors still prefer useful indexes).
func TestFallbackCostHeuristic(t *testing.T) {
	s := catalog.TPCH(1)
	m := NewModel(s)
	q := whatifQuery(t, s, "SELECT COUNT(*) FROM lineitem WHERE l_partkey = 17")
	none := FallbackCost(m, q, nil)
	if none <= 0 {
		t.Fatalf("fallback cost %g, want > 0", none)
	}
	covered := FallbackCost(m, q, []Index{NewIndex("lineitem.l_partkey")})
	if covered >= none {
		t.Errorf("covering index did not reduce fallback cost: %g vs %g", covered, none)
	}
	unrelated := FallbackCost(m, q, []Index{NewIndex("orders.o_custkey")})
	if unrelated != none {
		t.Errorf("unrelated index changed fallback cost: %g vs %g", unrelated, none)
	}
	if again := FallbackCost(m, q, nil); again != none {
		t.Errorf("fallback not deterministic: %g vs %g", again, none)
	}
}
