package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// elapsed returns how much simulated time has passed on a clock that started
// at the zero time.
func elapsed(c *VirtualClock) time.Duration { return c.Now().Sub(time.Unix(0, 0)) }

func TestHitDeterministicAndRateBounded(t *testing.T) {
	f := New(Config{Rate: 0.3, Seed: 42}, NewVirtualClock())
	g := New(Config{Rate: 0.3, Seed: 42}, NewVirtualClock())
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i))
		a := f.Hit(TransientErr, "site", key, 0)
		b := g.Hit(TransientErr, "site", key, 0)
		if a != b {
			t.Fatalf("same seed diverged on key %q", key)
		}
		if a {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("hit rate = %.3f, want ≈ 0.30", frac)
	}
	if f.FiredTotal() != int64(hits) {
		t.Errorf("FiredTotal = %d, want %d", f.FiredTotal(), hits)
	}
}

func TestHitIndependentOfCallOrder(t *testing.T) {
	// The same (site, key, attempt) decision must not depend on what was
	// asked before it — the property that makes parallel runs byte-identical.
	f := New(Config{Rate: 0.5, Seed: 7}, nil)
	first := f.Hit(NoisyCost, "whatif", "q42", 0)
	g := New(Config{Rate: 0.5, Seed: 7}, nil)
	for i := 0; i < 100; i++ {
		g.Hit(TransientErr, "other", string(rune(i)), i)
	}
	if got := g.Hit(NoisyCost, "whatif", "q42", 0); got != first {
		t.Error("decision depends on prior call history")
	}
}

func TestHitVariesByAttempt(t *testing.T) {
	f := New(Config{Rate: 0.5, Seed: 3}, nil)
	same := true
	for attempt := 1; attempt < 20; attempt++ {
		if f.Hit(TransientErr, "s", "k", attempt) != f.Hit(TransientErr, "s", "k", 0) {
			same = false
		}
	}
	if same {
		t.Error("attempt number does not reach the decision hash; retries could never succeed")
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var f *Injector
	if f.Hit(TransientErr, "s", "k", 0) {
		t.Error("nil injector fired")
	}
	if got := f.Perturb("s", "k", 10); got != 10 {
		t.Errorf("nil Perturb = %g", got)
	}
	f.Delay("s", "k") // must not panic
	if f.Rate() != 0 || f.FiredTotal() != 0 {
		t.Error("nil accessors non-zero")
	}
}

func TestPerturbBoundedAndDeterministic(t *testing.T) {
	f := New(Config{Rate: 1, Seed: 9}, nil)
	for i := 0; i < 200; i++ {
		key := string(rune(i)) + "k"
		v := f.Perturb("cost", key, 100)
		// NoisyCost: ×[0.85, 1.15]; StaleStats: ×[1, 1.5] — combined bounds.
		if v < 100*(1-noiseEpsilon) || v > 100*(1+noiseEpsilon)*(1+staleness) {
			t.Fatalf("perturbed value %g out of bounds", v)
		}
		if v2 := f.Perturb("cost", key, 100); v2 != v {
			t.Fatalf("perturbation not deterministic: %g vs %g", v, v2)
		}
	}
}

func TestOnlyRestrictsKinds(t *testing.T) {
	f := New(Config{Rate: 1, Seed: 1, Only: map[Kind]bool{DroppedProbe: true}}, nil)
	if f.Hit(TransientErr, "s", "k", 0) {
		t.Error("disabled kind fired")
	}
	if !f.Hit(DroppedProbe, "s", "k", 0) {
		t.Error("enabled kind at rate 1 did not fire")
	}
}

func TestDelayAdvancesVirtualClock(t *testing.T) {
	clock := NewVirtualClock()
	f := New(Config{Rate: 1, Seed: 2, Only: map[Kind]bool{LatencySpike: true}}, clock)
	f.Delay("s", "k")
	if got := elapsed(clock); got != spikeDelay {
		t.Errorf("virtual clock advanced %v, want %v", got, spikeDelay)
	}
}

func TestRetrySucceedsAfterTransients(t *testing.T) {
	clock := NewVirtualClock()
	pol := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Clock: clock}
	before := retriesTotal.Value()
	calls := 0
	err := Retry(context.Background(), pol, "op", func(attempt int) error {
		calls++
		if attempt < 2 {
			return ErrTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on third attempt", err, calls)
	}
	if d := retriesTotal.Value() - before; d != 2 {
		t.Errorf("fault_retries_total += %d, want 2", d)
	}
	if elapsed(clock) <= 0 {
		t.Error("no backoff slept on the injected clock")
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	before := retryGiveupsTotal.Value()
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 3, Clock: NewVirtualClock()}, "op",
		func(int) error { calls++; return ErrTransient })
	if !errors.Is(err, ErrTransient) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if d := retryGiveupsTotal.Value() - before; d != 1 {
		t.Errorf("fault_retry_giveups_total += %d, want 1", d)
	}
}

func TestRetryRespectsBudget(t *testing.T) {
	clock := NewVirtualClock()
	pol := RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Budget:      25 * time.Millisecond,
		Clock:       clock,
	}
	calls := 0
	err := Retry(context.Background(), pol, "op", func(int) error { calls++; return ErrTransient })
	if err == nil {
		t.Fatal("want give-up error")
	}
	// Each backoff is in [5ms, 10ms); the 25ms budget admits at most 4.
	if calls > 6 {
		t.Errorf("budget did not bound the loop: %d calls", calls)
	}
	if elapsed(clock) > pol.Budget {
		t.Errorf("slept %v past the %v budget", elapsed(clock), pol.Budget)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry(ctx, RetryPolicy{Clock: NewVirtualClock()}, "op", func(int) error { return ErrTransient })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRetryDeterministicBackoff(t *testing.T) {
	run := func() time.Duration {
		clock := NewVirtualClock()
		Retry(context.Background(), RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 11, Clock: clock},
			"op", func(int) error { return ErrTransient })
		return elapsed(clock)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("backoff schedule not deterministic: %v vs %v", a, b)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := NewVirtualClock()
	before := breakerTrips.Value()
	b := NewBreaker(2, 50*time.Millisecond, clock)

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if !b.Allow() {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.Failure() // second consecutive failure: trips
	if b.Allow() || b.State() != BreakerOpen {
		t.Fatal("breaker did not open at threshold")
	}
	if b.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", b.Trips())
	}

	clock.Sleep(50 * time.Millisecond)
	if !b.Allow() { // cooldown elapsed: half-open trial
		t.Fatal("cooldown did not admit a half-open trial")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent half-open trial admitted")
	}
	b.Failure() // trial failed: re-open immediately
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("half-open failure: state=%v trips=%d", b.State(), b.Trips())
	}

	clock.Sleep(50 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second cooldown did not admit a trial")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("success did not close the breaker")
	}
	if d := breakerTrips.Value() - before; d != 2 {
		t.Errorf("fault_breaker_trips_total += %d, want 2", d)
	}
}

func TestBreakerConcurrentSafety(t *testing.T) {
	b := NewBreaker(3, time.Millisecond, NewVirtualClock())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
			}
		}(g)
	}
	wg.Wait() // -race is the assertion
}

func TestKindStringAndKinds(t *testing.T) {
	want := map[Kind]string{
		TransientErr: "transient-error",
		LatencySpike: "latency-spike",
		NoisyCost:    "noisy-cost",
		DroppedProbe: "dropped-probe",
		StaleStats:   "stale-stats",
	}
	if int(numKinds) != len(want) {
		t.Fatalf("numKinds = %d, want %d", numKinds, len(want))
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
