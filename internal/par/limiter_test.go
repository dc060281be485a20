package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestLimiterTryAcquireBound(t *testing.T) {
	l := NewLimiter("test_bound", 2)
	if l.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", l.Cap())
	}
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("first two TryAcquire should succeed")
	}
	if l.TryAcquire() {
		t.Fatal("third TryAcquire should fail at capacity")
	}
	if l.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", l.InUse())
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
	l.Release()
	l.Release()
	if l.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", l.InUse())
	}
}

func TestLimiterReleaseWithoutAcquirePanics(t *testing.T) {
	l := NewLimiter("test_panic", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without a held slot should panic")
		}
	}()
	l.Release()
}

// TestLimiterConcurrentNeverExceedsCap hammers one limiter from many
// goroutines and checks the invariant admission control rests on: the
// number of concurrently held slots never exceeds the capacity, and every
// acquired slot is released exactly once.
func TestLimiterConcurrentNeverExceedsCap(t *testing.T) {
	const slots, goroutines, iters = 3, 16, 200
	l := NewLimiter("test_conc", slots)
	var held, peak, admitted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if !l.TryAcquire() {
					continue
				}
				h := held.Add(1)
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				admitted.Add(1)
				held.Add(-1)
				l.Release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Fatalf("peak held slots = %d, want <= %d", p, slots)
	}
	if l.InUse() != 0 {
		t.Fatalf("InUse after drain = %d, want 0", l.InUse())
	}
	if admitted.Load() == 0 {
		t.Fatal("no goroutine ever acquired a slot")
	}
}
