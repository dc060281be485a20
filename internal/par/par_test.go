package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		p := New("test_order", workers)
		got, err := MapCtx(context.Background(), p, 100, func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errLo, errHi := errors.New("lo"), errors.New("hi")
	p := New("test_err", 8)
	// Run repeatedly: with 8 workers the higher-index task often finishes
	// first, which must not change which error is reported.
	for round := 0; round < 20; round++ {
		_, err := MapCtx(context.Background(), p, 50, func(_ context.Context, i int) (int, error) {
			switch i {
			case 3:
				return 0, errLo
			case 40:
				return 0, errHi
			}
			return i, nil
		})
		if err != errLo {
			t.Fatalf("round %d: err = %v, want lowest-index error %v", round, err, errLo)
		}
	}
}

func TestMapShortCircuitsQueuedTasksOnError(t *testing.T) {
	// A task failure must cancel the group: tasks already in flight observe
	// ctx.Done, and nothing new is claimed — one bad cell no longer pays for
	// the whole grid.
	var ran atomic.Int64
	p := New("test_short", 4)
	_, err := MapCtx(context.Background(), p, 64, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early")
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if err == nil || err.Error() != "early" {
		t.Fatalf("err = %v, want the lowest-index task error", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Fatalf("no short-circuit: all %d tasks ran", n)
	}
}

func TestMapSerialShortCircuits(t *testing.T) {
	ran := 0
	p := New("test_short_serial", 1)
	_, err := MapCtx(context.Background(), p, 32, func(_ context.Context, i int) (int, error) {
		ran++
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v", err)
	}
	if ran != 4 {
		t.Fatalf("serial map ran %d tasks after an error at index 3", ran)
	}
}

func TestMapCtxPreservesOrderAndValues(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := New("test_ctx_order", workers)
		got, err := MapCtx(context.Background(), p, 50, func(_ context.Context, i int) (int, error) {
			return i + 1, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		p := New("test_ctx_precancel", workers)
		_, err := MapCtx(ctx, p, 16, func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The parallel path may let the first claims race the cancel check;
		// serial must run nothing, and neither may run the whole grid.
		if n := ran.Load(); n >= 16 || (workers == 1 && n != 0) {
			t.Fatalf("workers=%d: %d tasks ran under a cancelled context", workers, n)
		}
	}
}

func TestMapCtxExternalCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	p := New("test_ctx_midrun", 4)
	_, err := MapCtx(ctx, p, 64, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 2 {
			cancel()
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Fatalf("cancel did not stop the queue: %d tasks ran", n)
	}
}

func TestMapBoundsInflight(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	p := New("test_bound", workers)
	_, err := MapCtx(context.Background(), p, 64, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		defer cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pk := peak.Load(); pk > workers {
		t.Fatalf("peak in-flight = %d, want <= %d", pk, workers)
	}
}

func TestMapSerialRunsInSubmissionOrder(t *testing.T) {
	// workers == 1 must execute inline, strictly in index order.
	var order []int
	p := New("test_serial", 1)
	_, err := MapCtx(context.Background(), p, 10, func(_ context.Context, i int) (int, error) {
		order = append(order, i) // safe: inline on one goroutine
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order %v", order)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	p := New("test_empty", 4)
	got, err := MapCtx(context.Background(), p, 0, func(_ context.Context, i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
}

// TestDo runs result-less tasks for their side effects, serially and in
// parallel, and checks that a failing task's error comes back.
func TestDo(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var sum atomic.Int64
		p := New("test_do", workers)
		if _, err := MapCtx(context.Background(), p, 10, func(_ context.Context, i int) (struct{}, error) {
			sum.Add(int64(i))
			return struct{}{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 45 {
			t.Fatalf("workers=%d: sum = %d", workers, sum.Load())
		}
		if _, err := MapCtx(context.Background(), p, 4, func(_ context.Context, i int) (struct{}, error) {
			return struct{}{}, fmt.Errorf("task %d", i)
		}); err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
	}
}

// TestDoCtx checks that result-less tasks see the caller's context values
// and all run to completion on a parallel pool.
func TestDoCtx(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, int64(1))
	var sum atomic.Int64
	p := New("test_doctx", 4)
	if _, err := MapCtx(ctx, p, 10, func(ctx context.Context, i int) (struct{}, error) {
		sum.Add(int64(i) * ctx.Value(key{}).(int64))
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestNewDefaults(t *testing.T) {
	if w := New("test_defaults", 0).Workers(); w != DefaultWorkers() {
		t.Errorf("Workers() = %d, want DefaultWorkers() = %d", w, DefaultWorkers())
	}
	if w := New("test_defaults", -3).Workers(); w != DefaultWorkers() {
		t.Errorf("Workers() = %d for negative width", w)
	}
	if got := New("test_defaults", 7).Name(); got != "test_defaults" {
		t.Errorf("Name() = %q", got)
	}
}
