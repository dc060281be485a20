package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/par"
)

// TestWorkersGoldenDeterminism is the contract behind Setup.Workers: the same
// drivers at pool widths 1 (serial), 4 and 0 (GOMAXPROCS) must produce
// byte-identical results — parallelism moves wall clock only, never numbers.
// Every experiment cell derives its RNGs from (Seed, run) and owns its
// advisor instances, and what-if cache hits return the same values as
// recomputation, so the fan-out is invisible in the output (DESIGN.md §7).
func TestWorkersGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	s := *tinySetup // copy so Workers mutation cannot leak to other tests
	widths := []int{1, 4, 0}

	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var goldenMain, goldenOmega string
	for _, workers := range widths {
		s.Workers = workers

		mr, err := RunMainResult(context.Background(), &s, []string{"DQN-b", "Heuristic"})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotMain := marshal(mr)

		or, err := RunInjectionSize(context.Background(), &s, []string{"DQN-b"}, []float64{0.5, 2}, 6)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotOmega := marshal(or)

		if workers == widths[0] {
			goldenMain, goldenOmega = gotMain, gotOmega
			continue
		}
		if gotMain != goldenMain {
			t.Errorf("RunMainResult at workers=%d diverges from serial:\n got %s\nwant %s",
				workers, gotMain, goldenMain)
		}
		if gotOmega != goldenOmega {
			t.Errorf("RunInjectionSize at workers=%d diverges from serial:\n got %s\nwant %s",
				workers, gotOmega, goldenOmega)
		}
	}
}

// TestCacheStatsIndependentOfWorkers: the goldens' cache-stats trailer must
// repeat at any -workers. IABART verifies candidates in private memos that
// never read the shared cache, and publishes accepted queries into it with
// one counted call per key, so calls, hits, entries and plans cannot depend
// on which of two concurrent cells publishes a query first.
func TestCacheStatsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	plans := obs.GetCounter("cost_plans_total")
	type work struct {
		cache cost.CacheStats
		plans int64
	}
	var want work
	for i, workers := range []int{1, 2, 4} {
		s := NewSetup("tpch", 1, ScaleTiny)
		s.Workers = workers
		plans0 := plans.Value()
		if _, err := RunMainResult(context.Background(), s, []string{"DQN-b", "Heuristic"}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := work{s.WhatIf.CacheStats(), plans.Value() - plans0}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d: %+v, want the serial run's %+v", workers, got, want)
		}
	}
}

// TestSetupPoolWidth checks the Workers plumbing into par.
func TestSetupPoolWidth(t *testing.T) {
	s := *tinySetup
	s.Workers = 3
	if got := s.pool("x").Workers(); got != 3 {
		t.Errorf("pool width = %d, want 3", got)
	}
	s.Workers = 0
	if got := s.pool("x").Workers(); got != par.DefaultWorkers() {
		t.Errorf("pool width = %d, want DefaultWorkers", got)
	}
}
