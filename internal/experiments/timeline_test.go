package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// TestRunCellWorkRepeats checks that a defended-timeline cell repeats its
// work, not only its result: two runs of runCell on fresh tiny Heuristic
// setups must leave the same what-if cache counts and move every obs counter
// (what-if calls, hits and entries, plan access paths, guard and defense
// counters) by the same amount. It runs the guardsweep arms and the
// defensesweep arms, which together cover every screener and the guard.
func TestRunCellWorkRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	for _, tc := range []struct {
		name string
		arms []string
	}{
		{"guardsweep", []string{"unguarded", "guard"}},
		{"defensesweep", DefenseArms()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type work struct {
				cell   timelineCell
				cache  cost.CacheStats
				deltas map[string]int64
			}
			run := func() work {
				s := NewSetup("tpch", 1, ScaleTiny)
				before := obs.Default.Metrics.Snapshot().Counters
				c, err := s.runCell(context.Background(), s.Tester(), tc.arms, "Heuristic", s.AttackName(), 1, 0, 7)
				if err != nil {
					t.Fatal(err)
				}
				deltas := make(map[string]int64)
				for name, v := range obs.Default.Metrics.Snapshot().Counters {
					if d := v - before[name]; d != 0 {
						deltas[name] = d
					}
				}
				return work{c, s.WhatIf.CacheStats(), deltas}
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.cell, b.cell) {
				t.Errorf("cell results differ:\n%+v\n%+v", a.cell, b.cell)
			}
			if a.cache != b.cache {
				t.Errorf("what-if cache stats differ: %+v vs %+v", a.cache, b.cache)
			}
			names := make(map[string]bool)
			for name := range a.deltas {
				names[name] = true
			}
			for name := range b.deltas {
				names[name] = true
			}
			for name := range names {
				if da, db := a.deltas[name], b.deltas[name]; da != db {
					t.Errorf("counter %s moved by %d, then by %d", name, da, db)
				}
			}
		})
	}
}
