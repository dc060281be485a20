package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipa"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 10000, want: 0.99, got: 0.99},
		{n: 1000, want: 0.99, got: 0.99},
		{n: 999, want: 0.99, got: 0.9},
		{n: 100, want: 0.999, got: 0.9},
		{n: 40, want: 0.99, got: 0.75},
		{n: 20, want: 0.99, got: 0.5},
		{n: 19, want: 0.99, got: 1},
		{n: 2, want: 1, got: 1},
		{n: 100000, want: 1, got: 0.999},
	} {
		if lvl := tailLevel(tc.n, tc.want); lvl != tc.got {
			t.Errorf("tailLevel(%d, %v) = %v, want %v", tc.n, tc.want, lvl, tc.got)
		}
		if lvl := tailLevel(tc.n, tc.want); lvl < 1 && tc.n-rank(lvl, tc.n) < minBeyond {
			t.Errorf("tailLevel(%d, %v) = %v leaves fewer than %d samples beyond", tc.n, tc.want, lvl, minBeyond)
		}
	}
}

func TestOpStatsRecordsPercentilesAndN(t *testing.T) {
	o := &ops{attempted: 1001, failed: 1}
	for i := 1; i <= 1000; i++ {
		o.lat = append(o.lat, time.Duration(i)*time.Millisecond)
	}
	st := o.stats(0.99, 10*time.Second)
	if st.N != 1000 || st.Attempted != 1001 || st.Failed != 1 {
		t.Fatalf("counts = %+v", st)
	}
	if st.P50Ms != 500 || st.TailLevel != 0.99 || st.TailMs != 990 || st.PerSec != 100 {
		t.Fatalf("stats = %+v, want p50 500, p99 990, 100/s", st)
	}
	if m := median([]time.Duration{4, 1, 3, 2}); m != 2 {
		t.Fatalf("median = %v, want 2 (mean of the middle pair, truncated)", m)
	}
}

func TestSelfTimeFoldsOverlappingChildren(t *testing.T) {
	span := func(name string, start, dur int64, children ...*obs.TSpanSnapshot) *obs.TSpanSnapshot {
		return &obs.TSpanSnapshot{Name: name, StartUs: start, DurUs: dur, Children: children}
	}
	// [0,100): children cover [10,40) ∪ [30,50) ∪ [45,60) = [10,60) and
	// [90,120) clipped to [90,100) — 60 µs covered, 40 self.
	parent := span(spanStress, 0, 100,
		span(spanRecommend, 10, 30),
		span(spanInject, 30, 20),
		span(spanRetrain, 45, 15),
		span(spanRecommend, 90, 30),
	)
	if got := selfTime(parent); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}}); got != 10 {
		t.Fatalf("unionLen = %d, want 10", got)
	}

	// Spans under a screener are its scratch fits, not the layer's own work.
	root := span("trainer", 0, 1000,
		span(spanScreenPref+"trim", 0, 100, span(spanRetrain, 10, 50, span(spanRestore, 10, 5))),
		span(spanRetrain, 200, 300),
	)
	tot := newSpanTotals()
	tot.add(root)
	want := map[string]int64{spanScreenPref + "trim": 50, spanScreenPref + "trim.fit": 50, spanRetrain: 300}
	if !reflect.DeepEqual(tot.selfUs, want) {
		t.Fatalf("selfUs = %v, want %v", tot.selfUs, want)
	}
	if tot.calls[spanRetrain] != 1 {
		t.Fatalf("calls = %v: nested fits must not count as update retrains", tot.calls)
	}
}

// TestDecoratorsAreTransparent stress-tests two identically trained
// DBAbandit-b victims, one bare and one decorated, with every paper injector
// (P-C needs the forwarded Introspector) and requires identical results.
func TestDecoratorsAreTransparent(t *testing.T) {
	s := experiments.NewSetup("tpch", 1, experiments.ScaleTiny)
	st := s.Tester()
	w := s.NormalWorkload(0)
	on := new(atomic.Bool)
	on.Store(true)
	tr := newTracer("test", on)
	bare, err := s.TrainAdvisor("DBAbandit-b", 0, w)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.TrainAdvisor("DBAbandit-b", 0, w)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := traceAdvisor(other, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range pipa.PaperInjectors(st) {
		a := st.StressTest(context.Background(), bare.(advisor.Cloner).CloneAdvisor(), inj, w, s.PipaCfg.Na)
		b := st.StressTest(context.Background(), wrapped.CloneAdvisor(), tracedInjector{inner: inj, t: tr}, w, s.PipaCfg.Na)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: bare %+v, decorated %+v", inj.Name(), a, b)
		}
	}
	tot := newSpanTotals()
	tr.tr.End()
	tot.add(tr.tr.Snapshot().Root)
	for _, name := range []string{spanClone, spanInject, spanRetrain, spanRecommend} {
		if tot.calls[name] == 0 {
			t.Errorf("no %s span recorded: %v", name, tot.calls)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the runner must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// requireDeclared checks emitted metrics against a BENCHMARK.json section in
// both directions: same names, same units, every name well-formed.
func requireDeclared(t *testing.T, section string, declared []struct{ Name, Unit string }, emitted map[string]metric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range emitted {
		if !metricName.MatchString(name) {
			t.Errorf("%s metric %q is not [A-Za-z0-9_.-]+", section, name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s metric %q is emitted but not declared in BENCHMARK.json", section, name)
		} else if unit != m.Unit {
			t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", section, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s metric %q is declared in BENCHMARK.json but never emitted", section, name)
		}
	}
}

func TestBenchmarkJSONDeclaresWorkloads(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		spec, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is declared but has no driver", w.Name)
		} else if spec.why != w.Why {
			t.Errorf("workload %q: why differs from BENCHMARK.json", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, runner %v", names, workloadNames())
	}
}

// smallGrid and smallServe shrink every workload to seconds; seed 9 has no
// golden file, so the runs are checked only against their own references.
var (
	smallGrid  = gridSizes{scale: experiments.ScaleTiny, runs: 1, setupReps: 2}
	smallServe = serveSizes{trajectories: 10, setupReps: 2, pool: 4, poolQueries: 6, batchQueries: 4, injections: 2}
)

const smokeSeed = 9

// TestWorkloadsSmoke runs every workload at reduced size, untraced and
// traced, through the drivers the command uses, and checks that each run is
// correct and emits exactly the metrics BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	drivers := map[string]func(context.Context, runOpts) (*outcome, error){
		"paper-grid": func(ctx context.Context, o runOpts) (*outcome, error) { return runPaperGrid(ctx, o, smallGrid) },
	}
	for _, mix := range []serveMix{serveHot, serveUpdate, serveRetrain} {
		mix := mix
		mix.replay = min(mix.replay, 20)
		drivers[mix.name] = func(ctx context.Context, o runOpts) (*outcome, error) { return runServe(ctx, o, mix, smallServe) }
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: smokeSeed, duration: 400 * time.Millisecond, traced: traced, on: new(atomic.Bool)}
			out, err := drivers[name](context.Background(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			rec := buildRecord(name, out, environment(smokeSeed), traced)
			if !rec.Result.Correct || rec.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: not correct: %+v\nchecks %+v\nops %+v", name, traced, rec.Result, rec.Checks, rec.Ops)
			}
			if rec.Verified != "unverified-seed" {
				t.Errorf("%s: seed %d verified as %q, want unverified-seed", name, smokeSeed, rec.Verified)
			}
			if traced {
				requireDeclared(t, name+" per_layer", bj.PerLayer, rec.Result.Metrics)
			} else {
				requireDeclared(t, name+" end_to_end", bj.EndToEnd, rec.Result.Metrics)
				for m, v := range rec.Result.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}
