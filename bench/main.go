// Command bench is the repository's end-to-end benchmark. One run executes
// one workload — the PIPA paper grid, or an in-process advisord under a fixed
// closed-loop traffic mix — for a run length set by --seconds (whole grids, or
// fixed work sized from it, where a workload needs that), checks every output the system
// produced, and prints the workload's metrics as the last line of standard
// output:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones declared in
// BENCHMARK.json, measured with no tracing. With --trace 1 the same work runs
// with spans recorded by the decorators in trace.go during the middle half of
// the timed phase, and the per-layer metrics are printed instead. README.md
// describes the workloads, the metrics and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// workloadSpec is one benchmark workload: a seed-driven input generator and
// traffic driver over the real system, plus the reason it exists.
type workloadSpec struct {
	why string
	run func(ctx context.Context, o runOpts) (*outcome, error)
}

// workloads maps every --workload name to its driver. BENCHMARK.json lists
// the same names; bench_test.go keeps the two in step.
var workloads = map[string]workloadSpec{
	"paper-grid": {
		why: "pipa-bench fig7 grid: training, PIPA probe/inject, qgen and the par pool, cold what-if cache",
		run: func(ctx context.Context, o runOpts) (*outcome, error) { return runPaperGrid(ctx, o, defaultGrid) },
	},
	"serve-hot": {
		why: "advisord recommend with a warm what-if cache: HTTP/JSON, sql resolve, snapshot restore, NN inference",
		run: func(ctx context.Context, o runOpts) (*outcome, error) {
			return runServe(ctx, o, serveHot, defaultServe)
		},
	},
	"serve-update": {
		why: "cheap guarded DBAbandit-b updates, half PIPA-poisoned, under sanitizer+trim, next to cache-missing recommends",
		run: func(ctx context.Context, o runOpts) (*outcome, error) {
			return runServe(ctx, o, serveUpdate, defaultServe)
		},
	},
	"serve-retrain": {
		why: "heavy guarded DQN-b retrains and 1.5 MB snapshot publishes next to warm recommends",
		run: func(ctx context.Context, o runOpts) (*outcome, error) {
			return runServe(ctx, o, serveRetrain, defaultServe)
		},
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Set-up is repeated at least a workload's set-up count and, for cheap
// set-ups, until minSetup has been spent (at most maxSetupReps times), so
// the median set-up time rests on enough samples to be steady. Each
// repetition starts after a full collection, so none pays for garbage an
// earlier one left.
const (
	minSetup     = time.Second
	maxSetupReps = 200
)

// runOpts is what every workload driver receives.
type runOpts struct {
	seed     int64
	duration time.Duration
	traced   bool
	// on switches span recording; drivers turn it on for the traced window.
	on *atomic.Bool
}

// outcome is what one workload run measured and checked.
type outcome struct {
	fg       string  // the operation kind end-to-end metrics time
	wantTail float64 // the tail percentile fg reports, when n allows it
	ops      map[string]*ops
	elapsed  time.Duration // timed phase: wall time until the foreground finished
	setup    []time.Duration
	heapMB   float64
	load     loadInfo
	checks   []check
	verified string // "golden" when a committed expected output matched, else "unverified-seed"
	outputs  map[string]string
	layers   *layerInputs // traced runs only
	traces   []*obs.Trace // traced runs only
}

func newOutcome(fg string, wantTail float64) *outcome {
	return &outcome{fg: fg, wantTail: wantTail, ops: map[string]*ops{fg: {}}, verified: "unverified-seed", outputs: map[string]string{}}
}

func (o *outcome) op(kind string) *ops {
	if o.ops[kind] == nil {
		o.ops[kind] = &ops{}
	}
	return o.ops[kind]
}

// check is one named output check, applied N times; Detail describes the
// first of its Failed applications.
type check struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	Failed int    `json:"failed"`
	Detail string `json:"detail,omitempty"`
}

// check applies the named check once.
func (o *outcome) check(name string, ok bool, detailf string, args ...any) {
	var c *check
	for i := range o.checks {
		if o.checks[i].Name == name {
			c = &o.checks[i]
		}
	}
	if c == nil {
		o.checks = append(o.checks, check{Name: name})
		c = &o.checks[len(o.checks)-1]
	}
	c.N++
	if !ok {
		c.Failed++
		if c.Detail == "" {
			c.Detail = fmt.Sprintf(detailf, args...)
		}
	}
}

// loadInfo describes the traffic of a run.
type loadInfo struct {
	Clients   map[string]int `json:"clients"`
	Loop      string         `json:"loop"`
	RunS      float64        `json:"run_s"`
	Warmup    string         `json:"warmup"`
	SetupReps int            `json:"setup_reps"`
}

// envInfo records where a result was measured.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Seed       int64  `json:"seed"`
}

func environment(seed int64) envInfo {
	e := envInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown",
		Go: runtime.Version(), Revision: "unknown", Seed: seed}
	// Best effort: the model name is informational, its absence is not an error.
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Revision = s.Value
			}
		}
	}
	return e
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of a run, printed before the result line.
type record struct {
	Env      envInfo             `json:"env"`
	Workload string              `json:"workload"`
	Why      string              `json:"why"`
	Traced   bool                `json:"traced"`
	Load     loadInfo            `json:"load"`
	Ops      map[string]*opStats `json:"ops"`
	SetupS   []float64           `json:"setup_s"`
	Checks   []check             `json:"checks"`
	Verified string              `json:"verified"`
	Outputs  map[string]string   `json:"outputs,omitempty"`
	Result   result              `json:"result"`
}

// endToEnd is the end-to-end metric set; every workload reports all of it.
func endToEnd(o *outcome) map[string]metric {
	fg := o.ops[o.fg].stats(o.wantTail, o.elapsed)
	return map[string]metric{
		"setup_s":    {median(o.setup).Seconds(), "s"},
		"heap_mb":    {o.heapMB, "MB"},
		"op_p50_ms":  {fg.P50Ms, "ms"},
		"op_tail_ms": {fg.TailMs, "ms"},
		"ops_per_s":  {fg.PerSec, "1/s"},
	}
}

func buildRecord(name string, o *outcome, env envInfo, traced bool) *record {
	rec := &record{Env: env, Workload: name, Why: workloads[name].why, Traced: traced, Load: o.load,
		Ops: map[string]*opStats{}, Checks: o.checks, Verified: o.verified, Outputs: o.outputs}
	rec.Result.Correct = true
	for kind, op := range o.ops {
		want := 0.99
		if kind == o.fg {
			want = o.wantTail
		}
		rec.Ops[kind] = op.stats(want, o.elapsed)
		rec.Result.Attempted += op.attempted
		rec.Result.Failed += op.failed
	}
	for _, s := range o.setup {
		rec.SetupS = append(rec.SetupS, s.Seconds())
	}
	for _, c := range o.checks {
		rec.Result.Correct = rec.Result.Correct && c.Failed == 0
	}
	rec.Result.Correct = rec.Result.Correct && rec.Result.Failed == 0 && len(o.checks) > 0
	if traced {
		rec.Result.Metrics = perLayer(o.layers)
	} else {
		rec.Result.Metrics = endToEnd(o)
	}
	return rec
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	traceMode := flag.Int("trace", 0, "0 reports end-to-end metrics untraced; 1 records spans and reports per-layer metrics")
	out := flag.String("out", "", "also write the full run record to this file")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	o := runOpts{seed: *seed, duration: time.Duration(*seconds) * time.Second, traced: *traceMode == 1, on: new(atomic.Bool)}
	res, err := spec.run(context.Background(), o)
	if err != nil {
		fail(err)
	}
	rec := buildRecord(*name, res, environment(*seed), o.traced)
	if o.traced && *traceOut != "" {
		if err := writeSpans(*traceOut, res.traces); err != nil {
			fail(err)
		}
	}
	full, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fail(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(full, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

// writeSpans writes every recorded trace as one JSON array.
func writeSpans(path string, traces []*obs.Trace) error {
	snaps := make([]*obs.TraceSnapshot, 0, len(traces))
	for _, t := range traces {
		snaps = append(snaps, t.Snapshot())
	}
	b, err := json.Marshal(snaps)
	if err != nil {
		return fmt.Errorf("marshal spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
