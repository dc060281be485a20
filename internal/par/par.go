// Package par is the deterministic parallel execution layer of the
// experiment pipeline: a bounded worker pool that fans index-addressed tasks
// out over goroutines and hands results back in submission order, so a
// parallel run is byte-identical to the serial one whenever the tasks
// themselves are order-independent (every experiment cell derives its RNG
// from (run, name) seeds, so they are — DESIGN.md §7).
//
// Pools are cheap, stateless handles: one per experiment phase, named so the
// obs registry can attribute throughput and latency per phase
// (par_tasks_total{pool="..."}, par_task_seconds{pool="..."},
// par_tasks_inflight).
package par

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// inflight is the process-wide gauge of currently executing tasks across all
// pools; Gauge.Add keeps it one atomic op per transition.
var inflight = obs.GetGauge("par_tasks_inflight")

// latencyBuckets cover experiment-cell wall times: microseconds for cache
// probes up to minutes for ScaleFull training cells.
var latencyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30, 60, 120, 300,
}

// DefaultWorkers is the pool width used when none is requested: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Pool is a named, bounded fan-out domain. The zero value is not usable; use
// New. Pools hold no goroutines between calls — MapCtx spawns exactly the
// workers it needs and joins them before returning.
type Pool struct {
	name    string
	workers int

	tasks    *obs.Counter
	taskErrs *obs.Counter
	latency  *obs.Histogram
}

// New builds a pool named for its experiment phase. workers <= 0 selects
// DefaultWorkers; workers == 1 makes MapCtx run every task inline on the caller
// goroutine (the serial path, byte-identical to the pre-pool code and with
// intact span nesting).
func New(name string, workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{
		name:     name,
		workers:  workers,
		tasks:    obs.GetCounter(obs.Name("par_tasks_total", "pool", name)),
		taskErrs: obs.GetCounter(obs.Name("par_task_errors_total", "pool", name)),
		latency:  obs.Default.Metrics.Histogram(obs.Name("par_task_seconds", "pool", name), latencyBuckets),
	}
}

// Name returns the pool's phase name.
func (p *Pool) Name() string { return p.name }

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// run executes one task with instrumentation.
func run[T any](p *Pool, i int, fn func(i int) (T, error)) (T, error) {
	inflight.Add(1)
	start := time.Now()
	v, err := fn(i)
	p.latency.Observe(time.Since(start).Seconds())
	inflight.Add(-1)
	p.tasks.Inc()
	if err != nil {
		p.taskErrs.Inc()
	}
	return v, err
}

// MapCtx runs fn for every index in [0, n) with at most p.Workers() tasks in
// flight and returns the results in index order. With one worker (or one
// task) everything runs inline on the caller's goroutine — no spawn,
// identical span nesting to a serial loop.
//
// Cancellation is cooperative. Each task receives a context
// that is cancelled as soon as the parent ctx is, or as soon as any task
// fails — queued tasks that have not started are then skipped (their result
// slots keep the zero value), so one bad cell no longer pays for the whole
// grid.
//
// Because workers claim indices monotonically from one counter, every
// skipped index is higher than every claimed one; the lowest-index error is
// therefore identical to what a serial short-circuiting loop would report,
// and parallel error observation stays scheduling-independent. (A lower-index
// task already in flight may itself fail with ctx.Err() after a higher-index
// failure cancels the group; callers that propagate ctx into fn see a
// context error either way.) When no task fails but the parent ctx was
// cancelled, MapCtx returns ctx.Err() alongside the partial results.
func MapCtx[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, n)
	errs := make([]error, n)

	// Label the workers for CPU/goroutine profiles, so a pprof capture
	// attributes samples to the experiment phase (pool name) that spent them.
	labels := pprof.Labels("pool", p.name)

	if p.workers == 1 || n == 1 {
		var err error
		pprof.Do(ctx, labels, func(ctx context.Context) {
			for i := 0; i < n; i++ {
				if err = ctx.Err(); err != nil {
					return
				}
				results[i], errs[i] = run(p, i, func(i int) (T, error) { return fn(ctx, i) })
				if errs[i] != nil {
					err = errs[i]
					return
				}
			}
		})
		return results, err
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go pprof.Do(cctx, labels, func(cctx context.Context) {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = run(p, i, func(i int) (T, error) { return fn(cctx, i) })
				if errs[i] != nil {
					cancel()
					return
				}
			}
		})
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return results, err
	}
	return results, ctx.Err()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
