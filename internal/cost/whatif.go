package cost

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sql"
)

// Cached handles into the process-wide metrics registry; a single atomic
// add per event keeps the what-if hot path cheap. The entries gauge tracks
// the level with atomic deltas — it is never recomputed under a lock.
var (
	whatifCalls  = obs.GetCounter("cost_whatif_calls_total")
	whatifHits   = obs.GetCounter("cost_whatif_hits_total")
	whatifShared = obs.GetCounter("cost_whatif_flight_waits_total")
	whatifEvicts = obs.GetCounter("cost_whatif_evictions_total")
	whatifSize   = obs.GetGauge("cost_whatif_entries")
	// whatifFallbacks counts fallback-cost decisions: calls answered by the
	// heuristic FallbackCost because the breaker was open or retries ran out.
	whatifFallbacks = obs.GetCounter("cost_whatif_fallbacks_total")
)

// numShards partitions the cache by key hash so concurrent trials contend on
// different locks. Power of two; 64 keeps per-shard maps small at ScaleFull
// while costing ~3KB of empty shards per instance.
const numShards = 64

// shard is one lock domain of the cache. flight holds the in-progress
// computations for singleflight miss deduplication: concurrent misses on the
// same key compute the plan once and share the result.
type shard struct {
	mu     sync.Mutex
	cache  map[cacheKey]float64
	flight map[cacheKey]*flightCall
}

// cacheKey identifies one (query, index set) pair. fp is the query's
// Fingerprint, cached on the resolved Query and shared with it; set is the
// interned index-set key. An entry therefore holds two string headers and
// no copy of the SQL text.
type cacheKey struct{ fp, set string }

// String renders the key as "<fp>|<set>" ("<fp>" for the empty set), the
// site key the chaos layer hashes its fault decisions on.
func (k cacheKey) String() string {
	if k.set == "" {
		return k.fp
	}
	return k.fp + "|" + k.set
}

// flightCall is one in-progress model computation; done is closed once val
// is set.
type flightCall struct {
	done chan struct{}
	val  float64
}

// WhatIf memoizes what-if optimizer calls. Advisors re-cost the same
// (query, index set) pairs thousands of times during training; this cache
// plays the role of the hypothetical-index call layer in the paper's testbed.
// It is safe for concurrent use: the cache is sharded numShards ways by key
// hash with per-shard locks, keys share the query fingerprint cached at
// resolve time instead of re-rendering or copying the SQL, and concurrent
// misses on one key are deduplicated singleflight-style.
//
// MaxEntries bounds the cache (0 = unbounded). When full, an arbitrary
// entry is evicted; eviction only affects recomputation, never values, so
// experiments stay deterministic.
type WhatIf struct {
	Model      *Model
	MaxEntries int

	shards  [numShards]shard
	calls   atomic.Int64
	hits    atomic.Int64
	evicts  atomic.Int64
	entries atomic.Int64

	// costFn overrides Model.QueryCost in tests (to count or delay
	// computations); nil means the real model.
	costFn func(*sql.Query, []Index) float64

	// Chaos-layer state, installed by EnableFaults; all nil/zero (and the
	// fault path entirely skipped) on a clean oracle.
	faults    *fault.Injector
	breaker   *fault.Breaker
	retry     fault.RetryPolicy
	retries   atomic.Int64
	giveups   atomic.Int64
	fallbacks atomic.Int64
}

// FaultStats is a point-in-time view of this oracle's resilience telemetry
// (per-instance mirrors of the process-wide fault_* / cost_whatif_fallbacks
// obs counters, so parallel experiment cells can attribute their own).
type FaultStats struct {
	Injected  int64 // faults fired by this oracle's injector, all kinds
	Retries   int64 // extra model attempts caused by transient errors
	Giveups   int64 // calls whose retries ran out
	Trips     int64 // breaker Closed/HalfOpen → Open transitions
	Fallbacks int64 // calls answered by the heuristic FallbackCost
}

// EnableFaults routes every cache miss through the chaos layer: latency
// spikes stall on the injector's clock, transient errors are retried with
// backoff, persistent failure trips a circuit breaker to the heuristic
// FallbackCost model, and surviving estimates are perturbed
// deterministically (noisy-cost / stale-stats faults). The injector's clock
// drives backoff and breaker cooldown, so a VirtualClock keeps degraded
// experiments byte-identical. Call before first use; passing nil disables
// the layer again.
func (w *WhatIf) EnableFaults(f *fault.Injector) {
	w.faults = f
	if f == nil {
		w.breaker = nil
		return
	}
	w.retry = fault.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    16 * time.Millisecond,
		Budget:      100 * time.Millisecond,
		Seed:        f.Seed(),
		Clock:       f.Clock(),
	}
	w.breaker = fault.NewBreaker(3, 200*time.Millisecond, f.Clock())
}

// Faults returns the installed injector (nil on a clean oracle).
func (w *WhatIf) Faults() *fault.Injector { return w.faults }

// FaultStats reports this oracle's resilience telemetry.
func (w *WhatIf) FaultStats() FaultStats {
	st := FaultStats{
		Injected:  w.faults.FiredTotal(),
		Retries:   w.retries.Load(),
		Giveups:   w.giveups.Load(),
		Fallbacks: w.fallbacks.Load(),
	}
	if w.breaker != nil {
		st.Trips = w.breaker.Trips()
	}
	return st
}

// CacheStats is a point-in-time view of the what-if cache.
type CacheStats struct {
	Calls     int64
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// HitRate returns hits/calls, or 0 before any call.
func (s CacheStats) HitRate() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Calls)
}

// NewWhatIf wraps a model with an unbounded cache.
func NewWhatIf(m *Model) *WhatIf {
	w := &WhatIf{Model: m}
	for i := range w.shards {
		w.shards[i].cache = make(map[cacheKey]float64)
		w.shards[i].flight = make(map[cacheKey]*flightCall)
	}
	return w
}

// QueryCost returns the memoized cost of q under the index set.
func (w *WhatIf) QueryCost(q *sql.Query, indexes []Index) float64 {
	return w.queryCost(q, indexes, internedIndexesKey(indexes))
}

// costKind classifies how one queryCost call was answered, for trace
// annotations. Fallback decisions are a property of the compute path, not
// the cache, and are tracked separately via the fallbacks counter.
type costKind uint8

const (
	costMiss   costKind = iota // computed here
	costHit                    // served from the cache
	costShared                 // waited on another goroutine's computation
)

// queryCost is QueryCost with the index part of the key precomputed, so
// workload-level callers canonicalize the index set once, not per query.
func (w *WhatIf) queryCost(q *sql.Query, indexes []Index, idxKey string) float64 {
	c, _ := w.queryCostKind(q, indexes, idxKey)
	return c
}

// queryCostKind is queryCost plus a classification of how the call was
// answered, so traced workload costing can attribute cache behaviour without
// touching the untraced hot path.
func (w *WhatIf) queryCostKind(q *sql.Query, indexes []Index, idxKey string) (float64, costKind) {
	// The key's parts are the query's cached fingerprint and the interned
	// set key, so neither a hit nor a miss builds a key.
	key := cacheKey{q.Fingerprint(), idxKey}
	sh := &w.shards[shardOf(key)]

	w.calls.Add(1)
	whatifCalls.Inc()
	sh.mu.Lock()
	if c, ok := sh.cache[key]; ok {
		sh.mu.Unlock()
		w.hits.Add(1)
		whatifHits.Inc()
		return c, costHit
	}
	if fl, ok := sh.flight[key]; ok {
		// Someone is already computing this plan: wait and share.
		sh.mu.Unlock()
		<-fl.done
		w.hits.Add(1)
		whatifHits.Inc()
		whatifShared.Inc()
		return fl.val, costShared
	}
	fl := &flightCall{done: make(chan struct{})}
	sh.flight[key] = fl
	sh.mu.Unlock()

	if w.costFn != nil {
		fl.val = w.costFn(q, indexes)
	} else if w.faults == nil {
		fl.val = w.Model.QueryCost(q, indexes)
	} else {
		fl.val = w.computeFaulty(q, indexes, key.String())
	}

	// Respect the bound before inserting. Never holds two shard locks at
	// once, so eviction cannot deadlock with concurrent inserts.
	if w.MaxEntries > 0 {
		for w.entries.Load() >= int64(w.MaxEntries) {
			if !w.evictOne(sh) {
				break
			}
		}
	}

	sh.mu.Lock()
	delete(sh.flight, key)
	if _, ok := sh.cache[key]; !ok {
		sh.cache[key] = fl.val
		w.entries.Add(1)
		whatifSize.Add(1)
	}
	sh.mu.Unlock()
	close(fl.done)
	return fl.val, costMiss
}

// computeFaulty is the cache-miss compute path under chaos: stall on an
// injected latency spike, gate on the breaker, retry transient errors with
// backoff, fall back to the heuristic model on persistent failure, and
// perturb surviving estimates deterministically. Breaker state depends on
// call order, so deterministic experiments keep one oracle per serial cell.
func (w *WhatIf) computeFaulty(q *sql.Query, indexes []Index, key string) float64 {
	w.faults.Delay("whatif", key)
	if w.breaker != nil && !w.breaker.Allow() {
		w.fallbacks.Add(1)
		whatifFallbacks.Inc()
		return FallbackCost(w.Model, q, indexes)
	}
	var v float64
	err := fault.Retry(context.Background(), w.retry, key, func(attempt int) error {
		if attempt > 0 {
			w.retries.Add(1)
		}
		if w.faults.Hit(fault.TransientErr, "whatif", key, attempt) {
			return fault.ErrTransient
		}
		v = w.Model.QueryCost(q, indexes)
		return nil
	})
	if err != nil {
		w.giveups.Add(1)
		if w.breaker != nil {
			w.breaker.Failure()
		}
		w.fallbacks.Add(1)
		whatifFallbacks.Inc()
		return FallbackCost(w.Model, q, indexes)
	}
	if w.breaker != nil {
		w.breaker.Success()
	}
	return w.faults.Perturb("whatif", key, v)
}

// evictOne removes one arbitrary entry, preferring the given shard, and
// reports whether anything was evicted. Locks one shard at a time.
func (w *WhatIf) evictOne(prefer *shard) bool {
	victim := func(sh *shard) bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for k := range sh.cache { // arbitrary victim; see type comment
			delete(sh.cache, k)
			w.entries.Add(-1)
			w.evicts.Add(1)
			whatifEvicts.Inc()
			whatifSize.Add(-1)
			return true
		}
		return false
	}
	if victim(prefer) {
		return true
	}
	for i := range w.shards {
		if sh := &w.shards[i]; sh != prefer && victim(sh) {
			return true
		}
	}
	return false
}

// WorkloadCost sums frequency-weighted memoized query costs. The index-set
// key is derived (and interned) once for the whole sweep and shared across
// shards. For repeated sweeps over a fixed workload with small index-set
// deltas, prefer a WorkloadCoster session — it re-costs only affected
// queries (see coster.go).
func (w *WhatIf) WorkloadCost(queries []*sql.Query, freqs []float64, indexes []Index) float64 {
	idxKey := internedIndexesKey(indexes)
	total := 0.0
	for i, q := range queries {
		f := 1.0
		if freqs != nil {
			f = freqs[i]
		}
		total += f * w.queryCost(q, indexes, idxKey)
	}
	return total
}

// WorkloadCostCtx is WorkloadCost with trace correlation: when ctx carries a
// request-scoped span (obs.SpanFrom) it wraps the sweep in a "cost:workload"
// child annotated with the cache-behaviour breakdown (hits, misses,
// singleflight waits, fallback decisions). Untraced callers pay one nil
// check and take the exact WorkloadCost path.
func (w *WhatIf) WorkloadCostCtx(ctx context.Context, queries []*sql.Query, freqs []float64, indexes []Index) float64 {
	parent := obs.SpanFrom(ctx)
	if parent == nil {
		return w.WorkloadCost(queries, freqs, indexes)
	}
	sp := parent.StartChild("cost:workload")
	defer sp.End()

	idxKey := internedIndexesKey(indexes)
	var hits, misses, shared int64
	fb0 := w.fallbacks.Load()
	total := 0.0
	for i, q := range queries {
		f := 1.0
		if freqs != nil {
			f = freqs[i]
		}
		c, kind := w.queryCostKind(q, indexes, idxKey)
		switch kind {
		case costHit:
			hits++
		case costShared:
			shared++
		default:
			misses++
		}
		total += f * c
	}
	sp.Annotate("queries", strconv.Itoa(len(queries)))
	sp.Annotate("indexes", strconv.Itoa(len(indexes)))
	sp.Annotate("cache_hits", strconv.FormatInt(hits, 10))
	sp.Annotate("cache_misses", strconv.FormatInt(misses, 10))
	sp.Annotate("flight_waits", strconv.FormatInt(shared, 10))
	sp.Annotate("fallbacks", strconv.FormatInt(w.fallbacks.Load()-fb0, 10))
	return total
}

// Reduction returns the relative cost reduction 1 - c(W,d,I)/c(W,d,∅), the
// reward quantity most learned advisors and PIPA's probing stage use (Eq. 7).
func (w *WhatIf) Reduction(queries []*sql.Query, freqs []float64, indexes []Index) float64 {
	base := w.WorkloadCost(queries, freqs, nil)
	if base <= 0 {
		return 0
	}
	return 1 - w.WorkloadCost(queries, freqs, indexes)/base
}

// ReductionCtx is Reduction with trace correlation: a traced call records a
// "cost:reduction" span whose children break down the base and hypothetical
// workload sweeps, annotated with the resulting reduction. Untraced callers
// take the exact Reduction path.
func (w *WhatIf) ReductionCtx(ctx context.Context, queries []*sql.Query, freqs []float64, indexes []Index) float64 {
	parent := obs.SpanFrom(ctx)
	if parent == nil {
		return w.Reduction(queries, freqs, indexes)
	}
	sp := parent.StartChild("cost:reduction")
	defer sp.End()
	spCtx := obs.ContextWithSpan(ctx, sp)
	base := w.WorkloadCostCtx(spCtx, queries, freqs, nil)
	red := 0.0
	if base > 0 {
		red = 1 - w.WorkloadCostCtx(spCtx, queries, freqs, indexes)/base
	}
	sp.Annotate("reduction", strconv.FormatFloat(red, 'g', -1, 64))
	return red
}

// Stats reports total calls and cache hits.
func (w *WhatIf) Stats() (calls, hits int64) {
	return w.calls.Load(), w.hits.Load()
}

// CacheStats reports the full cache counters.
func (w *WhatIf) CacheStats() CacheStats {
	calls, hits := w.calls.Load(), w.hits.Load()
	return CacheStats{
		Calls:     calls,
		Hits:      hits,
		Misses:    calls - hits,
		Evictions: w.evicts.Load(),
		Entries:   int(w.entries.Load()),
	}
}

// shardOf hashes key.String() to its shard (FNV-1a, masked) without
// building the string.
func shardOf(key cacheKey) uint32 {
	const offset32 = 2166136261
	h := fnv1a(offset32, key.fp)
	if key.set != "" {
		h = fnv1a(fnv1a(h, "|"), key.set)
	}
	return h & (numShards - 1)
}

func fnv1a(h uint32, s string) uint32 {
	const prime32 = 16777619
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
