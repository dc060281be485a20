package cost

import (
	"context"
	"maps"
	"slices"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/sql"
)

// Process-wide delta-coster telemetry: how many per-query costings the delta
// filter performed vs skipped. The skip counter is the direct measure of the
// O(|W|) → O(affected) win.
var (
	costerRecosted = obs.GetCounter("cost_coster_recosted_total")
	costerReused   = obs.GetCounter("cost_coster_reused_total")
	costerSweeps   = obs.GetCounter("cost_coster_sweeps_total")
)

// WorkloadCoster is a delta-aware workload costing session over one fixed
// workload. It caches the per-query costs of the most recently costed index
// set (the anchor) and, when asked to cost a set differing from the anchor
// by ±k indexes, re-costs only the queries whose resolve-time
// referenced-column bitsets intersect the changed indexes' columns; every
// other per-query cost is provably unchanged and reused.
//
// Soundness: the cost model can route a query through an index only via a
// sargable predicate, a join key, an ORDER BY lead column, or a covering
// check — all of which require the query to reference at least one of the
// index's columns (DESIGN.md §12 states the invariant precisely). Hence a
// query whose referenced-column set is disjoint from every added and removed
// index's columns has a byte-identical plan and cost under both sets.
//
// Bit-exactness: reused costs are the same float64s a full sweep would
// obtain from the shared what-if cache, and the workload total is always
// re-folded left-to-right over the per-query costs, so totals carry the
// exact bits of WhatIf.WorkloadCost — the differential tests assert this
// with math.Float64bits.
//
// The delta filter is bypassed (every sweep is full, through the ordinary
// memoizing path) while the underlying oracle has a fault injector
// installed: noisy-cost and stale-stats perturbations are keyed by the full
// (query, index set) cache key, so a cost reused across set keys would
// diverge from the full sweep's perturbation.
//
// A WorkloadCoster is safe for concurrent use; all methods serialize on an
// internal mutex (the underlying WhatIf provides the cross-session
// concurrency). The workload slices must not be mutated while the session
// is live.
type WorkloadCoster struct {
	w       *WhatIf
	queries []*sql.Query
	freqs   []float64
	refSets []sql.ColSet // per-query referenced-column bitsets (resolve-time)

	mu        sync.Mutex
	anchored  bool
	anchorKey string           // interned canonical key of the anchor set
	anchor    map[string]Index // anchor members by interned single-index key
	perCost   []float64        // per-query costs under the anchor
	total     float64          // frequency-weighted total under the anchor

	baseValid bool
	base      float64 // memoized Cost(nil), for Reduction

	// scratch reused across Cost calls (guarded by mu)
	newKeys map[string]bool
	keybuf  []string
	changed sql.ColSet

	recosted int64
	reused   int64
	sweeps   int64
}

// CosterStats is a point-in-time view of one session's delta behaviour.
type CosterStats struct {
	Sweeps   int64 // Cost invocations that swept (anchor moved or was set)
	Recosted int64 // per-query costings performed
	Reused   int64 // per-query costings skipped by the column filter
}

// NewWorkloadCoster opens a delta costing session for the workload. The
// per-query referenced-column bitsets come from the resolve-time cache;
// unresolved queries get a fresh set computed here once.
func (w *WhatIf) NewWorkloadCoster(queries []*sql.Query, freqs []float64) *WorkloadCoster {
	c := &WorkloadCoster{
		w:       w,
		queries: queries,
		freqs:   freqs,
		refSets: make([]sql.ColSet, len(queries)),
		perCost: make([]float64, len(queries)),
		anchor:  make(map[string]Index, 8),
		newKeys: make(map[string]bool, 8),
	}
	for i, q := range queries {
		c.refSets[i] = q.ReferencedColumnSet()
	}
	return c
}

// Fork opens a new session over c's workload that starts at c's anchor:
// it shares the read-only workload and referenced-column sets, copies the
// anchor's per-query costs, total and memoized base, and keeps its own
// scratch and counters. A fork of a session anchored at ∅ stands where a
// fresh session stands after its ∅ sweep, without repeating the sweep. Its
// later sweeps return the bits a fresh session's would: the copied costs
// are the values the shared cache returned for the anchor, and by the
// soundness invariant (DESIGN.md §12.1) a delta from the anchor re-costs
// every query a full sweep could cost differently.
func (c *WorkloadCoster) Fork() *WorkloadCoster {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := &WorkloadCoster{
		w:         c.w,
		queries:   c.queries,
		freqs:     c.freqs,
		refSets:   c.refSets,
		anchored:  c.anchored,
		anchorKey: c.anchorKey,
		anchor:    make(map[string]Index, max(len(c.anchor), 8)),
		perCost:   slices.Clone(c.perCost),
		total:     c.total,
		baseValid: c.baseValid,
		base:      c.base,
		newKeys:   make(map[string]bool, 8),
	}
	maps.Copy(f.anchor, c.anchor)
	return f
}

// Stats reports this session's delta counters.
func (c *WorkloadCoster) Stats() CosterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CosterStats{Sweeps: c.sweeps, Recosted: c.recosted, Reused: c.reused}
}

// Cost returns the frequency-weighted workload cost under the index set,
// bit-identical to WhatIf.WorkloadCost on the same oracle.
func (c *WorkloadCoster) Cost(indexes []Index) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.costLocked(indexes, nil)
}

// CostPer is Cost and additionally copies the per-query costs into per
// (which must hold one slot per session query) when per is non-nil. The
// advisor episode loop uses it to maintain the per-query reward state of
// DRLindex (the inverse-cost kind of internal/advisor/dqn) without a second
// sweep.
func (c *WorkloadCoster) CostPer(indexes []Index, per []float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.costLocked(indexes, per)
	return t
}

func (c *WorkloadCoster) baseLocked() float64 {
	if !c.baseValid {
		c.base = c.costLocked(nil, nil)
		c.baseValid = true
	}
	return c.base
}

// Reduction returns the relative cost reduction 1 - c(W,d,I)/c(W,d,∅),
// bit-identical to WhatIf.Reduction for a fresh session (the base sweep is
// memoized after the first call; the memoized value itself is bit-identical
// because the underlying cache returns stable values).
func (c *WorkloadCoster) Reduction(indexes []Index) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.baseLocked()
	if base <= 0 {
		return 0
	}
	return 1 - c.costLocked(indexes, nil)/base
}

// CostCtx is Cost with trace correlation: a traced call records a
// "cost:workload-delta" child annotated with the sweep's recost/reuse
// breakdown. Untraced callers pay one nil check and take the exact Cost
// path.
func (c *WorkloadCoster) CostCtx(ctx context.Context, indexes []Index) float64 {
	parent := obs.SpanFrom(ctx)
	if parent == nil {
		return c.Cost(indexes)
	}
	sp := parent.StartChild("cost:workload-delta")
	defer sp.End()
	c.mu.Lock()
	r0, u0 := c.recosted, c.reused
	t := c.costLocked(indexes, nil)
	r1, u1 := c.recosted, c.reused
	c.mu.Unlock()
	sp.Annotate("queries", strconv.Itoa(len(c.queries)))
	sp.Annotate("indexes", strconv.Itoa(len(indexes)))
	sp.Annotate("recosted", strconv.FormatInt(r1-r0, 10))
	sp.Annotate("reused", strconv.FormatInt(u1-u0, 10))
	return t
}

// ReductionCtx is Reduction with trace correlation, the serving tier's
// traced sweep: a traced call records a "cost:reduction" span, annotated
// with the resulting reduction, whose "cost:workload-delta" child is the
// CostCtx sweep. Untraced callers take the exact Reduction path.
func (c *WorkloadCoster) ReductionCtx(ctx context.Context, indexes []Index) float64 {
	parent := obs.SpanFrom(ctx)
	if parent == nil {
		return c.Reduction(indexes)
	}
	sp := parent.StartChild("cost:reduction")
	defer sp.End()
	spCtx := obs.ContextWithSpan(ctx, sp)
	c.mu.Lock()
	base := c.baseLocked()
	c.mu.Unlock()
	red := 0.0
	if base > 0 {
		red = 1 - c.CostCtx(spCtx, indexes)/base
	}
	sp.Annotate("reduction", strconv.FormatFloat(red, 'g', -1, 64))
	return red
}

// costLocked is the delta sweep. Caller holds c.mu.
func (c *WorkloadCoster) costLocked(indexes []Index, per []float64) float64 {
	idxKey := internedIndexesKey(indexes)
	delta := c.anchored && c.w.faults == nil
	if delta && idxKey == c.anchorKey {
		// Identical set: the anchor state is the answer.
		if per != nil {
			copy(per, c.perCost)
		}
		c.reused += int64(len(c.queries))
		costerReused.Add(int64(len(c.queries)))
		return c.total
	}
	c.sweeps++
	costerSweeps.Inc()

	if delta {
		c.computeChanged(indexes)
	}

	var recosted, reused int64
	for i, q := range c.queries {
		if delta && !c.refSets[i].Intersects(c.changed) {
			reused++
			continue
		}
		c.perCost[i] = c.w.queryCost(q, indexes, idxKey)
		recosted++
	}
	c.recosted += recosted
	c.reused += reused
	costerRecosted.Add(recosted)
	costerReused.Add(reused)

	// Re-fold the total left-to-right over the per-query costs: identical
	// values in identical order give the exact bits of a full sweep's
	// running sum.
	total := 0.0
	for i, v := range c.perCost {
		f := 1.0
		if c.freqs != nil {
			f = c.freqs[i]
		}
		total += f * v
	}

	// Move the anchor to the newly costed set.
	clear(c.anchor)
	for i := range indexes {
		c.anchor[internedIndexKey(indexes[i])] = indexes[i]
	}
	c.anchorKey = idxKey
	c.anchored = true
	c.total = total
	if per != nil {
		copy(per, c.perCost)
	}
	return total
}

// computeChanged fills c.changed with the union of the columns of every
// index in the symmetric difference between the anchor set and indexes.
func (c *WorkloadCoster) computeChanged(indexes []Index) {
	c.changed.Reset()
	clear(c.newKeys)
	c.keybuf = c.keybuf[:0]
	for i := range indexes {
		k := internedIndexKey(indexes[i])
		c.keybuf = append(c.keybuf, k)
		c.newKeys[k] = true
		if _, inAnchor := c.anchor[k]; !inAnchor {
			c.changed.UnionWith(indexColSet(indexes[i], k))
		}
	}
	for k, ix := range c.anchor {
		if !c.newKeys[k] {
			c.changed.UnionWith(indexColSet(ix, k))
		}
	}
}
