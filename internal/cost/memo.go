package cost

import "repro/internal/sql"

// Memo is a private what-if memo for one verification loop: IABART costs
// each candidate query here, and most candidates are rejected. Only the
// query the loop returns is published into the shared cache, so rejected
// candidates never occupy it. A Memo is not safe for concurrent use; make
// one per loop with WhatIf.NewMemo and drop it when the loop returns.
//
// A miss plans through Model.QueryCost, the same call a clean WhatIf makes
// on its own miss, so a memo cost is bit-identical to the shared one. The
// memo never reads the shared cache: whether another cell has already
// inserted a key depends on scheduling, and a plan skipped on such a hit
// would make the plan counters depend on -workers.
type Memo struct {
	w *WhatIf
	// vals holds every key the loop costed, nil when the memo is bypassed.
	vals map[cacheKey]float64
}

// NewMemo returns an empty memo over w. On a chaos-wrapped oracle
// (EnableFaults) or one with a test cost hook the memo is a pass-through to
// w: noisy costs and breaker state key on the call order and the full
// composite key, so those calls keep the shared path.
func (w *WhatIf) NewMemo() *Memo {
	m := &Memo{w: w}
	if w.faults == nil && w.costFn == nil {
		m.vals = make(map[cacheKey]float64)
	}
	return m
}

// QueryCost returns the cost of q under the index set, planning it on the
// memo's first sight of the pair. It leaves the shared cache and its
// counters untouched.
func (m *Memo) QueryCost(q *sql.Query, indexes []Index) float64 {
	if m.vals == nil {
		return m.w.QueryCost(q, indexes)
	}
	key := cacheKey{q.Fingerprint(), internedIndexesKey(indexes)}
	if v, ok := m.vals[key]; ok {
		return v
	}
	v := m.w.Model.QueryCost(q, indexes)
	m.vals[key] = v
	return v
}

// Publish moves q's entries from the memo into the shared cache. Each key
// counts as one shared call: a hit when the key is cached or in flight,
// otherwise a miss and an insert. So the shared counters do not depend on
// which of two concurrent cells publishes a query first.
func (m *Memo) Publish(q *sql.Query) {
	fp := q.Fingerprint()
	for key, v := range m.vals {
		if key.fp == fp {
			m.w.publish(key, v)
			delete(m.vals, key)
		}
	}
}

// publish is one counted shared call that inserts a cost computed
// elsewhere.
func (w *WhatIf) publish(key cacheKey, v float64) {
	sh := &w.shards[shardOf(key)]
	w.calls.Add(1)
	whatifCalls.Inc()
	fp := w.fps.str(key.fp)
	sh.mu.Lock()
	_, cached := sh.cache[key]
	_, inFlight := sh.flight[key]
	if !cached && !inFlight {
		sh.cache[cacheKey{fp, key.set}] = v
		sh.mu.Unlock()
		w.entries.Add(1)
		whatifSize.Add(1)
		return
	}
	sh.mu.Unlock()
	w.hits.Add(1)
	whatifHits.Inc()
}
