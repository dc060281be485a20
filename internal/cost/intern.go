package cost

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/sql"
)

// String interning for the what-if hot path. Index-set keys are re-derived
// on every workload sweep and every cache probe; interning them means the
// canonical string for a given set is materialized once per process and
// every later derivation is a read-locked map probe against a stack byte
// buffer — zero allocations. No unsafe: lookups rely on Go's map[string]
// optimization for string([]byte) index expressions.
//
// Lifetime rule: interned strings live for the process. Both tables are
// bounded (internCap) — the universe of distinct index sets an advisor
// enumerates is tiny, but a long-lived serving daemon must not leak if an
// adversarial workload manufactures novelty, so past the cap the table stops
// growing and hands back ordinary heap copies instead.
const internCap = 1 << 18

// internTable is an unsafe-free string interning table.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

func newInternTable() *internTable {
	return &internTable{m: make(map[string]string, 256)}
}

// bytes returns the canonical string equal to b, interning it on first
// sight. The common path (already interned) does not allocate.
func (t *internTable) bytes(b []byte) string {
	t.mu.RLock()
	s, ok := t.m[string(b)] // non-allocating map probe
	t.mu.RUnlock()
	if ok {
		return s
	}
	return t.str(string(b))
}

// str returns the canonical string equal to s, interning s on first sight.
func (t *internTable) str(s string) string {
	t.mu.RLock()
	c, ok := t.m[s]
	t.mu.RUnlock()
	if ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok = t.m[s]; ok {
		return c
	}
	if len(t.m) < internCap {
		t.m[s] = s
	}
	return s
}

var (
	// idxKeyIntern canonicalizes index and index-set keys.
	idxKeyIntern = newInternTable()

	// idxColSets caches the interned-column bitset of a single index, keyed
	// by its interned key. Guarded by its own lock; bounded like the intern
	// tables (misses past the cap recompute, never corrupt).
	idxColSetsMu sync.RWMutex
	idxColSets   = make(map[string]sql.ColSet, 256)

	// keyBufPool holds reusable byte buffers for key construction, and a
	// small string slice for sorting multi-index set keys.
	keyBufPool = sync.Pool{New: func() any {
		return &keyBuf{buf: make([]byte, 0, 256), keys: make([]string, 0, 8)}
	}}
)

type keyBuf struct {
	buf  []byte
	keys []string
}

// appendIndexKey appends ix.Key()'s rendering ("table(col1,col2)") to b
// without intermediate allocations.
func appendIndexKey(b []byte, ix Index) []byte {
	b = append(b, ix.Table()...)
	b = append(b, '(')
	for i, c := range ix.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		if j := strings.IndexByte(c, '.'); j >= 0 {
			c = c[j+1:]
		}
		b = append(b, c...)
	}
	return append(b, ')')
}

// internedIndexKey returns the canonical (interned) Key() of one index.
// Zero allocations once the key has been seen.
func internedIndexKey(ix Index) string {
	kb := keyBufPool.Get().(*keyBuf)
	kb.buf = appendIndexKey(kb.buf[:0], ix)
	s := idxKeyIntern.bytes(kb.buf)
	keyBufPool.Put(kb)
	return s
}

// internedIndexesKey canonicalizes an index list exactly like IndexSet.Key
// (sorted member keys joined by ';'), returning the interned string. The
// set key for a given index set is thereby computed once per process and
// shared across cache shards and callers — repeat derivations are
// allocation-free map probes.
func internedIndexesKey(indexes []Index) string {
	switch len(indexes) {
	case 0:
		return ""
	case 1:
		return internedIndexKey(indexes[0])
	}
	kb := keyBufPool.Get().(*keyBuf)
	keys := kb.keys[:0]
	for _, ix := range indexes {
		keys = append(keys, internedIndexKey(ix))
	}
	sort.Strings(keys)
	b := kb.buf[:0]
	for i, k := range keys {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(b, k...)
	}
	kb.buf, kb.keys = b, keys
	s := idxKeyIntern.bytes(kb.buf)
	keyBufPool.Put(kb)
	return s
}

// indexColSet returns the interned-column bitset of ix, cached under its
// interned key. The result is read-only shared state.
func indexColSet(ix Index, key string) sql.ColSet {
	idxColSetsMu.RLock()
	s, ok := idxColSets[key]
	idxColSetsMu.RUnlock()
	if ok {
		return s
	}
	s = sql.ColSetOf(ix.Columns...)
	idxColSetsMu.Lock()
	if cached, ok := idxColSets[key]; ok {
		s = cached
	} else if len(idxColSets) < internCap {
		idxColSets[key] = s
	}
	idxColSetsMu.Unlock()
	return s
}
