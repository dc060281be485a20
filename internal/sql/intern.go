package sql

import "sync"

// Column interning: qualified column names are mapped to dense process-wide
// integer IDs so hot paths (the what-if delta coster) can represent "the set
// of columns this query references" as a small bitset and test intersection
// with an index's columns in a handful of word ANDs instead of string-set
// operations.
//
// IDs are assigned in first-intern order, which depends on goroutine
// interleaving — they are NOT stable across runs. That is sound for every
// current use because bitsets are only ever compared by intersection /
// membership, never by numeric order: any ID assignment yields the same
// boolean answers. Nothing value-bearing may ever be derived from the raw ID.

// ColID is a dense process-wide identifier for a qualified column name.
type ColID uint32

var colIntern = struct {
	sync.RWMutex
	ids map[string]ColID
}{ids: make(map[string]ColID, 256)}

// InternColumn returns the process-wide dense ID for a qualified column
// name, assigning the next free ID on first sight. Safe for concurrent use.
func InternColumn(name string) ColID {
	colIntern.RLock()
	id, ok := colIntern.ids[name]
	colIntern.RUnlock()
	if ok {
		return id
	}
	colIntern.Lock()
	defer colIntern.Unlock()
	if id, ok = colIntern.ids[name]; ok {
		return id
	}
	id = ColID(len(colIntern.ids))
	colIntern.ids[name] = id
	return id
}

// ColSet is a bitset over interned column IDs. The zero value is the empty
// set. Word count grows on demand; sets are tiny (one or two words for any
// realistic schema).
type ColSet []uint64

// Add inserts a column ID, growing the set as needed.
func (s *ColSet) Add(id ColID) {
	w := int(id >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (id & 63)
}

// Intersects reports whether the two sets share any column.
func (s ColSet) Intersects(o ColSet) bool {
	n := len(s)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// UnionWith adds every member of o to s.
func (s *ColSet) UnionWith(o ColSet) {
	for len(*s) < len(o) {
		*s = append(*s, 0)
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

// Reset empties the set, keeping its capacity for reuse.
func (s *ColSet) Reset() {
	for i := range *s {
		(*s)[i] = 0
	}
}

// ColSetOf interns the given qualified column names and returns their set.
func ColSetOf(names ...string) ColSet {
	var s ColSet
	for _, n := range names {
		s.Add(InternColumn(n))
	}
	return s
}

// ReferencedColumnSet returns the interned-column bitset of every qualified
// column the query references anywhere (the ColSet form of
// ReferencedColumns). Resolve caches it on the query; unresolved queries get
// a fresh set that is never stored, so concurrent costing of an unresolved
// query stays race-free. Callers must treat the returned set as read-only.
//
// Soundness note for delta costing: a SELECT * only widens the covering test
// (which no index passes for star queries — see cost.referencedColumnsOf's
// sentinel), so the explicit columns collected here are exactly the columns
// through which any index can influence this query's plan.
func (q *Query) ReferencedColumnSet() ColSet {
	if q.refSet != nil {
		return q.refSet
	}
	return ColSetOf(q.ReferencedColumns()...)
}
