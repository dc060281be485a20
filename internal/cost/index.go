// Package cost implements the what-if optimizer cost model: given a query,
// a schema, and a (possibly hypothetical) set of indexes, it chooses access
// paths, join order and post-processing, and estimates an execution cost in
// abstract page/CPU units.
//
// This package stands in for PostgreSQL's planner plus the HypoPG-style
// hypothetical-index extension that the paper's testbed relies on. Every
// PIPA quantity — the performance baseline c_b (Def. 2.2), the degradation
// metrics AD/RD (Defs. 2.3/2.5), the probing reward R̂ (Eq. 7) and the
// injection filter (Alg. 2 line 4) — is a function of the cost surface
// c(W, d, I) exposed here.
package cost

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sql"
)

// Index is a (possibly hypothetical) B-tree index: an ordered list of
// qualified column names from a single table, the first column being the
// primary sort key. Single-column indexes are what PIPA probes; advisors may
// recommend multi-column indexes.
type Index struct {
	Columns []string // qualified "table.column", prefix order
}

// NewIndex builds an index over the given qualified columns. It panics if
// the columns are empty or span multiple tables — indexes are per-table by
// construction everywhere in this codebase, so this is a programmer error.
func NewIndex(columns ...string) Index {
	if len(columns) == 0 {
		panic("cost: index with no columns")
	}
	t := sql.TableOf(columns[0])
	if t == "" {
		panic(fmt.Sprintf("cost: unqualified index column %q", columns[0]))
	}
	for _, c := range columns[1:] {
		if sql.TableOf(c) != t {
			panic(fmt.Sprintf("cost: index spans tables %s and %s", t, sql.TableOf(c)))
		}
	}
	return Index{Columns: append([]string(nil), columns...)}
}

// Table returns the indexed table's name.
func (ix Index) Table() string { return sql.TableOf(ix.Columns[0]) }

// Key returns a canonical identifier, e.g. "lineitem(l_partkey,l_suppkey)".
func (ix Index) Key() string {
	short := make([]string, len(ix.Columns))
	for i, c := range ix.Columns {
		if j := strings.IndexByte(c, '.'); j >= 0 {
			short[i] = c[j+1:]
		} else {
			short[i] = c
		}
	}
	return ix.Table() + "(" + strings.Join(short, ",") + ")"
}

// LeadColumn returns the first (primary) column of the index. The paper's
// probing stage reasons about multi-column indexes through their lead column
// (§4.1): "the indexing performance of a multi-column index is primarily
// related to the first single-column index".
func (ix Index) LeadColumn() string { return ix.Columns[0] }

// IndexSet is a collection of indexes with set semantics keyed on Key().
type IndexSet struct {
	m     map[string]Index
	order []string
}

// NewIndexSet builds a set from the given indexes, deduplicating.
func NewIndexSet(indexes ...Index) *IndexSet {
	s := &IndexSet{m: make(map[string]Index, len(indexes))}
	for _, ix := range indexes {
		s.Add(ix)
	}
	return s
}

// Add inserts an index if not already present and reports whether it was new.
func (s *IndexSet) Add(ix Index) bool {
	k := ix.Key()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = ix
	s.order = append(s.order, k)
	return true
}

// Remove deletes an index and reports whether it was present.
func (s *IndexSet) Remove(ix Index) bool {
	k := ix.Key()
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	for i, key := range s.order {
		if key == k {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return true
}

// Contains reports membership.
func (s *IndexSet) Contains(ix Index) bool { _, ok := s.m[ix.Key()]; return ok }

// Len returns the number of indexes.
func (s *IndexSet) Len() int { return len(s.order) }

// Slice returns the indexes in insertion order.
func (s *IndexSet) Slice() []Index {
	out := make([]Index, len(s.order))
	for i, k := range s.order {
		out[i] = s.m[k]
	}
	return out
}

// Key returns a canonical identifier for the whole set (sorted member keys),
// used for what-if memoization.
func (s *IndexSet) Key() string {
	keys := append([]string(nil), s.order...)
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// Clone returns an independent copy of the set.
func (s *IndexSet) Clone() *IndexSet { return NewIndexSet(s.Slice()...) }
