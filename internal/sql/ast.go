// Package sql implements the analytic SQL dialect used throughout the PIPA
// reproduction: an AST, a lexer, a recursive-descent parser, and a
// deterministic printer.
//
// The dialect covers the query shapes the TPC-H/TPC-DS-style workloads and
// the FSM query generator produce: SELECT with aggregates, multi-table FROM
// with equi-joins, conjunctive WHERE predicates (comparison, BETWEEN, IN),
// GROUP BY, ORDER BY and LIMIT. Literal values are dictionary codes (int64) —
// the storage engine dictionary-encodes every column, so a literal 42 in a
// predicate on a CHAR column denotes the 42nd dictionary entry. String
// literals in input text are folded to deterministic codes by the lexer.
package sql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CompareOp is a predicate comparison operator.
type CompareOp int

const (
	OpEq      CompareOp = iota // =
	OpNe                       // <>
	OpLt                       // <
	OpLe                       // <=
	OpGt                       // >
	OpGe                       // >=
	OpBetween                  // BETWEEN lo AND hi
	OpIn                       // IN (v1, ..., vk)
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// Sargable reports whether a predicate with this operator can be answered by
// a B-tree index probe or range scan ("search-argument-able"). <> cannot.
func (op CompareOp) Sargable() bool { return op != OpNe }

// Predicate is one conjunct of a WHERE clause: Column op value(s).
type Predicate struct {
	Column string // qualified "table.column"
	Op     CompareOp
	Value  int64   // comparison value; lo bound for BETWEEN
	Hi     int64   // hi bound for BETWEEN
	Values []int64 // IN list
}

// String renders the predicate in SQL.
func (p Predicate) String() string {
	switch p.Op {
	case OpBetween:
		return fmt.Sprintf("%s BETWEEN %d AND %d", p.Column, p.Value, p.Hi)
	case OpIn:
		parts := make([]string, len(p.Values))
		for i, v := range p.Values {
			parts[i] = strconv.FormatInt(v, 10)
		}
		return fmt.Sprintf("%s IN (%s)", p.Column, strings.Join(parts, ", "))
	default:
		return fmt.Sprintf("%s %s %d", p.Column, p.Op, p.Value)
	}
}

// AggFunc is an aggregate function in the SELECT list.
type AggFunc int

const (
	AggNone AggFunc = iota // plain column reference
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// SelectItem is one output expression: a column, an aggregate over a column,
// or COUNT(*) (Star true).
type SelectItem struct {
	Agg    AggFunc
	Column string
	Star   bool
}

// String renders the item in SQL.
func (si SelectItem) String() string {
	if si.Star {
		if si.Agg == AggCount {
			return "COUNT(*)"
		}
		return "*"
	}
	if si.Agg == AggNone {
		return si.Column
	}
	return fmt.Sprintf("%s(%s)", si.Agg, si.Column)
}

// Join is an equi-join condition Left = Right between two qualified columns.
type Join struct {
	Left  string
	Right string
}

// OrderItem is one ORDER BY expression.
type OrderItem struct {
	Column string
	Desc   bool
}

// Query is the root of a parsed statement.
type Query struct {
	Select  []SelectItem
	Tables  []string // FROM list, table names
	Joins   []Join   // equi-join conditions
	Where   []Predicate
	GroupBy []string
	OrderBy []OrderItem
	Limit   int // 0 means no LIMIT

	// fp caches the canonical rendering, set by Resolve once the query is
	// final. Composition mutates queries freely before resolving; everything
	// downstream (costing, memoization) treats a resolved query as immutable,
	// so the cached text stays valid. Clone deliberately drops it.
	fp string
	// fpHash is the FNV-1a state after fp's bytes, set and dropped with fp,
	// so the what-if cache's shard hash never walks the text again.
	fpHash uint32

	// refCols / refSet cache ReferencedColumns and its interned bitset, set
	// by Resolve under the same immutability contract as fp. The planner's
	// covering test and the what-if delta coster read them on every plan, so
	// neither may be recomputed per call. Clone drops both.
	refCols []string
	refSet  ColSet
}

// String renders the query as canonical SQL text. Parsing the result yields
// an equal Query (round-trip property, tested).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		for i, si := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(si.String())
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	conds := make([]string, 0, len(q.Joins)+len(q.Where))
	for _, j := range q.Joins {
		conds = append(conds, j.Left+" = "+j.Right)
	}
	for _, p := range q.Where {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Column)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// Fingerprint returns the canonical SQL text as a memoization key: the
// rendering cached by Resolve when available, a fresh rendering otherwise
// (never stored, so unresolved queries stay race-free under concurrent
// costing). The what-if cache keys on this instead of re-rendering the query
// on every lookup.
func (q *Query) Fingerprint() string {
	if q.fp != "" {
		return q.fp
	}
	return q.String()
}

// FingerprintHash returns the 32-bit FNV-1a hash of Fingerprint: the state
// cached by Resolve when available, computed afresh otherwise (never
// stored, like an unresolved query's fingerprint). The what-if cache
// continues it over the index-set part of its key.
func (q *Query) FingerprintHash() uint32 {
	if q.fp != "" {
		return q.fpHash
	}
	return FNV1a(FNVOffset, q.String())
}

// FNVOffset is the 32-bit FNV-1a offset basis, the state of the empty
// string.
const FNVOffset uint32 = 2166136261

// FNV1a continues the 32-bit FNV-1a state h over the bytes of s.
func FNV1a(h uint32, s string) uint32 {
	const prime32 = 16777619
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// FilterColumns returns the distinct qualified columns referenced by WHERE
// predicates, in sorted order.
func (q *Query) FilterColumns() []string {
	set := make(map[string]bool)
	for _, p := range q.Where {
		set[p.Column] = true
	}
	return sortedKeys(set)
}

// SargableColumns returns the distinct qualified columns on which an index
// could help this query: sargable filter predicates, join keys, and GROUP
// BY / ORDER BY columns (index-provided order). Sorted.
func (q *Query) SargableColumns() []string {
	set := make(map[string]bool)
	for _, p := range q.Where {
		if p.Op.Sargable() {
			set[p.Column] = true
		}
	}
	for _, j := range q.Joins {
		set[j.Left] = true
		set[j.Right] = true
	}
	for _, c := range q.GroupBy {
		set[c] = true
	}
	for _, o := range q.OrderBy {
		set[o.Column] = true
	}
	return sortedKeys(set)
}

// ReferencedColumnsShared returns ReferencedColumns without allocating when
// the query has been Resolved (the cached slice is returned directly).
// Callers MUST NOT mutate the result. Unresolved queries fall back to a
// fresh, never-stored slice.
func (q *Query) ReferencedColumnsShared() []string {
	if q.refCols != nil {
		return q.refCols
	}
	return q.ReferencedColumns()
}

// ReferencedColumns returns every distinct qualified column mentioned
// anywhere in the query, sorted.
func (q *Query) ReferencedColumns() []string {
	set := make(map[string]bool)
	for _, si := range q.Select {
		if !si.Star && si.Column != "" {
			set[si.Column] = true
		}
	}
	for _, j := range q.Joins {
		set[j.Left] = true
		set[j.Right] = true
	}
	for _, p := range q.Where {
		set[p.Column] = true
	}
	for _, c := range q.GroupBy {
		set[c] = true
	}
	for _, o := range q.OrderBy {
		set[o.Column] = true
	}
	return sortedKeys(set)
}

// PredicatesOn returns the WHERE conjuncts restricting the given table
// (identified by the qualified column prefix "table.").
func (q *Query) PredicatesOn(table string) []Predicate {
	prefix := table + "."
	var out []Predicate
	for _, p := range q.Where {
		if strings.HasPrefix(p.Column, prefix) {
			out = append(out, p)
		}
	}
	return out
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{
		Select:  append([]SelectItem(nil), q.Select...),
		Tables:  append([]string(nil), q.Tables...),
		Joins:   append([]Join(nil), q.Joins...),
		Where:   make([]Predicate, len(q.Where)),
		GroupBy: append([]string(nil), q.GroupBy...),
		OrderBy: append([]OrderItem(nil), q.OrderBy...),
		Limit:   q.Limit,
	}
	for i, p := range q.Where {
		p.Values = append([]int64(nil), p.Values...)
		c.Where[i] = p
	}
	return c
}

// Equal reports structural equality of two queries.
func (q *Query) Equal(o *Query) bool { return q.String() == o.String() }

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
