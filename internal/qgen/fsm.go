// Package qgen implements the query generators of the paper: the
// finite-state-machine random generator [43] (both a baseline and the
// decoding automaton), IABART — the index-aware generator (§3) — and the
// ST / DT / noisy-LM comparison baselines of Table 3.
//
// Substitution note (see DESIGN.md §2): the paper's IABART fine-tunes
// BART-base; with no practical deep-learning path in this environment, the
// learned component is an n-gram token language model trained on the same
// (query ⟂ index ⟂ reward) corpus construction of §3.1, decoded under the
// same FSM constraint of §3.3, with a what-if verification loop supplying
// the index-awareness contract: given columns {c}, emit an executable,
// sargable query whose optimal index is on {c}.
package qgen

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/sql"
)

// FSM is the grammar automaton over a schema: it generates random valid
// queries clause by clause, starting from the FROM state so the table is
// fixed before column candidates are enumerated (§3.1), and it enumerates
// the legal candidates at each decoding step for constrained decoding
// (§3.3).
type FSM struct {
	Schema *catalog.Schema
}

// NewFSM builds the automaton for a schema.
func NewFSM(s *catalog.Schema) *FSM { return &FSM{Schema: s} }

// Generate produces one random query. Shape distribution: mostly
// single-table filter/aggregate queries, sometimes one FK join — the shapes
// a random seed drives the reference FSM generator [43] through.
func (f *FSM) Generate(rng *rand.Rand) *sql.Query {
	// FROM first: pick the primary table.
	tbl := f.Schema.Tables[rng.Intn(len(f.Schema.Tables))]
	q := &sql.Query{Tables: []string{tbl.Name}}

	// Optionally join one FK neighbor.
	if len(tbl.FKs) > 0 && rng.Float64() < 0.35 {
		fk := tbl.FKs[rng.Intn(len(tbl.FKs))]
		if fk.RefTable != tbl.Name {
			q.Tables = append(q.Tables, fk.RefTable)
			q.Joins = append(q.Joins, sql.Join{
				Left:  tbl.Name + "." + fk.Column,
				Right: fk.RefTable + "." + fk.RefColumn,
			})
		}
	}

	// WHERE: 1-3 predicates over the selected tables.
	nPreds := 1 + rng.Intn(3)
	for i := 0; i < nPreds; i++ {
		t := f.Schema.Table(q.Tables[rng.Intn(len(q.Tables))])
		col := t.Columns[rng.Intn(len(t.Columns))]
		q.Where = append(q.Where, f.RandomPredicate(col, rng))
	}

	// SELECT: aggregate or plain columns.
	if rng.Float64() < 0.5 {
		q.Select = []sql.SelectItem{{Agg: sql.AggCount, Star: true}}
		if rng.Float64() < 0.5 {
			t := f.Schema.Table(q.Tables[0])
			col := t.Columns[rng.Intn(len(t.Columns))]
			aggs := []sql.AggFunc{sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax}
			q.Select = append(q.Select, sql.SelectItem{
				Agg: aggs[rng.Intn(len(aggs))], Column: col.QualifiedName(),
			})
		}
	} else {
		t := f.Schema.Table(q.Tables[0])
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			col := t.Columns[rng.Intn(len(t.Columns))]
			q.Select = append(q.Select, sql.SelectItem{Column: col.QualifiedName()})
		}
	}

	// Optional GROUP BY (only with aggregates) and ORDER BY / LIMIT.
	hasAgg := false
	for _, si := range q.Select {
		if si.Agg != sql.AggNone {
			hasAgg = true
		}
	}
	if hasAgg && rng.Float64() < 0.3 {
		t := f.Schema.Table(q.Tables[0])
		col := t.Columns[rng.Intn(len(t.Columns))]
		q.GroupBy = []string{col.QualifiedName()}
		q.Select = append(q.Select, sql.SelectItem{Column: col.QualifiedName()})
	}
	if !hasAgg && rng.Float64() < 0.3 {
		t := f.Schema.Table(q.Tables[0])
		col := t.Columns[rng.Intn(len(t.Columns))]
		q.OrderBy = []sql.OrderItem{{Column: col.QualifiedName(), Desc: rng.Float64() < 0.5}}
		if rng.Float64() < 0.7 {
			q.Limit = 1 + rng.Intn(100)
		}
	}

	if err := sql.Resolve(q, f.Schema); err != nil {
		// The construction above only emits schema-valid references; a
		// failure is a bug in the FSM itself.
		panic(fmt.Sprintf("qgen: FSM generated invalid query %q: %v", q, err))
	}
	return q
}

// RandomPredicate draws a sargable predicate on the column with a random
// operator and domain-valid constants.
func (f *FSM) RandomPredicate(col *catalog.Column, rng *rand.Rand) sql.Predicate {
	qn := col.QualifiedName()
	lo, hi := f.Schema.ColumnDomain(qn)
	width := hi - lo
	if width < 1 {
		width = 1
	}
	v := lo + rng.Int63n(width)
	switch rng.Intn(5) {
	case 0:
		return sql.Predicate{Column: qn, Op: sql.OpEq, Value: v}
	case 1:
		return sql.Predicate{Column: qn, Op: sql.OpLe, Value: v}
	case 2:
		return sql.Predicate{Column: qn, Op: sql.OpGe, Value: v}
	case 3:
		span := 1 + rng.Int63n(width)
		hiV := v + span
		if hiV >= hi {
			hiV = hi - 1
		}
		if hiV < v {
			hiV = v
		}
		return sql.Predicate{Column: qn, Op: sql.OpBetween, Value: v, Hi: hiV}
	default:
		k := 1 + rng.Intn(3)
		vals := make([]int64, k)
		for i := range vals {
			vals[i] = lo + rng.Int63n(width)
		}
		return sql.Predicate{Column: qn, Op: sql.OpIn, Values: vals}
	}
}

// PredicateWithSelectivity builds a sargable predicate on the column whose
// estimated selectivity is approximately sel — the tuning knob the
// index-aware generator uses to meet reward targets.
func (f *FSM) PredicateWithSelectivity(col *catalog.Column, sel float64, rng *rand.Rand) sql.Predicate {
	qn := col.QualifiedName()
	lo, hi := f.Schema.ColumnDomain(qn)
	width := hi - lo
	if width < 1 {
		width = 1
	}
	span := int64(float64(width) * sel)
	if span < 1 {
		// Point predicate: the closest achievable selectivity is 1/width.
		return sql.Predicate{Column: qn, Op: sql.OpEq, Value: lo + rng.Int63n(width)}
	}
	maxStart := width - span
	start := lo
	if maxStart > 0 {
		start = lo + rng.Int63n(maxStart)
	}
	return sql.Predicate{Column: qn, Op: sql.OpBetween, Value: start, Hi: start + span - 1}
}

// PredicateINWithSelectivity builds an IN-list predicate on the column whose
// estimated selectivity is approximately sel — an alternative sargable shape
// the index-aware generator mixes in for diversity.
func (f *FSM) PredicateINWithSelectivity(col *catalog.Column, sel float64, rng *rand.Rand) sql.Predicate {
	qn := col.QualifiedName()
	lo, hi := f.Schema.ColumnDomain(qn)
	width := hi - lo
	if width < 1 {
		width = 1
	}
	k := int64(float64(width) * sel)
	if k < 1 {
		k = 1
	}
	if k > 8 {
		// Long IN lists are unusual SQL; fall back to a range of that width.
		return f.PredicateWithSelectivity(col, sel, rng)
	}
	seen := make(map[int64]bool, k)
	vals := make([]int64, 0, k)
	for int64(len(vals)) < k && int64(len(seen)) < width {
		v := lo + rng.Int63n(width)
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	}
	return sql.Predicate{Column: qn, Op: sql.OpIn, Values: vals}
}

// QueryCoster prices a query under an index set: the shared *cost.WhatIf,
// or the *cost.Memo IABART verifies its candidates in.
type QueryCoster interface {
	QueryCost(q *sql.Query, indexes []cost.Index) float64
}

// OptimalSingleColumn returns the best single-column index for the query
// (the column whose index minimizes what-if cost) and the relative reduction
// it achieves; ok is false when no index improves on the empty
// configuration — a non-sargable query.
func OptimalSingleColumn(w QueryCoster, q *sql.Query) (string, float64, bool) {
	base := w.QueryCost(q, nil)
	bestCol, bestCost := "", base
	for _, c := range q.SargableColumns() {
		cc := w.QueryCost(q, []cost.Index{cost.NewIndex(c)})
		if cc < bestCost {
			bestCol, bestCost = c, cc
		}
	}
	if bestCol == "" || base <= 0 {
		return "", 0, false
	}
	return bestCol, 1 - bestCost/base, true
}
