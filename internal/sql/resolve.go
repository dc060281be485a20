package sql

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// Resolve qualifies every column reference in q against the schema and
// validates that all tables exist and all referenced columns belong to tables
// in the FROM list. It mutates q in place. A query that Resolves successfully
// is executable by internal/engine, which is the paper's notion of a
// grammatically correct (GAC) query.
func Resolve(q *Query, s *catalog.Schema) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("sql: query has no FROM tables")
	}
	seen := make(map[string]bool, len(q.Tables))
	for _, t := range q.Tables {
		if s.Table(t) == nil {
			return fmt.Errorf("sql: unknown table %q", t)
		}
		if seen[t] {
			return fmt.Errorf("sql: duplicate table %q in FROM", t)
		}
		seen[t] = true
	}
	resolve := func(name string) (string, error) {
		if i := strings.IndexByte(name, '.'); i >= 0 {
			tbl, col := name[:i], name[i+1:]
			if !seen[tbl] {
				return "", fmt.Errorf("sql: column %q references table not in FROM", name)
			}
			if s.Table(tbl).Column(col) == nil {
				return "", fmt.Errorf("sql: unknown column %q", name)
			}
			return name, nil
		}
		var found string
		for _, t := range q.Tables {
			if s.Table(t).Column(name) != nil {
				if found != "" {
					return "", fmt.Errorf("sql: ambiguous column %q", name)
				}
				found = t + "." + name
			}
		}
		if found == "" {
			return "", fmt.Errorf("sql: unknown column %q", name)
		}
		return found, nil
	}

	for i := range q.Select {
		if q.Select[i].Star || q.Select[i].Column == "" {
			continue
		}
		c, err := resolve(q.Select[i].Column)
		if err != nil {
			return err
		}
		q.Select[i].Column = c
	}
	for i := range q.Joins {
		l, err := resolve(q.Joins[i].Left)
		if err != nil {
			return err
		}
		r, err := resolve(q.Joins[i].Right)
		if err != nil {
			return err
		}
		if tableOf(l) == tableOf(r) {
			return fmt.Errorf("sql: self-join condition %s = %s not supported", l, r)
		}
		q.Joins[i].Left, q.Joins[i].Right = l, r
	}
	for i := range q.Where {
		c, err := resolve(q.Where[i].Column)
		if err != nil {
			return err
		}
		q.Where[i].Column = c
	}
	for i := range q.GroupBy {
		c, err := resolve(q.GroupBy[i])
		if err != nil {
			return err
		}
		q.GroupBy[i] = c
	}
	for i := range q.OrderBy {
		c, err := resolve(q.OrderBy[i].Column)
		if err != nil {
			return err
		}
		q.OrderBy[i].Column = c
	}
	// The query is now in its final, fully qualified form: cache the
	// canonical rendering and its hash so hot paths (what-if memoization)
	// never re-render or re-hash it, and the referenced-column list and its interned bitset so the planner's
	// covering test and the delta coster's intersection filter never
	// recompute them per plan.
	q.fp = q.String()
	q.fpHash = FNV1a(FNVOffset, q.fp)
	q.refCols = q.ReferencedColumns()
	q.refSet = ColSetOf(q.refCols...)
	return nil
}

// ParseResolved parses src and resolves it against the schema.
func ParseResolved(src string, s *catalog.Schema) (*Query, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Resolve(q, s); err != nil {
		return nil, err
	}
	return q, nil
}

// tableOf returns the table part of a qualified column name.
func tableOf(qualified string) string {
	if i := strings.IndexByte(qualified, '.'); i >= 0 {
		return qualified[:i]
	}
	return ""
}

// TableOf exposes tableOf for other packages working with qualified names.
func TableOf(qualified string) string { return tableOf(qualified) }
