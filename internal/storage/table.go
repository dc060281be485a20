package storage

import (
	"fmt"
	"math"
	"sync"
)

// Null is the sentinel value representing SQL NULL in column data.
const Null int64 = math.MinInt64

// Table holds one table's data in columnar form: every column is a slice of
// dictionary codes, NULLs encoded as the Null sentinel.
type Table struct {
	Name string
	Rows int
	cols map[string][]int64 // unqualified column name -> values
}

// NewTable creates an empty table shell.
func NewTable(name string, rows int) *Table {
	return &Table{Name: name, Rows: rows, cols: make(map[string][]int64)}
}

// SetColumn installs a column's data. It panics if the length does not match
// the table's row count — column slices must stay aligned.
func (t *Table) SetColumn(name string, values []int64) {
	if len(values) != t.Rows {
		panic(fmt.Sprintf("storage: column %s.%s has %d values, want %d", t.Name, name, len(values), t.Rows))
	}
	t.cols[name] = values
}

// Column returns a column's values, or nil if absent.
func (t *Table) Column(name string) []int64 { return t.cols[name] }

// Value returns the value at (column, row). It panics on unknown columns.
func (t *Table) Value(col string, row int32) int64 {
	c := t.cols[col]
	if c == nil {
		panic(fmt.Sprintf("storage: unknown column %s.%s", t.Name, col))
	}
	return c[row]
}

// Store is a database instance: named tables plus secondary indexes keyed by
// the cost.Index canonical key. Index creation is lazy and cached — building
// an index is the "CREATE INDEX" of the simulation.
type Store struct {
	mu      sync.Mutex
	tables  map[string]*Table
	indexes map[string]*BTree
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table), indexes: make(map[string]*BTree)}
}

// AddTable registers a table.
func (s *Store) AddTable(t *Table) { s.tables[t.Name] = t }

// Table returns the named table, or nil.
func (s *Store) Table(name string) *Table { return s.tables[name] }

// Index returns (building if necessary) a single-column B+-tree over the
// given table and unqualified column. NULL rows are excluded, matching SQL
// index semantics. The key is cached per (table, column).
func (s *Store) Index(table, column string) (*BTree, error) {
	key := table + "." + column
	s.mu.Lock()
	defer s.mu.Unlock()
	if bt, ok := s.indexes[key]; ok {
		return bt, nil
	}
	t := s.tables[table]
	if t == nil {
		return nil, fmt.Errorf("storage: unknown table %q", table)
	}
	col := t.Column(column)
	if col == nil {
		return nil, fmt.Errorf("storage: unknown column %s.%s", table, column)
	}
	keys := make([]int64, 0, len(col))
	rids := make([]int32, 0, len(col))
	for i, v := range col {
		if v == Null {
			continue
		}
		keys = append(keys, v)
		rids = append(rids, int32(i))
	}
	bt := BulkLoad(keys, rids)
	s.indexes[key] = bt
	return bt, nil
}
