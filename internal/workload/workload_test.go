package workload

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/sql"
)

func TestAllTPCHTemplatesInstantiate(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range TPCHTemplates() {
		t.Run(tpl.Name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				q := tpl.Instantiate(s, rng)
				if len(q.Tables) == 0 {
					t.Fatalf("no tables in %s", q)
				}
			}
		})
	}
}

func TestAllTPCDSTemplatesInstantiate(t *testing.T) {
	s := catalog.TPCDS(1)
	rng := rand.New(rand.NewSource(2))
	for _, tpl := range TPCDSTemplates() {
		t.Run(tpl.Name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				q := tpl.Instantiate(s, rng)
				if len(q.Tables) == 0 {
					t.Fatalf("no tables in %s", q)
				}
			}
		})
	}
}

func TestTemplatesAreCostable(t *testing.T) {
	// Every instantiated template must be plannable under an arbitrary
	// index set without panicking, with positive cost.
	for _, tc := range []struct {
		schema *catalog.Schema
		tpls   []Template
	}{
		{catalog.TPCH(1), TPCHTemplates()},
		{catalog.TPCDS(1), TPCDSTemplates()},
	} {
		m := cost.NewModel(tc.schema)
		rng := rand.New(rand.NewSource(3))
		cols := tc.schema.IndexableColumnNames()
		for _, tpl := range tc.tpls {
			q := tpl.Instantiate(tc.schema, rng)
			indexes := []cost.Index{
				cost.NewIndex(cols[rng.Intn(len(cols))]),
				cost.NewIndex(cols[rng.Intn(len(cols))]),
			}
			if c := m.QueryCost(q, indexes); c <= 0 {
				t.Errorf("%s: cost %f", tpl.Name, c)
			}
		}
	}
}

func TestTemplatesBenefitFromIndexes(t *testing.T) {
	// Sanity for the whole pipeline: across a TPC-H normal workload, at
	// least one single-column index must yield a meaningful cost reduction —
	// otherwise advisors would have nothing to learn.
	s := catalog.TPCH(1)
	m := cost.NewModel(s)
	rng := rand.New(rand.NewSource(4))
	w := GenerateNormal(s, TPCHTemplates(), 22, rng)
	base := m.WorkloadCost(w.Queries, w.Freqs, nil)
	bestRed := 0.0
	for _, col := range s.IndexableColumnNames() {
		c := m.WorkloadCost(w.Queries, w.Freqs, []cost.Index{cost.NewIndex(col)})
		if red := 1 - c/base; red > bestRed {
			bestRed = red
		}
	}
	if bestRed < 0.05 {
		t.Errorf("best single-index reduction = %f, want >= 0.05", bestRed)
	}
}

func TestGenerateNormal(t *testing.T) {
	s := catalog.TPCH(1)
	rng := rand.New(rand.NewSource(5))
	w := GenerateNormal(s, TPCHTemplates(), 18, rng)
	if w.Len() != 18 {
		t.Fatalf("Len = %d, want 18", w.Len())
	}
	for i, f := range w.Freqs {
		if f < 1 || f >= 10 {
			t.Errorf("freq[%d] = %f outside [1, 10)", i, f)
		}
	}
	// Deterministic under the same seed.
	w2 := GenerateNormal(s, TPCHTemplates(), 18, rand.New(rand.NewSource(5)))
	for i := range w.Queries {
		if w.Queries[i].String() != w2.Queries[i].String() {
			t.Errorf("query %d differs under same seed", i)
		}
	}
}

func TestMergeAndClone(t *testing.T) {
	q1 := sql.MustParse("SELECT * FROM a")
	q2 := sql.MustParse("SELECT * FROM b")
	w1 := New(q1)
	w2 := New(q2)
	m := w1.Merge(w2)
	if m.Len() != 2 {
		t.Fatalf("merged Len = %d", m.Len())
	}
	if w1.Len() != 1 || w2.Len() != 1 {
		t.Error("Merge mutated inputs")
	}
	c := w1.Clone()
	c.Add(q2, 2)
	if w1.Len() != 1 {
		t.Error("Clone shares slice growth with original")
	}
}

func TestWorkloadColumns(t *testing.T) {
	s := catalog.TPCH(1)
	q, err := sql.ParseResolved("SELECT COUNT(*) FROM lineitem WHERE l_partkey = 3 AND l_quantity > 5", s)
	if err != nil {
		t.Fatal(err)
	}
	w := New(q)
	cols := w.Columns()
	if len(cols) != 2 {
		t.Fatalf("Columns = %v", cols)
	}
}

// TestWorkloadColumnsSorted pins Columns' order: sorted and the same on
// every call, however the distinct-column set is gathered.
func TestWorkloadColumnsSorted(t *testing.T) {
	s := catalog.TPCH(1)
	w := &Workload{}
	for _, text := range []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_partkey = 3 AND l_quantity > 5",
		"SELECT COUNT(*) FROM orders WHERE o_custkey < 500 AND o_totalprice > 10",
		"SELECT COUNT(*) FROM part WHERE p_size = 4 AND p_brand = 'Brand#12'",
		"SELECT COUNT(*) FROM customer WHERE c_nationkey = 7 AND c_acctbal > 0",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate < '1995-01-01' AND l_discount > 0.05",
	} {
		q, err := sql.ParseResolved(text, s)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(q, 1)
	}
	first := w.Columns()
	if len(first) < 8 || !sort.StringsAreSorted(first) {
		t.Fatalf("Columns = %v, want at least 8 sorted columns", first)
	}
	for i := 0; i < 50; i++ {
		if got := w.Columns(); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: Columns = %v, want %v", i, got, first)
		}
	}
}

func TestTemplatesFor(t *testing.T) {
	if got := len(TemplatesFor(catalog.TPCH(1))); got != 22 {
		t.Errorf("TPC-H templates = %d, want 22", got)
	}
	if got := len(TemplatesFor(catalog.TPCDS(1))); got != 20 {
		t.Errorf("TPC-DS templates = %d, want 20", got)
	}
	if DefaultSize(catalog.TPCH(1)) != 18 || DefaultSize(catalog.TPCDS(1)) != 90 {
		t.Error("DefaultSize mismatch with paper §6.1")
	}
}
