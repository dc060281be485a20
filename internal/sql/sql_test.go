package sql

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/catalog"
)

func TestParseSimple(t *testing.T) {
	q, err := Parse("SELECT l_partkey FROM lineitem WHERE l_quantity > 30")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0] != "lineitem" {
		t.Errorf("tables = %v", q.Tables)
	}
	if len(q.Where) != 1 || q.Where[0].Op != OpGt || q.Where[0].Value != 30 {
		t.Errorf("where = %+v", q.Where)
	}
}

func TestParseShapes(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"count star", "SELECT COUNT(*) FROM orders"},
		{"aggregates", "SELECT SUM(l_extendedprice), AVG(l_discount), MIN(l_tax), MAX(l_quantity) FROM lineitem"},
		{"between", "SELECT * FROM orders WHERE o_orderdate BETWEEN 100 AND 200"},
		{"in list", "SELECT o_orderkey FROM orders WHERE o_orderpriority IN (1, 2, 3)"},
		{"comma join", "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity < 10"},
		{"explicit join", "SELECT * FROM orders JOIN lineitem ON o_orderkey = l_orderkey"},
		{"inner join", "SELECT * FROM orders INNER JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey"},
		{"group order limit", "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag DESC LIMIT 10"},
		{"qualified", "SELECT lineitem.l_partkey FROM lineitem WHERE lineitem.l_shipdate <= 9000"},
		{"string literal", "SELECT * FROM customer WHERE c_mktsegment = 'BUILDING'"},
		{"ne", "SELECT * FROM lineitem WHERE l_returnflag <> 1"},
		{"float literal truncated", "SELECT * FROM lineitem WHERE l_discount >= 0.05"},
		{"order asc", "SELECT * FROM orders ORDER BY o_orderdate ASC"},
		{"three tables", "SELECT * FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err != nil {
				t.Errorf("Parse(%q) failed: %v", tt.src, err)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no select", "FROM lineitem"},
		{"no from", "SELECT *"},
		{"bad operator chain", "SELECT * FROM t WHERE a = = 1"},
		{"unterminated string", "SELECT * FROM t WHERE a = 'oops"},
		{"trailing garbage", "SELECT * FROM t WHERE a = 1 garbage here"},
		{"empty between", "SELECT * FROM t WHERE a BETWEEN 5 AND 2"},
		{"bad in", "SELECT * FROM t WHERE a IN ()"},
		{"sum star", "SELECT SUM(*) FROM t"},
		{"join non eq", "SELECT * FROM a, b WHERE a.x < b.y"},
		{"zero limit", "SELECT * FROM t LIMIT 0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if q, err := Parse(tt.src); err == nil {
				t.Errorf("Parse(%q) = %v, want error", tt.src, q)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	// Property: Parse(q.String()) equals q for a representative set.
	srcs := []string{
		"SELECT COUNT(*) FROM orders WHERE o_orderdate BETWEEN 100 AND 200",
		"SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate <= 9000 GROUP BY l_returnflag ORDER BY l_returnflag LIMIT 5",
		"SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity IN (1, 2, 3)",
		"SELECT o_orderkey FROM orders WHERE o_totalprice > 1000 ORDER BY o_orderdate DESC",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q1.String(), err)
		}
		if !q1.Equal(q2) {
			t.Errorf("round trip mismatch:\n  first:  %s\n  second: %s", q1, q2)
		}
	}
}

func TestStringCodeDeterministic(t *testing.T) {
	a, b := StringCode("BUILDING"), StringCode("BUILDING")
	if a != b {
		t.Errorf("StringCode not deterministic: %d != %d", a, b)
	}
	if a < 0 {
		t.Errorf("StringCode negative: %d", a)
	}
	if StringCode("BUILDING") == StringCode("MACHINERY") {
		t.Error("distinct strings collided")
	}
}

func TestSargableColumns(t *testing.T) {
	q := MustParse("SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity > 5 AND l_returnflag <> 1 GROUP BY l_shipmode ORDER BY o_orderdate")
	got := q.SargableColumns()
	want := []string{"l_orderkey", "l_quantity", "l_shipmode", "o_orderdate", "o_orderkey"}
	if len(got) != len(want) {
		t.Fatalf("SargableColumns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SargableColumns[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// l_returnflag appears only under <> so it must be excluded.
	for _, c := range got {
		if c == "l_returnflag" {
			t.Error("non-sargable <> column included")
		}
	}
}

func TestResolve(t *testing.T) {
	s := catalog.TPCH(1)
	q := MustParse("SELECT l_partkey, COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipdate <= 9000 GROUP BY l_partkey ORDER BY l_partkey")
	if err := Resolve(q, s); err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Column != "lineitem.l_partkey" {
		t.Errorf("select resolved to %q", q.Select[0].Column)
	}
	if q.Joins[0].Left != "lineitem.l_orderkey" || q.Joins[0].Right != "orders.o_orderkey" {
		t.Errorf("join resolved to %+v", q.Joins[0])
	}
	if q.Where[0].Column != "lineitem.l_shipdate" {
		t.Errorf("where resolved to %q", q.Where[0].Column)
	}
	if q.GroupBy[0] != "lineitem.l_partkey" || q.OrderBy[0].Column != "lineitem.l_partkey" {
		t.Errorf("group/order resolved to %v / %v", q.GroupBy, q.OrderBy)
	}
}

func TestResolveErrors(t *testing.T) {
	s := catalog.TPCH(1)
	tests := []struct {
		name string
		src  string
	}{
		{"unknown table", "SELECT * FROM nosuch"},
		{"unknown column", "SELECT bogus FROM lineitem"},
		{"column from absent table", "SELECT o_orderkey FROM lineitem"},
		{"qualified absent table", "SELECT orders.o_orderkey FROM lineitem"},
		{"duplicate table", "SELECT * FROM lineitem, lineitem"},
		{"self join", "SELECT * FROM lineitem WHERE l_orderkey = l_partkey"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q, err := Parse(tt.src)
			if err != nil {
				t.Fatalf("parse failed: %v", err)
			}
			if err := Resolve(q, s); err == nil {
				t.Errorf("Resolve(%q) succeeded, want error", tt.src)
			}
		})
	}
}

func TestClone(t *testing.T) {
	q := MustParse("SELECT * FROM orders WHERE o_orderpriority IN (1, 2, 3)")
	c := q.Clone()
	c.Where[0].Values[0] = 99
	c.Tables[0] = "other"
	if q.Where[0].Values[0] != 1 || q.Tables[0] != "orders" {
		t.Error("Clone shares state with original")
	}
}

func TestPredicatesOnAndJoinsOn(t *testing.T) {
	s := catalog.TPCH(1)
	q, err := ParseResolved("SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity > 5 AND o_totalprice < 100", s)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.PredicatesOn("lineitem"); len(got) != 1 || got[0].Column != "lineitem.l_quantity" {
		t.Errorf("PredicatesOn(lineitem) = %v", got)
	}
	if got := q.PredicatesOn("orders"); len(got) != 1 || got[0].Column != "orders.o_totalprice" {
		t.Errorf("PredicatesOn(orders) = %v", got)
	}
	if len(q.Joins) != 1 || q.Joins[0].Left != "orders.o_orderkey" || q.Joins[0].Right != "lineitem.l_orderkey" {
		t.Errorf("Joins = %v, want the one orders–lineitem join", q.Joins)
	}
}

func TestQueryStringStable(t *testing.T) {
	src := "SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN 100 AND 200 AND l_discount IN (5, 6, 7) GROUP BY l_returnflag ORDER BY l_returnflag DESC LIMIT 3"
	q := MustParse(src)
	s1, s2 := q.String(), q.String()
	if s1 != s2 {
		t.Error("String() not deterministic")
	}
	if !strings.Contains(s1, "BETWEEN 100 AND 200") || !strings.Contains(s1, "LIMIT 3") {
		t.Errorf("String() = %q missing clauses", s1)
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Tokenize("SELECT a FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 {
		t.Fatalf("got %d tokens, want 4", len(toks))
	}
	wantPos := []int{0, 7, 9, 14}
	for i, w := range wantPos {
		if toks[i].Pos != w {
			t.Errorf("token %d pos = %d, want %d", i, toks[i].Pos, w)
		}
	}
}

// fnvOf is the reference 32-bit FNV-1a hash of s.
func fnvOf(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// TestFingerprintHash checks the FNV-1a state cached next to the
// fingerprint: Resolve sets it, Clone drops it with the fingerprint, an
// unresolved query hashes its current text, and two parses of one text
// agree.
func TestFingerprintHash(t *testing.T) {
	s := catalog.TPCH(1)
	const src = "SELECT l_partkey, SUM(l_quantity) FROM lineitem WHERE l_quantity > 30 GROUP BY l_partkey"
	a, err := ParseResolved(src, s)
	if err != nil {
		t.Fatal(err)
	}
	if a.fp == "" || a.fpHash != fnvOf(a.fp) || a.FingerprintHash() != fnvOf(a.Fingerprint()) {
		t.Fatalf("resolved: fpHash %d, want FNV-1a(%q) = %d", a.fpHash, a.fp, fnvOf(a.fp))
	}
	b, err := ParseResolved(src, s)
	if err != nil {
		t.Fatal(err)
	}
	if b.FingerprintHash() != a.FingerprintHash() {
		t.Error("two parses of one text hash differently")
	}

	c := a.Clone()
	if c.fp != "" || c.fpHash != 0 {
		t.Fatalf("Clone kept fp %q, fpHash %d", c.fp, c.fpHash)
	}
	c.Limit = 7 // an unresolved query may still change
	if got, want := c.FingerprintHash(), fnvOf(c.String()); got != want || got == a.FingerprintHash() {
		t.Errorf("clone hash = %d, want FNV-1a of its current text %d", got, want)
	}
	if c.fpHash != 0 {
		t.Error("FingerprintHash stored a hash on an unresolved query")
	}

	u, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.FingerprintHash(), fnvOf(u.String()); got != want {
		t.Errorf("unresolved hash = %d, want %d", got, want)
	}
}
