package advisor

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/snap"
)

// TestCountingSourceStreamMatchesPlain pins the property the whole snapshot
// design rests on: for every rand.Rand method the advisors use, a Rand over a
// CountingSource produces the same stream as one over a plain rand.NewSource.
func TestCountingSourceStreamMatchesPlain(t *testing.T) {
	plain := rand.New(rand.NewSource(42))
	counted := rand.New(NewCountingSource(42))
	for i := 0; i < 200; i++ {
		if a, b := plain.Intn(97), counted.Intn(97); a != b {
			t.Fatalf("Intn diverges at %d: %d vs %d", i, a, b)
		}
		if a, b := plain.Float64(), counted.Float64(); a != b {
			t.Fatalf("Float64 diverges at %d", i)
		}
		if a, b := plain.NormFloat64(), counted.NormFloat64(); a != b {
			t.Fatalf("NormFloat64 diverges at %d", i)
		}
	}
}

func TestCountingSourceReplay(t *testing.T) {
	src := NewCountingSource(7)
	rng := rand.New(src)
	for i := 0; i < 57; i++ {
		rng.NormFloat64()
	}
	var e snap.Encoder
	src.Encode(&e)
	blob := e.Seal("t")

	// Continue the original stream past the snapshot point.
	want := []float64{rng.Float64(), rng.Float64(), rng.Float64()}

	restored := NewCountingSource(1) // wrong seed: Decode must fix it
	d, err := snap.Open(blob, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Decode(d); err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(restored)
	got := []float64{rng2.Float64(), rng2.Float64(), rng2.Float64()}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replayed stream diverges: %v vs %v", want, got)
	}
	s1, n1 := src.State()
	s2, n2 := restored.State()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("state mismatch: (%d,%d) vs (%d,%d)", s1, n1, s2, n2)
	}
}

// TestCountingSourceClone: a clone sits at the original's exact stream
// position without replaying it, and the two are independent afterwards.
func TestCountingSourceClone(t *testing.T) {
	src := NewCountingSource(11)
	rng := rand.New(src)
	for i := 0; i < 1234; i++ {
		rng.NormFloat64()
	}
	c := src.Clone()
	_, drawn := src.State()
	encode := func(s *CountingSource) []byte {
		var e snap.Encoder
		s.Encode(&e)
		return e.Seal("t")
	}
	if !bytes.Equal(encode(src), encode(c)) {
		t.Fatal("clone encodes a different (seed, draws)")
	}
	// Draw 10,000 values from the clone first: if the two shared generator
	// state, the original would continue 10,000 values further on.
	crng := rand.New(c)
	want := make([]int64, 10000)
	for i := range want {
		want[i] = crng.Int63()
	}
	if _, n := src.State(); n != drawn {
		t.Fatalf("drawing from the clone moved the original to %d draws", n)
	}
	for i, w := range want {
		if got := rng.Int63(); got != w {
			t.Fatalf("clone and original diverge at draw %d", i)
		}
	}
	if !bytes.Equal(encode(src), encode(c)) {
		t.Fatal("clone and original encode differently after equal draws")
	}
}

func TestParamAveragerCodec(t *testing.T) {
	a := NewParamAverager(3)
	a.Push([]float64{1, 2})
	a.Push([]float64{3, 4})
	a.Push([]float64{5, 6})
	a.Push([]float64{7, 8}) // wraps

	var e snap.Encoder
	a.Encode(&e)
	d, err := snap.Open(e.Seal("t"), "t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeParamAverager(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatal("decoded averager differs")
	}
	if !reflect.DeepEqual(a.Average(), got.Average()) {
		t.Fatal("averages differ")
	}
	// Both must evolve identically after restore.
	a.Push([]float64{9, 10})
	got.Push([]float64{9, 10})
	if !reflect.DeepEqual(a.Average(), got.Average()) {
		t.Fatal("averagers diverge after a post-restore push")
	}
}

func TestDecodeParamAveragerRejectsBadHeader(t *testing.T) {
	var e snap.Encoder
	e.Int64(2) // window
	e.Int64(5) // next out of range
	e.Int64(0) // filled
	e.Floats(nil)
	e.Floats(nil)
	d, err := snap.Open(e.Seal("t"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeParamAverager(d); err == nil {
		t.Fatal("bad next accepted")
	}
}

func TestIndexCodec(t *testing.T) {
	idxs := []cost.Index{
		cost.NewIndex("lineitem.l_partkey"),
		cost.NewIndex("orders.o_custkey", "orders.o_orderdate"),
	}
	var e snap.Encoder
	EncodeIndexes(&e, idxs)
	d, err := snap.Open(e.Seal("t"), "t")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIndexes(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idxs, got) {
		t.Fatalf("indexes differ: %v vs %v", got, idxs)
	}

	// Unqualified columns must be rejected, not panic in cost.NewIndex.
	var e2 snap.Encoder
	e2.Uint64(1)
	e2.Strings([]string{"nocolumnqualifier"})
	d2, err := snap.Open(e2.Seal("t"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeIndexes(d2); err == nil {
		t.Fatal("unqualified column accepted")
	}
}
