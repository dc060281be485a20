package nn

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/snap"
)

// trainedNet builds a network with non-trivial optimizer state: a few
// forward/backward/step cycles so step, moments and parameters all differ
// from initialization.
func trainedNet(t *testing.T) *MLP {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	n := NewMLP(rng, []int{4, 6, 3}, ReLU, Identity)
	for i := 0; i < 5; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		outs, tape := n.ForwardBatch([][]float64{x})
		grad := make([]float64, len(outs[0]))
		for j := range grad {
			grad[j] = outs[0][j] - float64(j)
		}
		n.BackwardBatch(tape, [][]float64{grad})
		n.Step(0.01)
	}
	return n
}

func TestMLPCodecRoundTrip(t *testing.T) {
	n := trainedNet(t)
	// Leave some un-stepped gradient in place so that path round-trips too.
	x := []float64{0.1, 0.2, 0.3, 0.4}
	outs, tape := n.ForwardBatch([][]float64{x})
	out := append([]float64(nil), outs[0]...)
	n.BackwardBatch(tape, [][]float64{{1, -1, 0.5}})

	encode := func(n *MLP) []byte {
		var e snap.Encoder
		n.Encode(&e)
		return e.Seal("nn.test")
	}
	blob := encode(n)

	d, err := snap.Open(blob, "nn.test")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMLP(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The network also carries training scratch, which the codec leaves out,
	// so compare what it encodes and the live columns it derives.
	if !bytes.Equal(encode(got), blob) {
		t.Fatal("decoded network differs from original")
	}
	for li, l := range n.layers {
		if !reflect.DeepEqual(l.live, got.layers[li].live) || !sameCols(l.cols, got.layers[li].cols) {
			t.Fatalf("layer %d: decoded live columns %v, original %v", li, got.layers[li].cols, l.cols)
		}
	}
	if !reflect.DeepEqual(out, got.Forward(x)) {
		t.Fatal("decoded network predicts differently")
	}
	// Both must continue training identically: optimizer state round-tripped.
	n.Step(0.01)
	got.Step(0.01)
	if !reflect.DeepEqual(n.Params(), got.Params()) {
		t.Fatal("networks diverge after a post-restore optimizer step")
	}
}

// sameCols reports whether a and b list the same columns in any order.
func sameCols(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func TestDecodeMLPRejectsBadShapes(t *testing.T) {
	bad := func(name string, build func(e *snap.Encoder)) {
		t.Helper()
		var e snap.Encoder
		build(&e)
		d, err := snap.Open(e.Seal("nn.test"), "nn.test")
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if _, err := DecodeMLP(d); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	bad("zero layers", func(e *snap.Encoder) {
		e.Int64(0)
		e.Uint64(0)
	})
	bad("absurd layer count", func(e *snap.Encoder) {
		e.Int64(0)
		e.Uint64(1 << 30)
	})
	bad("negative dims", func(e *snap.Encoder) {
		e.Int64(0)
		e.Uint64(1)
		e.Int64(-2)
		e.Int64(3)
		e.Int64(int64(ReLU))
		for i := 0; i < 8; i++ {
			e.Floats(nil)
		}
	})
	bad("weight size mismatch", func(e *snap.Encoder) {
		e.Int64(0)
		e.Uint64(1)
		e.Int64(2)
		e.Int64(2)
		e.Int64(int64(Tanh))
		e.Floats([]float64{1, 2, 3}) // w should be 4 wide
		for i := 0; i < 7; i++ {
			e.Floats([]float64{0, 0, 0, 0})
		}
	})
	bad("layer chain mismatch", func(e *snap.Encoder) {
		e.Int64(0)
		e.Uint64(2)
		for _, dim := range []struct{ in, out int }{{2, 3}, {5, 1}} { // 3 != 5
			e.Int64(int64(dim.in))
			e.Int64(int64(dim.out))
			e.Int64(int64(Identity))
			e.Floats(make([]float64, dim.in*dim.out))
			e.Floats(make([]float64, dim.out))
			e.Floats(make([]float64, dim.in*dim.out))
			e.Floats(make([]float64, dim.out))
			e.Floats(make([]float64, dim.in*dim.out))
			e.Floats(make([]float64, dim.in*dim.out))
			e.Floats(make([]float64, dim.out))
			e.Floats(make([]float64, dim.out))
		}
	})
}
