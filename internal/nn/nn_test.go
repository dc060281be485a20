package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewMLP(rng, []int{4, 8, 3}, ReLU, Identity)
	if n.InputSize() != 4 || n.OutputSize() != 3 {
		t.Fatalf("sizes = %d/%d", n.InputSize(), n.OutputSize())
	}
	out := n.Forward([]float64{1, 2, 3, 4})
	if len(out) != 3 {
		t.Fatalf("output len = %d", len(out))
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check on a small network with tanh (smooth).
	rng := rand.New(rand.NewSource(2))
	n := NewMLP(rng, []int{3, 5, 2}, Tanh, Identity)
	x := []float64{0.5, -0.3, 0.8}
	target := []float64{1.0, -1.0}

	loss := func(net *MLP) float64 {
		out := net.Forward(x)
		l := 0.0
		for i := range out {
			d := out[i] - target[i]
			l += 0.5 * d * d
		}
		return l
	}

	outs, tape := n.ForwardBatch([][]float64{x})
	grad := make([]float64, len(outs[0]))
	for i, o := range outs[0] {
		grad[i] = o - target[i]
	}
	n.BackwardBatch(tape, [][]float64{grad})

	// Compare analytic gradient on first-layer weights to finite difference.
	const eps = 1e-6
	l0 := n.layers[0]
	for _, wi := range []int{0, 3, 7, 14} {
		analytic := l0.gw[wi]
		orig := l0.w[wi]
		l0.w[wi] = orig + eps
		lp := loss(n)
		l0.w[wi] = orig - eps
		lm := loss(n)
		l0.w[wi] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("w[%d]: analytic %g vs numeric %g", wi, analytic, numeric)
		}
	}
	n.ZeroGrad()
}

func TestLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewMLP(rng, []int{2, 16, 1}, Tanh, Identity)
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	for epoch := 0; epoch < 2000; epoch++ {
		xs, grads := make([][]float64, len(data)), make([][]float64, len(data))
		for i := range data {
			xs[i] = data[i][:2]
		}
		outs, tape := n.ForwardBatch(xs)
		for i, d := range data {
			grads[i] = []float64{outs[i][0] - d[2]}
		}
		n.BackwardBatch(tape, grads)
		n.Step(0.01)
	}
	for _, d := range data {
		out := n.Forward(d[:2])
		if math.Abs(out[0]-d[2]) > 0.2 {
			t.Errorf("XOR(%v, %v) = %f, want %f", d[0], d[1], out[0], d[2])
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMLP(rng, []int{3, 4, 2}, ReLU, Identity)
	b := NewMLP(rng, []int{3, 4, 2}, ReLU, Identity)
	x := []float64{1, -1, 0.5}
	if same(a.Forward(x), b.Forward(x)) {
		t.Fatal("independent networks should differ")
	}
	b.SetParams(a.Params())
	if !same(a.Forward(x), b.Forward(x)) {
		t.Error("SetParams(Params()) did not replicate outputs")
	}
}

func TestClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMLP(rng, []int{2, 3, 1}, ReLU, Identity)
	c := a.Clone()
	x := []float64{0.3, 0.7}
	if !same(a.Forward(x), c.Forward(x)) {
		t.Fatal("clone differs")
	}
	// Training the clone must not affect the original.
	before := a.Forward(x)[0]
	outs, tape := c.ForwardBatch([][]float64{x})
	c.BackwardBatch(tape, [][]float64{{outs[0][0] - 10}})
	c.Step(0.1)
	if a.Forward(x)[0] != before {
		t.Error("training clone mutated original")
	}
}

// TestForwardConcurrent shares one network between goroutines running
// Forward, as read-only inference may; run it under -race.
func TestForwardConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewMLP(rng, []int{12, 9, 5}, ReLU, Identity)
	inputs := make([][]float64, 8)
	want := make([][]float64, len(inputs))
	for k := range inputs {
		inputs[k] = make([]float64, 12)
		for i := k % 3; i < 12; i += 3 {
			inputs[k][i] = rng.NormFloat64()
		}
		want[k] = n.Forward(inputs[k])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for k, x := range inputs {
					if got := n.Forward(x); !same(got, want[k]) {
						t.Errorf("input %d: concurrent Forward = %v, want %v", k, got, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSoftmaxMasked(t *testing.T) {
	p := Softmax([]float64{1, 2, 3}, []bool{true, false, true})
	if p[1] != 0 {
		t.Errorf("masked prob = %f, want 0", p[1])
	}
	if math.Abs(p[0]+p[2]-1) > 1e-12 {
		t.Errorf("probs sum to %f", p[0]+p[2])
	}
	if p[2] <= p[0] {
		t.Error("larger logit should get larger probability")
	}
}

func TestSoftmaxPanicsAllMasked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for fully masked softmax")
		}
	}()
	Softmax([]float64{1, 2}, []bool{false, false})
}

func TestSampleCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	probs := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / 10000
		if math.Abs(got-p) > 0.03 {
			t.Errorf("arm %d frequency %f, want ≈ %f", i, got, p)
		}
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{1, 5, 3}, nil); got != 1 {
		t.Errorf("Argmax = %d, want 1", got)
	}
	if got := Argmax([]float64{1, 5, 3}, []bool{true, false, true}); got != 2 {
		t.Errorf("masked Argmax = %d, want 2", got)
	}
	if got := Argmax([]float64{1}, []bool{false}); got != -1 {
		t.Errorf("all-masked Argmax = %d, want -1", got)
	}
}

func same(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
