package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The dense kernels below are the reference the sparse ones in nn.go must
// match bit for bit: every term summed, every row visited, every parameter
// updated, dLoss/dInput propagated down to the input, and the activation's
// slope taken from the pre-activation.

type denseTape struct {
	inputs, pre, post [][]float64
}

func denseDerivative(a Activation, x, y float64) float64 {
	switch a {
	case ReLU:
		if x <= 0 {
			return 0
		}
		return 1
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

func denseForward(n *MLP, x []float64) ([]float64, *denseTape) {
	tape := &denseTape{}
	cur := x
	for _, l := range n.layers {
		pre := make([]float64, l.out)
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				sum += row[i] * v
			}
			pre[o] = sum
		}
		post := make([]float64, l.out)
		for o, p := range pre {
			post[o] = l.act.apply(p)
		}
		tape.inputs = append(tape.inputs, cur)
		tape.pre = append(tape.pre, pre)
		tape.post = append(tape.post, post)
		cur = post
	}
	return cur, tape
}

func denseBackward(n *MLP, tape *denseTape, gradOut []float64) []float64 {
	grad := append([]float64(nil), gradOut...)
	for li := len(n.layers) - 1; li >= 0; li-- {
		l := n.layers[li]
		in := tape.inputs[li]
		delta := make([]float64, l.out)
		for o := range delta {
			delta[o] = grad[o] * denseDerivative(l.act, tape.pre[li][o], tape.post[li][o])
		}
		for o := 0; o < l.out; o++ {
			gRow := l.gw[o*l.in : (o+1)*l.in]
			d := delta[o]
			for i, v := range in {
				gRow[i] += d * v
			}
			l.gb[o] += d
		}
		next := make([]float64, l.in)
		for o := 0; o < l.out; o++ {
			row := l.w[o*l.in : (o+1)*l.in]
			d := delta[o]
			for i := range next {
				next[i] += d * row[i]
			}
		}
		grad = next
	}
	return grad
}

func denseStep(n *MLP, lr float64) {
	n.step++
	bc1 := 1 - math.Pow(adamBeta1, float64(n.step))
	bc2 := 1 - math.Pow(adamBeta2, float64(n.step))
	for _, l := range n.layers {
		for i, g := range l.gw {
			l.mw[i] = adamBeta1*l.mw[i] + (1-adamBeta1)*g
			l.vw[i] = adamBeta2*l.vw[i] + (1-adamBeta2)*g*g
			l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + adamEps)
			l.gw[i] = 0
		}
		for i, g := range l.gb {
			l.mb[i] = adamBeta1*l.mb[i] + (1-adamBeta1)*g
			l.vb[i] = adamBeta2*l.vb[i] + (1-adamBeta2)*g*g
			l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + adamEps)
			l.gb[i] = 0
		}
	}
}

// gradKind is the shape of dLoss/dOutput a kernel case feeds Backward.
type gradKind int

const (
	gradOneHot gradKind = iota // DQN's TD error on the taken action
	gradDense                  // SWIRL's softmax policy gradient
	gradMasked                 // dense with ±0 at masked actions
	gradZero                   // all zero: a clipped PPO step
	numGradKinds
)

// kernelCase is one differential run: steps Adam steps, each over
// backwards Forward/Backward passes.
type kernelCase struct {
	seed            int64
	sizes           []int
	hidden, outAct  Activation
	density         float64 // share of input positions that ever carry a nonzero
	grad            gradKind
	backwards, step int
}

func (c kernelCase) String() string {
	return fmt.Sprintf("seed=%d sizes=%v act=%d/%d density=%.2f grad=%d backwards=%d steps=%d",
		c.seed, c.sizes, c.hidden, c.outAct, c.density, c.grad, c.backwards, c.step)
}

// checkKernel runs c through the sparse kernels and the dense reference on
// two copies of one network and fails on the first bit that differs.
func checkKernel(t *testing.T, c kernelCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	sparse := NewMLP(rng, c.sizes, c.hidden, c.outAct)
	dense := sparse.Clone()
	in, out := sparse.InputSize(), sparse.OutputSize()

	// Positions outside live stay zero for the whole run, so their weights
	// never see a gradient and Step's skip path is exercised.
	live := make([]bool, in)
	for i := range live {
		live[i] = c.density >= 1 || rng.Float64() < c.density
	}
	signedZero := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	lr := 1e-3 + 0.05*rng.Float64()

	for s := 0; s < c.step; s++ {
		for b := 0; b < c.backwards; b++ {
			x := make([]float64, in)
			for i := range x {
				if live[i] && (c.density >= 1 || rng.Float64() < 0.8) {
					x[i] = rng.NormFloat64()
				} else {
					x[i] = signedZero()
				}
			}
			gotOut, tape := sparse.ForwardTape(x)
			wantOut, refTape := denseForward(dense, x)
			mustSameBits(t, c, fmt.Sprintf("step %d pass %d: ForwardTape output", s, b), gotOut, wantOut)
			mustSameBits(t, c, fmt.Sprintf("step %d pass %d: Forward output", s, b), sparse.Forward(x), wantOut)

			g := make([]float64, out)
			switch c.grad {
			case gradOneHot:
				g[rng.Intn(out)] = rng.NormFloat64()
			case gradDense:
				for i := range g {
					g[i] = rng.NormFloat64()
				}
			case gradMasked:
				for i := range g {
					if rng.Intn(3) == 0 {
						g[i] = signedZero()
					} else {
						g[i] = rng.NormFloat64()
					}
				}
			}
			sparse.Backward(tape, g)
			denseBackward(dense, refTape, g)
			for li := range sparse.layers {
				where := fmt.Sprintf("step %d pass %d layer %d", s, b, li)
				mustSameBits(t, c, where+" gw", sparse.layers[li].gw, dense.layers[li].gw)
				mustSameBits(t, c, where+" gb", sparse.layers[li].gb, dense.layers[li].gb)
			}
		}
		sparse.Step(lr)
		denseStep(dense, lr)
		for li := range sparse.layers {
			sl, dl := sparse.layers[li], dense.layers[li]
			where := fmt.Sprintf("after step %d layer %d", s, li)
			for _, p := range []struct {
				name      string
				got, want []float64
			}{
				{"w", sl.w, dl.w}, {"b", sl.b, dl.b},
				{"mw", sl.mw, dl.mw}, {"vw", sl.vw, dl.vw},
				{"mb", sl.mb, dl.mb}, {"vb", sl.vb, dl.vb},
				{"gw", sl.gw, dl.gw}, {"gb", sl.gb, dl.gb},
			} {
				mustSameBits(t, c, where+" "+p.name, p.got, p.want)
			}
		}
	}
}

func mustSameBits(t *testing.T, c kernelCase, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %s: len %d, want %d", c, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%v: %s[%d] = %v (%#x), dense %v (%#x)",
				c, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchDense pins the sparse kernels to the dense reference over
// every activation pair, gradient shape and input density, on random
// shapes whose widths are often not multiples of four.
func TestKernelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	acts := []Activation{Identity, ReLU, Tanh}
	for _, density := range []float64{0, 0.05, 0.3, 0.7, 1} {
		for _, hidden := range acts {
			for _, outAct := range acts {
				for g := gradKind(0); g < numGradKinds; g++ {
					sizes := make([]int, 2+rng.Intn(3))
					for i := range sizes {
						sizes[i] = 1 + rng.Intn(23)
					}
					checkKernel(t, kernelCase{
						seed: rng.Int63(), sizes: sizes, hidden: hidden, outAct: outAct,
						density: density, grad: g, backwards: 1 + rng.Intn(3), step: 3,
					})
				}
			}
		}
	}
}

// TestKernelsMatchDenseAdvisorShape runs the DQN state shape (305 inputs,
// few of them nonzero) with a one-hot gradient, and the SWIRL actor shape
// with a dense gradient, over several Adam steps.
func TestKernelsMatchDenseAdvisorShape(t *testing.T) {
	checkKernel(t, kernelCase{seed: 1, sizes: []int{305, 64, 61}, hidden: ReLU, outAct: Identity,
		density: 0.1, grad: gradOneHot, backwards: 8, step: 6})
	checkKernel(t, kernelCase{seed: 2, sizes: []int{306, 64, 61}, hidden: Tanh, outAct: Identity,
		density: 0.1, grad: gradDense, backwards: 4, step: 6})
}

// FuzzMLPKernel drives the differential check from fuzzed shapes, seeds,
// densities and modes. dims gives one layer width per byte (2–4 layers);
// mode packs the two activations, the gradient shape and the Backward
// calls per Step. The checked-in corpus in testdata/fuzz/FuzzMLPKernel
// covers each activation and gradient shape once.
func FuzzMLPKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dims []byte, density, mode byte) {
		if len(dims) < 2 {
			return
		}
		if len(dims) > 4 {
			dims = dims[:4]
		}
		sizes := make([]int, len(dims))
		for i, d := range dims {
			sizes[i] = 1 + int(d)%48
		}
		checkKernel(t, kernelCase{
			seed:      seed,
			sizes:     sizes,
			hidden:    Activation(mode % 3),
			outAct:    Activation(mode / 3 % 3),
			density:   float64(density) / 255,
			grad:      gradKind(mode / 9 % byte(numGradKinds)),
			backwards: 1 + int(mode/36%3),
			step:      2,
		})
	})
}
