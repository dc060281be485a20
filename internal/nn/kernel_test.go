package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/snap"
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
			for i, v := range cur {
				sum += l.w[l.at(o, i)] * v
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
			d := delta[o]
			for i, v := range in {
				l.gw[l.at(o, i)] += d * v
			}
			l.gb[o] += d
		}
		next := make([]float64, l.in)
		for o := 0; o < l.out; o++ {
			d := delta[o]
			for i := range next {
				next[i] += d * l.w[l.at(o, i)]
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

// gradKind is the shape of dLoss/dOutput a kernel case feeds BackwardBatch.
type gradKind int

const (
	gradOneHot gradKind = iota // DQN's TD error on the taken action
	gradDense                  // SWIRL's softmax policy gradient
	gradMasked                 // dense with ±0 at masked actions
	gradZero                   // all zero: a clipped PPO step
	numGradKinds
)

// twist is what a kernel case does to the sparse network mid-training, on
// top of the plain ForwardBatch/BackwardBatch/Step cycle. Every twist acts
// in step 1.
type twist int

const (
	twistNone      twist = iota
	twistClone           // continue on a Clone taken before step 1
	twistCodec           // Encode/DecodeMLP after step 1's first pass, gradients pending
	twistSetParams       // reinstall the initial parameters on both before step 1
	twistDeadCols        // step 1's batch keeps half the live input positions at zero
	twistRelease         // ReleaseTape before step 1
	numTwists
)

// sampleKind is how one sample of a batch relates to the batch's shared
// input prefix.
type sampleKind int

const (
	sampleShared   sampleKind = iota // the shared prefix, then its own tail
	sampleDiverge                    // the shared prefix with its first nonzero zeroed
	sampleRevalue                    // the shared prefix with one nonzero given another value
	sampleDup                        // the previous sample's input and gradient slices again
	sampleNilGrad                    // the shared prefix, and a nil gradient
	numSampleKinds                   // as a mix: a random kind per sample
)

// kernelCase is one differential run: steps Adam steps, each over
// backwards ForwardBatch/BackwardBatch passes of batch samples.
type kernelCase struct {
	seed            int64
	sizes           []int
	hidden, outAct  Activation
	density         float64 // share of input positions that ever carry a nonzero
	grad            gradKind
	backwards, step int
	twist           twist

	batch  int        // samples per pass; 0 means 1
	prefix int        // leading input positions every sample of a pass shares
	mix    sampleKind // the kind of every sample; the first is never a duplicate
}

func (c kernelCase) String() string {
	return fmt.Sprintf("seed=%d sizes=%v act=%d/%d density=%.2f grad=%d backwards=%d steps=%d twist=%d batch=%d prefix=%d mix=%d",
		c.seed, c.sizes, c.hidden, c.outAct, c.density, c.grad, c.backwards, c.step, c.twist, c.batch, c.prefix, c.mix)
}

// codecRoundTrip returns n after an Encode/DecodeMLP round trip.
func codecRoundTrip(t *testing.T, n *MLP) *MLP {
	t.Helper()
	var e snap.Encoder
	n.Encode(&e)
	d, err := snap.Open(e.Seal("nn.test"), "nn.test")
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
	return got
}

// checkLive fails when a weight outside its layer's live columns carries a
// nonzero gradient or moment: Step would skip a weight it must update.
func checkLive(t *testing.T, c kernelCase, what string, n *MLP) {
	t.Helper()
	for li, l := range n.layers {
		marked := 0
		for _, ok := range l.live {
			if ok {
				marked++
			}
		}
		if marked != len(l.cols) || len(l.live) != l.in {
			t.Fatalf("%v: %s layer %d: %d live marks, %d cols, %d inputs", c, what, li, marked, len(l.cols), l.in)
		}
		for j := range l.w {
			if !l.live[l.col(j)] && (l.gw[j] != 0 || l.mw[j] != 0 || l.vw[j] != 0) {
				t.Fatalf("%v: %s layer %d: weight %d of dead column %d has g=%v m=%v v=%v",
					c, what, li, j, l.col(j), l.gw[j], l.mw[j], l.vw[j])
			}
		}
	}
}

// checkKernel runs c through the sparse kernels and the dense reference on
// two copies of one network and fails on the first bit that differs. The
// dense reference runs a pass's samples one at a time, in order.
func checkKernel(t *testing.T, c kernelCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	sparse := NewMLP(rng, c.sizes, c.hidden, c.outAct)
	dense := sparse.Clone()
	in, out := sparse.InputSize(), sparse.OutputSize()
	batch, prefix := max(c.batch, 1), min(c.prefix, in)

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
	input := func(dead bool) []float64 {
		x := make([]float64, in)
		for i := range x {
			if live[i] && !(dead && i%2 == 0) && (c.density >= 1 || rng.Float64() < 0.8) {
				x[i] = rng.NormFloat64()
			} else {
				x[i] = signedZero()
			}
		}
		return x
	}
	gradient := func() []float64 {
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
		return g
	}
	lr := 1e-3 + 0.05*rng.Float64()
	initial := sparse.Params()

	for s := 0; s < c.step; s++ {
		if s == 1 {
			switch c.twist {
			case twistClone:
				sparse = sparse.Clone()
			case twistSetParams:
				sparse.SetParams(initial)
				dense.SetParams(initial)
			case twistRelease:
				sparse.ReleaseTape()
			}
		}
		dead := s == 1 && c.twist == twistDeadCols
		for b := 0; b < c.backwards; b++ {
			if s == 1 && b == 1 && c.twist == twistCodec {
				sparse = codecRoundTrip(t, sparse)
			}
			shared := input(dead)
			xs, grads := make([][]float64, batch), make([][]float64, batch)
			for k := range xs {
				kind := c.mix
				if kind == numSampleKinds {
					kind = sampleKind(rng.Intn(int(numSampleKinds)))
				}
				if k == 0 && kind == sampleDup {
					kind = sampleShared
				}
				if kind == sampleDup {
					xs[k], grads[k] = xs[k-1], grads[k-1]
					continue
				}
				x := input(dead)
				copy(x[:prefix], shared)
				var nz []int
				for i, v := range x {
					if v != 0 {
						nz = append(nz, i)
					}
				}
				switch {
				case kind == sampleDiverge && len(nz) > 0:
					x[nz[0]] = signedZero()
				case kind == sampleRevalue && len(nz) > 0:
					x[nz[rng.Intn(len(nz))]] = rng.NormFloat64()
				}
				xs[k] = x
				if kind != sampleNilGrad {
					grads[k] = gradient()
				}
			}

			gotOuts, tape := sparse.ForwardBatch(xs)
			if len(gotOuts) != batch {
				t.Fatalf("%v: step %d pass %d: %d outputs for %d samples", c, s, b, len(gotOuts), batch)
			}
			for k, x := range xs {
				where := fmt.Sprintf("step %d pass %d sample %d", s, b, k)
				wantOut, refTape := denseForward(dense, x)
				mustSameBits(t, c, where+": ForwardBatch output", gotOuts[k], wantOut)
				mustSameBits(t, c, where+": Forward output", sparse.Forward(x), wantOut)
				if grads[k] != nil {
					denseBackward(dense, refTape, grads[k])
				}
			}
			sparse.BackwardBatch(tape, grads)
			checkLive(t, c, fmt.Sprintf("step %d pass %d", s, b), sparse)
			for li := range sparse.layers {
				where := fmt.Sprintf("step %d pass %d layer %d", s, b, li)
				mustSameBits(t, c, where+" gw", sparse.layers[li].gw, dense.layers[li].gw)
				mustSameBits(t, c, where+" gb", sparse.layers[li].gb, dense.layers[li].gb)
			}
		}
		if s == 1 && c.backwards == 1 && c.twist == twistCodec {
			sparse = codecRoundTrip(t, sparse)
		}
		sparse.Step(lr)
		denseStep(dense, lr)
		checkLive(t, c, fmt.Sprintf("after step %d", s), sparse)
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

// TestKernelsMatchDenseTwists pins the live-column state of Step to the
// dense reference across each way a network's state is carried or changed
// mid-training: Clone, a codec round trip with gradients pending, SetParams,
// a batch that leaves previously live columns at zero, and a released tape.
func TestKernelsMatchDenseTwists(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	acts := []Activation{Identity, ReLU, Tanh}
	for tw := twist(1); tw < numTwists; tw++ {
		for _, density := range []float64{0.05, 0.3, 1} {
			for g := gradKind(0); g < numGradKinds; g++ {
				sizes := make([]int, 2+rng.Intn(3))
				for i := range sizes {
					sizes[i] = 1 + rng.Intn(23)
				}
				checkKernel(t, kernelCase{
					seed: rng.Int63(), sizes: sizes, hidden: acts[rng.Intn(3)], outAct: acts[rng.Intn(3)],
					density: density, grad: g, backwards: 1 + rng.Intn(3), step: 3, twist: tw,
				})
			}
		}
	}
}

// TestKernelsMatchDenseAdvisorShape runs the DQN state shape (305 inputs,
// few of them nonzero) with a one-hot gradient, and the SWIRL actor shape
// with a dense gradient, over several Adam steps; then the SWIRL shape
// through a codec round trip and the DQN shape through a batch that leaves
// live columns at zero.
func TestKernelsMatchDenseAdvisorShape(t *testing.T) {
	checkKernel(t, kernelCase{seed: 1, sizes: []int{305, 64, 61}, hidden: ReLU, outAct: Identity,
		density: 0.1, grad: gradOneHot, backwards: 8, step: 6})
	checkKernel(t, kernelCase{seed: 2, sizes: []int{306, 64, 61}, hidden: Tanh, outAct: Identity,
		density: 0.1, grad: gradDense, backwards: 4, step: 6})
	checkKernel(t, kernelCase{seed: 3, sizes: []int{306, 64, 61}, hidden: Tanh, outAct: Identity,
		density: 0.4, grad: gradMasked, backwards: 4, step: 4, twist: twistCodec})
	checkKernel(t, kernelCase{seed: 4, sizes: []int{305, 64, 61}, hidden: ReLU, outAct: Identity,
		density: 0.1, grad: gradOneHot, backwards: 8, step: 4, twist: twistDeadCols})
}

// TestKernelsMatchDenseBatch pins ForwardBatch and BackwardBatch to the
// dense reference run one sample at a time, over batches of 1, 2 and 32
// whose samples share an input prefix, diverge at their first nonzero, hold
// another value at a shared index, repeat the previous sample, or carry a
// nil gradient, one kind per batch or a random kind per sample.
func TestKernelsMatchDenseBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	acts := []Activation{Identity, ReLU, Tanh}
	for _, batch := range []int{1, 2, 32} {
		for mix := sampleKind(0); mix <= numSampleKinds; mix++ {
			for _, density := range []float64{0.05, 0.3, 1} {
				sizes := make([]int, 2+rng.Intn(3))
				for i := range sizes {
					sizes[i] = 1 + rng.Intn(23)
				}
				checkKernel(t, kernelCase{
					seed: rng.Int63(), sizes: sizes, hidden: acts[rng.Intn(3)], outAct: acts[rng.Intn(3)],
					density: density, grad: gradKind(rng.Intn(int(numGradKinds))),
					backwards: 1 + rng.Intn(2), step: 3, twist: twist(rng.Intn(int(numTwists))),
					batch: batch, prefix: rng.Intn(sizes[0] + 1), mix: mix,
				})
			}
		}
	}
}

// TestKernelsMatchDenseAdvisorBatch runs DQN's 32-sample minibatch, whose
// states share the 244 workload-feature entries, and a SWIRL PPO epoch of
// four steps through the actor, with the advisors' sample mixes.
func TestKernelsMatchDenseAdvisorBatch(t *testing.T) {
	checkKernel(t, kernelCase{seed: 5, sizes: []int{305, 64, 61}, hidden: ReLU, outAct: Identity,
		density: 0.3, grad: gradOneHot, backwards: 2, step: 4, batch: 32, prefix: 244, mix: numSampleKinds})
	checkKernel(t, kernelCase{seed: 6, sizes: []int{306, 64, 61}, hidden: Tanh, outAct: Identity,
		density: 0.3, grad: gradMasked, backwards: 1, step: 4, batch: 4, prefix: 244, mix: numSampleKinds})
	checkKernel(t, kernelCase{seed: 7, sizes: []int{306, 64, 1}, hidden: Tanh, outAct: Identity,
		density: 0.3, grad: gradDense, backwards: 1, step: 4, batch: 4, prefix: 244, mix: sampleShared})
}

// TestKernelsMatchDenseLongRun steps a network past step 356, where Adam's
// first bias correction 1 − 0.9^step rounds to exactly 1 and Step stops
// dividing by it.
func TestKernelsMatchDenseLongRun(t *testing.T) {
	if bc1 := 1 - math.Pow(adamBeta1, 356); bc1 != 1 {
		t.Fatalf("1 - 0.9^356 = %v, want exactly 1", bc1)
	}
	if bc1 := 1 - math.Pow(adamBeta1, 355); bc1 == 1 {
		t.Fatal("1 - 0.9^355 is exactly 1; the cut starts earlier than documented")
	}
	checkKernel(t, kernelCase{seed: 8, sizes: []int{9, 7, 5}, hidden: Tanh, outAct: Identity,
		density: 0.6, grad: gradMasked, backwards: 1, step: 400, batch: 3, prefix: 4, mix: numSampleKinds})
}

// FuzzMLPKernel drives the differential check from fuzzed shapes, seeds,
// densities, modes, twists and batches. dims gives one layer width per byte
// (2–4 layers); mode packs the two activations, the gradient shape and the
// BackwardBatch calls per Step; batch gives 1–32 samples per pass and prefix
// the share of input positions they share, with a random kind per sample.
// Each input runs with the kernels the CPU dispatches to, then again with
// the generic ones. The checked-in corpus in testdata/fuzz/FuzzMLPKernel
// covers each activation, gradient shape and twist once.
func FuzzMLPKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dims []byte, density, mode, tw, batch, prefix byte) {
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
		c := kernelCase{
			seed:      seed,
			sizes:     sizes,
			hidden:    Activation(mode % 3),
			outAct:    Activation(mode / 3 % 3),
			density:   float64(density) / 255,
			grad:      gradKind(mode / 9 % byte(numGradKinds)),
			backwards: 1 + int(mode/36%3),
			step:      3,
			twist:     twist(tw % byte(numTwists)),
			batch:     1 + int(batch)%32,
			prefix:    int(prefix) * sizes[0] / 255,
			mix:       numSampleKinds,
		}
		checkKernel(t, c)
		defer setDispatch(false)()
		checkKernel(t, c)
	})
}

// TestForwardScratchMatchesForward pins ForwardScratch to Forward and the
// dense reference, bit for bit, with one Scratch carried from pass to pass
// across networks that grow and shrink it: nothing a pass leaves in the
// Scratch may reach the next pass's output.
func TestForwardScratchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	acts := []Activation{Identity, ReLU, Tanh}
	var s Scratch
	shapes := [][]int{{305, 64, 61}, {3, 5}, {61, 64, 61}, {7, 23, 2, 9}, {305, 64, 61}}
	for _, density := range []float64{0, 0.05, 0.3, 1} {
		for _, sizes := range shapes {
			n := NewMLP(rng, sizes, acts[rng.Intn(3)], acts[rng.Intn(3)])
			for range 4 {
				x := make([]float64, sizes[0])
				for i := range x {
					if rng.Float64() < density {
						x[i] = kernelValue(rng)
					}
				}
				c := kernelCase{sizes: sizes, density: density}
				want, _ := denseForward(n, x)
				mustSameBits(t, c, "Forward", n.Forward(x), want)
				mustSameBits(t, c, "ForwardScratch", n.ForwardScratch(x, &s), want)
			}
		}
	}
}

// setDispatch sends every kernel to its AVX2 form where the CPU has one
// (avx2 true) or to its generic form (avx2 false), and returns the undo.
// Tests that call it must not run in parallel.
func setDispatch(avx2 bool) (undo func()) {
	was := useAVX2
	useAVX2 = avx2 && hasAVX2()
	return func() { useAVX2 = was }
}

// TestKernelsMatchDenseGeneric runs the dense-reference suite once more with
// every kernel forced to its generic form, the only form on architectures
// without the AVX2 kernels.
func TestKernelsMatchDenseGeneric(t *testing.T) {
	defer setDispatch(false)()
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Dense", TestKernelsMatchDense},
		{"Twists", TestKernelsMatchDenseTwists},
		{"AdvisorShape", TestKernelsMatchDenseAdvisorShape},
		{"Batch", TestKernelsMatchDenseBatch},
		{"AdvisorBatch", TestKernelsMatchDenseAdvisorBatch},
		{"LongRun", TestKernelsMatchDenseLongRun},
		{"ForwardScratch", TestForwardScratchMatchesForward},
	} {
		t.Run(tc.name, tc.run)
	}
}

// kernelValue draws a value that is often an edge case for the kernels:
// ±0, a subnormal, or a normal value of either sign.
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(1+uint64(rng.Int63n(1<<52))) * float64(1-2*rng.Intn(2))
	default:
		return rng.NormFloat64()
	}
}

func kernelValues(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = kernelValue(rng)
	}
	return xs
}

// sameBits reports whether got and want hold the same bits.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// kernelWidths are the lengths the AVX2 kernels are compared at: every
// length up to 9, the widths of DQN's and SWIRL's layers, and widths past a
// 32-wide block that are not multiples of four.
var kernelWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 33, 61, 64, 67}

// TestKernelsAVX2MatchGeneric compares each AVX2 kernel bit for bit with its
// generic twin on edge-case values: ±0, subnormals, parameters whose
// gradient and moments are all zero next to live ones, and Adam with bc1
// both below 1 and exactly 1.
func TestKernelsAVX2MatchGeneric(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	defer setDispatch(true)()
	rng := rand.New(rand.NewSource(25))

	t.Run("adam", func(t *testing.T) {
		for _, n := range kernelWidths {
			for _, dead := range []float64{0, 0.5, 1} {
				p, g, m, v := kernelValues(rng, n), kernelValues(rng, n), kernelValues(rng, n), make([]float64, n)
				for i := range v {
					v[i] = math.Abs(kernelValue(rng))
					if rng.Float64() < dead {
						g[i], m[i], v[i] = 0, 0, 0
					}
				}
				gp, gg, gm, gv := slicesClone(p), slicesClone(g), slicesClone(m), slicesClone(v)
				for step := 1; step <= 400; step += 1 + 50*rng.Intn(2) {
					k := newAdamArgs(1e-3+0.05*rng.Float64(), 1-math.Pow(adamBeta1, float64(step)), 1-math.Pow(adamBeta2, float64(step)))
					adam(p, g, m, v, &k)
					adamGeneric(gp, gg, gm, gv, &k)
					for _, a := range []struct {
						name      string
						got, want []float64
					}{{"p", p, gp}, {"g", g, gg}, {"m", m, gm}, {"v", v, gv}} {
						if !sameBits(a.got, a.want) {
							t.Fatalf("n=%d dead=%.1f step %d bc1=%v: %s = %v, generic %v", n, dead, step, k.bc1, a.name, a.got, a.want)
						}
					}
					// The next step's gradient, with the dead lanes kept dead.
					for i := range g {
						if gm[i] != 0 || gv[i] != 0 || rng.Intn(2) == 0 {
							g[i] = kernelValue(rng)
							gg[i] = g[i]
						}
					}
				}
			}
		}
	})

	t.Run("affine", func(t *testing.T) {
		for _, out := range kernelWidths[1:] {
			for _, in := range []int{1, 2, 5, 9, 40} {
				for _, nnz := range []int{0, 1, 2, 3, 5, 9, in} {
					nnz = min(nnz, in)
					w, x, start := kernelValues(rng, in*out), kernelValues(rng, in), kernelValues(rng, out)
					nz := make([]int32, 0, nnz)
					for _, i := range rng.Perm(in)[:nnz] {
						nz = append(nz, int32(i))
					}
					slices.Sort(nz)
					got, want := slicesClone(start), slicesClone(start)
					affine(got, w, x, nz)
					affineGeneric(want, w, x, nz)
					if !sameBits(got, want) {
						t.Fatalf("out=%d in=%d nz=%v: %v, generic %v", out, in, nz, got, want)
					}
				}
			}
		}
	})

	t.Run("grad", func(t *testing.T) {
		for _, width := range kernelWidths[1:] {
			for _, batch := range []int{1, 2, 5, 9} {
				in := 12
				g, x, delta := kernelValues(rng, in*width), kernelValues(rng, in), kernelValues(rng, batch*width)
				for _, nnz := range []int{0, 1, 3, 5, 9, in} {
					nz := make([]int32, 0, nnz)
					for _, i := range rng.Perm(in)[:nnz] {
						nz = append(nz, int32(i))
					}
					slices.Sort(nz)
					var active []int
					for s := 0; s < batch; s++ {
						if rng.Intn(4) != 0 {
							active = append(active, s)
						}
					}
					got, want := slicesClone(g), slicesClone(g)
					grad(got, x, nz, delta, active, width)
					gradGeneric(want, x, nz, delta, active, width)
					if !sameBits(got, want) {
						t.Fatalf("width=%d nz=%v active=%v: %v, generic %v", width, nz, active, got, want)
					}
				}
			}
		}
	})

	t.Run("nonzeros", func(t *testing.T) {
		for _, n := range append(slicesClone(kernelWidths), 305) {
			x := kernelValues(rng, n)
			for i := range x {
				switch rng.Intn(12) {
				case 0:
					x[i] = math.NaN()
				case 1:
					x[i] = math.Inf(1 - 2*rng.Intn(2))
				}
			}
			for _, prior := range []int{0, 3} {
				dst := make([]int32, prior, prior+rng.Intn(n+1))
				got := nonzeros(slicesClone(dst), x)
				want := nonzerosGeneric(dst, x, 0)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d x=%v: %v, generic %v", n, x, got, want)
				}
			}
		}
	})
}

func slicesClone[S ~[]E, E any](s S) S { return append(S(nil), s...) }
