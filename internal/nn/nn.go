// Package nn is a minimal neural-network library: dense multilayer
// perceptrons over float64 vectors with backpropagation and Adam. It is the
// stand-in for the deep-learning stack (PyTorch on GPU servers) the paper's
// learned index advisors are built on — the Q-networks of DQN and DRLindex
// (the two kinds of internal/advisor/dqn) and SWIRL's PPO actor-critic
// (internal/advisor/swirl) train on it.
//
// Training cuts only work whose result is already known, so every output,
// gradient and parameter keeps the bits the dense loops give (DESIGN.md
// §15): the kernels skip exact-zero terms, Step visits only the input
// columns whose weights ever got a gradient, and a network reuses its tape
// and gradient scratch from one training pass to the next.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

const (
	Identity Activation = iota
	ReLU
	Tanh
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivative returns the slope at the pre-activation whose output is y.
// ReLU's output is positive exactly where its input is, so y decides its
// slope as the input would.
func (a Activation) derivative(y float64) float64 {
	switch a {
	case ReLU:
		if y <= 0 {
			return 0
		}
		return 1
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// layer is one dense layer with Adam state.
type layer struct {
	in, out int
	w       []float64 // out×in, row-major
	b       []float64
	act     Activation

	gw, gb []float64 // accumulated gradients
	mw, vw []float64 // Adam moments for w
	mb, vb []float64 // Adam moments for b

	// live marks the input columns whose weights ever got a gradient, and
	// cols lists them. Outside cols every weight's gradient and both moments
	// are +0, so Step leaves those weights alone (DESIGN.md §15.3).
	live []bool
	cols []int32

	dIn []float64 // Backward's input-gradient scratch
}

func newLayer(in, out int, act Activation, rng *rand.Rand) *layer {
	l := &layer{
		in: in, out: out, act: act,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
		mw: make([]float64, in*out),
		vw: make([]float64, in*out),
		mb: make([]float64, out),
		vb: make([]float64, out),

		live: make([]bool, in),
	}
	// He/Xavier-style scaled initialization.
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	return l
}

// markLive adds the columns nz to the live set.
func (l *layer) markLive(nz []int32) {
	if len(l.cols) == l.in {
		return
	}
	for _, i := range nz {
		if !l.live[i] {
			l.live[i] = true
			l.cols = append(l.cols, i)
		}
	}
}

// MLP is a feed-forward network. Forward may run concurrently on a network
// nothing trains meanwhile; every other method needs exclusive use.
type MLP struct {
	layers []*layer
	step   int

	// Training scratch, reused from pass to pass and never copied.
	tape   Tape       // ForwardTape's record
	deltas []rowDelta // Backward's nonzero deltas
}

// NewMLP builds a network with the given layer sizes (len >= 2): hidden
// layers use hiddenAct, the output layer uses outAct.
func NewMLP(rng *rand.Rand, sizes []int, hiddenAct, outAct Activation) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	n := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i == len(sizes)-2 {
			act = outAct
		}
		n.layers = append(n.layers, newLayer(sizes[i], sizes[i+1], act, rng))
	}
	// Damp the output layer's initialization so fresh networks emit
	// near-zero values: value/Q heads then start below the reward scale
	// instead of drowning it in noise.
	last := n.layers[len(n.layers)-1]
	for i := range last.w {
		last.w[i] *= 0.1
	}
	return n
}

// InputSize returns the expected input dimensionality.
func (n *MLP) InputSize() int { return n.layers[0].in }

// OutputSize returns the output dimensionality.
func (n *MLP) OutputSize() int { return n.layers[len(n.layers)-1].out }

// Tape records one forward pass for backpropagation. Each network owns one
// Tape that every ForwardTape call overwrites.
type Tape struct {
	layers []tapeLayer
}

// tapeLayer is one layer's record on a Tape.
type tapeLayer struct {
	in  []float64 // the layer's input
	nz  []int32   // ascending indices of in's nonzero entries
	out []float64 // the layer's output, after activation
}

// Forward runs the network and returns the output (no tape). It writes
// nothing into the network, so concurrent Forward calls may share one MLP
// as long as nothing trains it meanwhile.
func (n *MLP) Forward(x []float64) []float64 {
	return n.forward(x, nil)
}

// ForwardTape runs the network recording a tape for Backward. The tape and
// the returned output are the network's own buffers: they stay valid until
// the next ForwardTape on this network, which overwrites them. The tape
// refers to x, so x must not change before Backward.
func (n *MLP) ForwardTape(x []float64) ([]float64, *Tape) {
	if n.tape.layers == nil {
		n.tape.layers = make([]tapeLayer, len(n.layers))
	}
	return n.forward(x, &n.tape), &n.tape
}

// The kernels below skip every term whose value is an exact zero and keep
// each remaining sum in its dense index order, so every output, gradient and
// parameter is bit-identical to the dense loops' (DESIGN.md §15).

func (n *MLP) forward(x []float64, tape *Tape) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	var nz []int32
	if tape == nil {
		nz = make([]int32, 0, len(x))
	}
	cur := x
	for li, l := range n.layers {
		var out []float64
		if tape != nil {
			t := &tape.layers[li]
			if t.out == nil {
				t.out = make([]float64, l.out)
			}
			t.in, t.nz = cur, nonzeros(t.nz[:0], cur)
			nz, out = t.nz, t.out
		} else {
			nz = nonzeros(nz[:0], cur)
			out = make([]float64, l.out)
		}
		l.affine(out, cur, nz)
		for o, p := range out {
			out[o] = l.act.apply(p)
		}
		cur = out
	}
	return cur
}

// nonzeros appends the indices of x's nonzero entries to dst, ascending.
func nonzeros(dst []int32, x []float64) []int32 {
	for i, v := range x {
		if v != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// affine sets out[o] = b[o] + Σ w[o][i]·x[i] over the nonzero inputs nz, in
// ascending i. Four output rows share one pass over nz, each summing into
// its own accumulator.
func (l *layer) affine(out, x []float64, nz []int32) {
	in := l.in
	o := 0
	for ; o+4 <= l.out; o += 4 {
		r0 := l.w[o*in : (o+1)*in]
		r1 := l.w[(o+1)*in : (o+2)*in]
		r2 := l.w[(o+2)*in : (o+3)*in]
		r3 := l.w[(o+3)*in : (o+4)*in]
		s0, s1, s2, s3 := l.b[o], l.b[o+1], l.b[o+2], l.b[o+3]
		for _, i := range nz {
			v := x[i]
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < l.out; o++ {
		row := l.w[o*in : (o+1)*in]
		s := l.b[o]
		for _, i := range nz {
			s += row[i] * x[i]
		}
		out[o] = s
	}
}

// Backward accumulates parameter gradients for one recorded pass given
// dLoss/dOutput, and adds the input columns that carried a gradient to each
// layer's live set. It does not compute dLoss/dInput. Its scratch (the
// nonzero deltas and each hidden layer's input gradient) belongs to the
// network and is reused by the next call.
func (n *MLP) Backward(tape *Tape, gradOut []float64) {
	if len(gradOut) != n.OutputSize() {
		panic(fmt.Sprintf("nn: grad size %d, want %d", len(gradOut), n.OutputSize()))
	}
	grad := gradOut
	for li := len(n.layers) - 1; li >= 0; li-- {
		l, t := n.layers[li], tape.layers[li]
		// delta = grad ⊙ act'(pre), kept only where it is nonzero.
		deltas := n.deltas[:0]
		for o, g := range grad {
			if d := g * l.act.derivative(t.out[o]); d != 0 {
				deltas = append(deltas, rowDelta{o, d})
			}
		}
		n.deltas = deltas
		if len(deltas) > 0 {
			l.markLive(t.nz)
		}
		for _, rd := range deltas {
			gRow := l.gw[rd.row*l.in : (rd.row+1)*l.in]
			for _, i := range t.nz {
				gRow[i] += rd.d * t.in[i]
			}
			l.gb[rd.row] += rd.d
		}
		if li == 0 {
			return
		}
		if l.dIn == nil {
			l.dIn = make([]float64, l.in)
		}
		next := l.dIn
		clear(next)
		for _, rd := range deltas {
			row := l.w[rd.row*l.in : (rd.row+1)*l.in]
			for i, w := range row {
				next[i] += rd.d * w
			}
		}
		grad = next
	}
}

// rowDelta is one output row's nonzero delta in Backward.
type rowDelta struct {
	row int
	d   float64
}

// Adam hyperparameters.
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// Step applies one Adam update with the accumulated gradients (optionally
// averaged over batch size by the caller pre-scaling) and zeroes them. It
// visits the weights of live input columns only, row by row, until every
// column is live; biases are always visited.
func (n *MLP) Step(lr float64) {
	n.step++
	bc1 := 1 - math.Pow(adamBeta1, float64(n.step))
	bc2 := 1 - math.Pow(adamBeta2, float64(n.step))
	for _, l := range n.layers {
		if len(l.cols) == l.in {
			adam(l.w, l.gw, l.mw, l.vw, lr, bc1, bc2)
		} else if len(l.cols) > 0 {
			for o := 0; o < l.out; o++ {
				r := o * l.in
				adamCols(l.w[r:r+l.in], l.gw[r:r+l.in], l.mw[r:r+l.in], l.vw[r:r+l.in], l.cols, lr, bc1, bc2)
			}
		}
		adam(l.b, l.gb, l.mb, l.vb, lr, bc1, bc2)
	}
}

// adam updates parameters p from gradients g and moments m, v, and zeroes
// g. A parameter whose gradient and moments are all zero is skipped: its
// moments would stay zero and its update would be lr·0/ε = +0.
func adam(p, g, m, v []float64, lr, bc1, bc2 float64) {
	for i, gi := range g {
		if gi == 0 && m[i] == 0 && v[i] == 0 {
			continue
		}
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		p[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + adamEps)
		g[i] = 0
	}
}

// adamCols is adam over the indices cols only, written out rather than
// calling a per-element helper, which the compiler does not inline.
func adamCols(p, g, m, v []float64, cols []int32, lr, bc1, bc2 float64) {
	for _, i := range cols {
		gi := g[i]
		if gi == 0 && m[i] == 0 && v[i] == 0 {
			continue
		}
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		p[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + adamEps)
		g[i] = 0
	}
}

// ZeroGrad discards accumulated gradients.
func (n *MLP) ZeroGrad() {
	for _, l := range n.layers {
		for i := range l.gw {
			l.gw[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
}

// Params returns a flat copy of all parameters (weights then biases, layer
// by layer).
func (n *MLP) Params() []float64 { return n.AppendParams(nil) }

// AppendParams appends the flat parameter vector Params returns to dst, so
// a caller can keep parameters in a reused buffer.
func (n *MLP) AppendParams(dst []float64) []float64 {
	for _, l := range n.layers {
		dst = append(dst, l.w...)
		dst = append(dst, l.b...)
	}
	return dst
}

// SetParams installs a flat parameter vector produced by Params. It leaves
// gradients and Adam moments alone, so the live columns stay live.
func (n *MLP) SetParams(p []float64) {
	idx := 0
	for _, l := range n.layers {
		idx += copy(l.w, p[idx:idx+len(l.w)])
		idx += copy(l.b, p[idx:idx+len(l.b)])
	}
	if idx != len(p) {
		panic(fmt.Sprintf("nn: SetParams got %d values, want %d", len(p), idx))
	}
}

// Clone returns a deep copy (parameters and optimizer state).
func (n *MLP) Clone() *MLP {
	c := &MLP{step: n.step}
	for _, l := range n.layers {
		nl := &layer{
			in: l.in, out: l.out, act: l.act,
			w:  append([]float64(nil), l.w...),
			b:  append([]float64(nil), l.b...),
			gw: make([]float64, len(l.gw)),
			gb: make([]float64, len(l.gb)),
			mw: append([]float64(nil), l.mw...),
			vw: append([]float64(nil), l.vw...),
			mb: append([]float64(nil), l.mb...),
			vb: append([]float64(nil), l.vb...),

			live: append([]bool(nil), l.live...),
			cols: append([]int32(nil), l.cols...),
		}
		c.layers = append(c.layers, nl)
	}
	return c
}

// CopyParamsFrom copies parameters (not optimizer state) from o; the
// networks must have identical shapes. Used for DQN target networks.
func (n *MLP) CopyParamsFrom(o *MLP) {
	if len(o.layers) != len(n.layers) {
		panic(fmt.Sprintf("nn: CopyParamsFrom %d layers, want %d", len(o.layers), len(n.layers)))
	}
	for i, l := range n.layers {
		ol := o.layers[i]
		if len(ol.w) != len(l.w) || len(ol.b) != len(l.b) {
			panic(fmt.Sprintf("nn: CopyParamsFrom layer %d shape %dx%d, want %dx%d", i, ol.out, ol.in, l.out, l.in))
		}
		copy(l.w, ol.w)
		copy(l.b, ol.b)
	}
}

// Softmax returns the softmax of logits, numerically stabilized. Entries at
// indices where mask is false receive probability 0; at least one index must
// be unmasked. A nil mask means all entries are valid.
func Softmax(logits []float64, mask []bool) []float64 {
	max := math.Inf(-1)
	for i, v := range logits {
		if (mask == nil || mask[i]) && v > max {
			max = v
		}
	}
	out := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		if mask == nil || mask[i] {
			out[i] = math.Exp(v - max)
			sum += out[i]
		}
	}
	if sum == 0 {
		panic("nn: Softmax with no valid entries")
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SampleCategorical draws an index from a probability vector.
func SampleCategorical(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	last := 0
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		acc += p
		last = i
		if r < acc {
			return i
		}
	}
	return last
}

// Argmax returns the index of the largest unmasked value. A nil mask means
// all entries are valid; it returns -1 when everything is masked.
func Argmax(vals []float64, mask []bool) int {
	best, bestV := -1, math.Inf(-1)
	for i, v := range vals {
		if (mask == nil || mask[i]) && v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
