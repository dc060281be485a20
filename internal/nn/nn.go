// Package nn is a minimal neural-network library: dense multilayer
// perceptrons over float64 vectors with backpropagation and Adam. It is the
// stand-in for the deep-learning stack (PyTorch on GPU servers) the paper's
// learned index advisors are built on — the Q-networks of DQN and DRLindex
// (the two kinds of internal/advisor/dqn) and SWIRL's PPO actor-critic
// (internal/advisor/swirl) train on it.
//
// Training cuts only work whose result is already known, so every output,
// gradient and parameter keeps the bits the dense loops give (DESIGN.md
// §15): the kernels skip exact-zero terms, a batch sums the nonzero input
// prefix its samples share once, Step visits only the input columns whose
// weights ever got a gradient, and a network reuses its tape and gradient
// scratch from one training pass to the next.
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

	tape Tape // ForwardBatch's record and BackwardBatch's scratch, never copied
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

// Tape records one forward pass over a batch of samples for BackwardBatch,
// and holds BackwardBatch's scratch. Each network owns one Tape that every
// ForwardBatch call overwrites.
type Tape struct {
	n      int         // samples recorded
	layers []tapeLayer // one per network layer
	outs   [][]float64 // each sample's network output, a view of the last layer's out
	grads  [][]float64 // BackwardBatch's per-sample gradient at a hidden layer's output
	active []int       // BackwardBatch's samples with a nonzero delta in the current layer
}

// tapeLayer is one layer's record on a Tape. Per-sample rows of out, delta
// and dIn are stored one after another, sample 0 first.
type tapeLayer struct {
	in     [][]float64 // each sample's input to the layer
	nz     [][]int32   // ascending indices of each input's nonzero entries
	out    []float64   // the layer's outputs, after activation
	shared int         // how many leading nonzeros every sample shares (index and value)
	pre    []float64   // partial sums over the shared nonzeros

	delta []float64 // BackwardBatch's dLoss/dPre
	ds    []float64 // BackwardBatch's nonzero deltas of one row, in sample order
	dIn   []float64 // BackwardBatch's dLoss/dInput (hidden layers only)
}

// Forward runs the network and returns the output (no tape). It writes
// nothing into the network, so concurrent Forward calls may share one MLP
// as long as nothing trains it meanwhile.
func (n *MLP) Forward(x []float64) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	nz := make([]int32, 0, len(x))
	cur := x
	for _, l := range n.layers {
		nz = nonzeros(nz[:0], cur)
		out := append([]float64(nil), l.b...)
		l.affine(out, cur, nz)
		for o, p := range out {
			out[o] = l.act.apply(p)
		}
		cur = out
	}
	return cur
}

// ForwardBatch runs the network over every sample of xs, recording a tape
// for BackwardBatch, and returns each sample's output. The tape and the
// outputs are the network's own buffers: they stay valid until the next
// ForwardBatch on this network, which overwrites them. The tape refers to
// the samples, so they must not change before BackwardBatch. Each output
// has the bits Forward gives the same sample.
func (n *MLP) ForwardBatch(xs [][]float64) ([][]float64, *Tape) {
	t := &n.tape
	if t.layers == nil {
		t.layers = make([]tapeLayer, len(n.layers))
	}
	t.n = len(xs)
	for li, l := range n.layers {
		tl := &t.layers[li]
		tl.in = tl.in[:0]
		if li == 0 {
			for _, x := range xs {
				if len(x) != l.in {
					panic(fmt.Sprintf("nn: input size %d, want %d", len(x), l.in))
				}
				tl.in = append(tl.in, x)
			}
		} else {
			prev := t.layers[li-1].out
			for s := range xs {
				tl.in = append(tl.in, prev[s*l.in:(s+1)*l.in])
			}
		}
		for len(tl.nz) < len(xs) {
			tl.nz = append(tl.nz, nil)
		}
		for s, x := range tl.in {
			tl.nz[s] = nonzeros(tl.nz[s][:0], x)
		}
		tl.out = resize(tl.out, len(xs)*l.out)
		l.affineBatch(tl)
		for o, p := range tl.out {
			tl.out[o] = l.act.apply(p)
		}
	}
	last, width := t.layers[len(t.layers)-1].out, n.OutputSize()
	t.outs = t.outs[:0]
	for s := range xs {
		t.outs = append(t.outs, last[s*width:(s+1)*width])
	}
	return t.outs, t
}

// ReleaseTape drops the tape and BackwardBatch's scratch, so a network that
// is done training holds only its parameters and optimizer state. The next
// ForwardBatch allocates them again.
func (n *MLP) ReleaseTape() { n.tape = Tape{} }

// resize returns buf with length n, reallocating only when it is too short.
// The contents are left as they were.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// The kernels below skip every term whose value is an exact zero and keep
// each remaining sum in its dense index order, so every output, gradient and
// parameter is bit-identical to the dense loops' (DESIGN.md §15).

// nonzeros appends the indices of x's nonzero entries to dst, ascending.
func nonzeros(dst []int32, x []float64) []int32 {
	for i, v := range x {
		if v != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// affine adds Σ w[o][i]·x[i] over the nonzero inputs nz, in ascending i, to
// out[o], which holds the sum's starting value: the bias, or the partial sum
// over a shared prefix. Four output rows share one pass over nz, each summing
// into its own accumulator. The start comes in through out, not as one more
// slice, so the loop keeps every operand in a register.
func (l *layer) affine(out, x []float64, nz []int32) {
	in := l.in
	o := 0
	for ; o+4 <= l.out; o += 4 {
		r0 := l.w[o*in : (o+1)*in]
		r1 := l.w[(o+1)*in : (o+2)*in]
		r2 := l.w[(o+2)*in : (o+3)*in]
		r3 := l.w[(o+3)*in : (o+4)*in]
		s0, s1, s2, s3 := out[o], out[o+1], out[o+2], out[o+3]
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
		s := out[o]
		for _, i := range nz {
			s += row[i] * x[i]
		}
		out[o] = s
	}
}

// affineBatch sets every recorded sample's pre-activation in t.out. The
// samples' longest common prefix of (index, value) nonzeros adds the same
// terms in the same order to every sample's sums, so those partial sums are
// computed once and each sample adds only its own tail (DESIGN.md §15.4).
func (l *layer) affineBatch(t *tapeLayer) {
	t.shared = 0
	if len(t.in) == 0 {
		return
	}
	start := l.b
	if t.shared = sharedPrefix(t.in, t.nz); t.shared > 0 {
		t.pre = resize(t.pre, l.out)
		copy(t.pre, l.b)
		l.affine(t.pre, t.in[0], t.nz[0][:t.shared])
		start = t.pre
	}
	for s := range t.in {
		out := t.out[s*l.out : (s+1)*l.out]
		copy(out, start)
		l.affine(out, t.in[s], t.nz[s][t.shared:])
	}
}

// sharedPrefix returns how many leading nonzeros every sample shares with
// sample 0: the same index holding a value with the same bits.
func sharedPrefix(xs [][]float64, nzs [][]int32) int {
	x0, nz0 := xs[0], nzs[0]
	p := len(nz0)
	for s := 1; s < len(xs) && p > 0; s++ {
		x, nz := xs[s], nzs[s]
		if len(nz) < p {
			p = len(nz)
		}
		for k, i := range nz[:p] {
			if i != nz0[k] || math.Float64bits(x[i]) != math.Float64bits(x0[i]) {
				p = k
				break
			}
		}
	}
	return p
}

// accumulateShared adds d·x[i] for every d of ds, in order, to g[i] for
// each index i of nz. Four weights share one pass over ds, each summing into
// its own accumulator.
func accumulateShared(g, x []float64, nz []int32, ds []float64) {
	k := 0
	for ; k+4 <= len(nz); k += 4 {
		i0, i1, i2, i3 := nz[k], nz[k+1], nz[k+2], nz[k+3]
		v0, v1, v2, v3 := x[i0], x[i1], x[i2], x[i3]
		a0, a1, a2, a3 := g[i0], g[i1], g[i2], g[i3]
		for _, d := range ds {
			a0 += d * v0
			a1 += d * v1
			a2 += d * v2
			a3 += d * v3
		}
		g[i0], g[i1], g[i2], g[i3] = a0, a1, a2, a3
	}
	for ; k < len(nz); k++ {
		i := nz[k]
		v, a := x[i], g[i]
		for _, d := range ds {
			a += d * v
		}
		g[i] = a
	}
}

// BackwardBatch accumulates parameter gradients for the recorded batch given
// each sample's dLoss/dOutput, and adds the input columns that carried a
// gradient to each layer's live set. A nil grads[s] leaves sample s out. It
// does not compute dLoss/dInput. Each gradient element adds the samples'
// terms in sample order, as a pass per sample would, but the loops run row
// by row with the samples inside, so a weight or gradient row is loaded once
// per layer, not once per sample. Its scratch lives on the tape.
func (n *MLP) BackwardBatch(t *Tape, grads [][]float64) {
	if len(grads) != t.n {
		panic(fmt.Sprintf("nn: %d grads for a batch of %d", len(grads), t.n))
	}
	for _, g := range grads {
		if g != nil && len(g) != n.OutputSize() {
			panic(fmt.Sprintf("nn: grad size %d, want %d", len(g), n.OutputSize()))
		}
	}
	gs := grads
	for li := len(n.layers) - 1; li >= 0; li-- {
		l, tl := n.layers[li], &t.layers[li]
		// delta = grad ⊙ act'(pre); a sample whose deltas are all zero adds
		// nothing here or below.
		tl.delta = resize(tl.delta, t.n*l.out)
		active := t.active[:0]
		for s, g := range gs {
			if g == nil {
				continue
			}
			d, y := tl.delta[s*l.out:(s+1)*l.out], tl.out[s*l.out:(s+1)*l.out]
			nonzero := false
			for o, gv := range g {
				d[o] = gv * l.act.derivative(y[o])
				nonzero = nonzero || d[o] != 0
			}
			if nonzero {
				active = append(active, s)
				l.markLive(tl.nz[s])
			}
		}
		t.active = active
		for o := 0; o < l.out; o++ {
			gRow := l.gw[o*l.in : (o+1)*l.in]
			ds := tl.ds[:0]
			gb := l.gb[o]
			for _, s := range active {
				if d := tl.delta[s*l.out+o]; d != 0 {
					ds = append(ds, d)
					gb += d
				}
			}
			l.gb[o] = gb
			tl.ds = ds
			if len(ds) == 0 {
				continue
			}
			// The shared nonzeros have one index and value in every sample,
			// so each of their weights sums its samples' terms in a register;
			// the tails come after and touch other weights.
			accumulateShared(gRow, tl.in[0], tl.nz[0][:tl.shared], ds)
			for _, s := range active {
				d := tl.delta[s*l.out+o]
				if d == 0 {
					continue
				}
				x := tl.in[s]
				for _, i := range tl.nz[s][tl.shared:] {
					gRow[i] += d * x[i]
				}
			}
		}
		if li == 0 {
			return
		}
		tl.dIn = resize(tl.dIn, t.n*l.in)
		for _, s := range active {
			clear(tl.dIn[s*l.in : (s+1)*l.in])
		}
		for o := 0; o < l.out; o++ {
			row := l.w[o*l.in : (o+1)*l.in]
			for _, s := range active {
				d := tl.delta[s*l.out+o]
				if d == 0 {
					continue
				}
				next := tl.dIn[s*l.in : (s+1)*l.in]
				for i, w := range row {
					next[i] += d * w
				}
			}
		}
		t.grads = t.grads[:0]
		for range t.n {
			t.grads = append(t.grads, nil)
		}
		for _, s := range active {
			t.grads[s] = tl.dIn[s*l.in : (s+1)*l.in]
		}
		gs = t.grads
	}
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
// moments would stay zero and its update would be lr·0/ε = +0. The first
// moment's bias correction bc1 = 1 − 0.9^step rounds to exactly 1 from step
// 356 on, and x/1 is x, so the division is skipped there.
func adam(p, g, m, v []float64, lr, bc1, bc2 float64) {
	for i, gi := range g {
		if gi == 0 && m[i] == 0 && v[i] == 0 {
			continue
		}
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mh := m[i]
		if bc1 != 1 {
			mh /= bc1
		}
		p[i] -= lr * mh / (math.Sqrt(v[i]/bc2) + adamEps)
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
		mh := m[i]
		if bc1 != 1 {
			mh /= bc1
		}
		p[i] -= lr * mh / (math.Sqrt(v[i]/bc2) + adamEps)
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
