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
// scratch from one training pass to the next. Weights are stored
// input-major, and the hot loops run through AVX2 kernels on amd64 that
// give the bits of their pure-Go twins (§15.5).
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	w       []float64 // in×out, input-major: w[i*out+o] (DESIGN.md §15.5)
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
	// He/Xavier-style scaled initialization, drawn in row-major order.
	scale := math.Sqrt(2.0 / float64(in))
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			l.w[l.at(o, i)] = rng.NormFloat64() * scale
		}
	}
	return l
}

// at returns the position of the weight from input i to output o in w, gw,
// mw and vw.
func (l *layer) at(o, i int) int { return i*l.out + o }

// col returns the input column of position j of w.
func (l *layer) col(j int) int { return j / l.out }

// rowMajor writes a, one of the layer's weight-shaped arrays, to dst in
// row-major order (a[o][i]), the order Params and Encode use.
func (l *layer) rowMajor(dst, a []float64) { transpose(dst, a, l.in, l.out) }

// setRowMajor copies the row-major array src into a, one of the layer's
// weight-shaped arrays.
func (l *layer) setRowMajor(a, src []float64) { transpose(a, src, l.out, l.in) }

// transpose sets dst[c*rows+r] = src[r*cols+c] for the rows×cols matrix src.
// It walks 8×8 tiles, so its reads and its writes each stay within eight
// cache lines at a time.
func transpose(dst, src []float64, rows, cols int) {
	const tile = 8
	for r0 := 0; r0 < rows; r0 += tile {
		r1 := min(r0+tile, rows)
		for c0 := 0; c0 < cols; c0 += tile {
			c1 := min(c0+tile, cols)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					dst[c*rows+r] = src[r*cols+c]
				}
			}
		}
	}
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
	nzd   [][]int32 // BackwardBatch's ascending indices of each sample's nonzero deltas
	dIn   []float64 // BackwardBatch's dLoss/dInput (hidden layers only)
}

// Forward runs the network and returns the output (no tape). It writes
// nothing into the network, so concurrent Forward calls may share one MLP
// as long as nothing trains it meanwhile. Its buffers are allocated per
// call; ForwardScratch runs in a caller's.
func (n *MLP) Forward(x []float64) []float64 {
	var s Scratch
	return n.ForwardScratch(x, &s)
}

// Scratch is the caller-owned working memory of ForwardScratch: the input's
// nonzero indices and every layer's activations. The zero value is ready;
// after one pass it serves every later pass on networks of the same shape
// without allocating.
type Scratch struct {
	nz  []int32
	act []float64 // each layer's output, one after another
}

// ForwardScratch is Forward with its buffers in s: the output it returns is
// a view of s, overwritten by the next pass on s. Like Forward it writes
// nothing into the network, so concurrent calls with their own Scratch may
// share one MLP. It gives the bits Forward gives.
func (n *MLP) ForwardScratch(x []float64, s *Scratch) []float64 {
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.InputSize()))
	}
	width, widest := 0, 0
	for _, l := range n.layers {
		width, widest = width+l.out, max(widest, l.in)
	}
	s.act = resize(s.act, width)
	if cap(s.nz) < widest {
		s.nz = make([]int32, 0, widest)
	}
	cur, act := x, s.act
	for _, l := range n.layers {
		s.nz = nonzeros(s.nz[:0], cur)
		out := act[:l.out:l.out]
		act = act[l.out:]
		copy(out, l.b)
		affine(out, l.w, cur, s.nz)
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

// The loops below and the kernels in kernels.go skip every term whose value
// is an exact zero and keep each remaining sum in its dense index order, so
// every output, gradient and parameter is bit-identical to the dense loops'
// (DESIGN.md §15).

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
		affine(t.pre, l.w, t.in[0], t.nz[0][:t.shared])
		start = t.pre
	}
	for s := range t.in {
		out := t.out[s*l.out : (s+1)*l.out]
		copy(out, start)
		affine(out, l.w, t.in[s], t.nz[s][t.shared:])
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

// BackwardBatch accumulates parameter gradients for the recorded batch given
// each sample's dLoss/dOutput, and adds the input columns that carried a
// gradient to each layer's live set. A nil grads[s] leaves sample s out. It
// does not compute the first layer's dLoss/dInput. Each gradient element
// adds the samples' terms in sample order, as a pass per sample would. Its
// scratch lives on the tape.
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
		for len(tl.nzd) < t.n {
			tl.nzd = append(tl.nzd, nil)
		}
		active := t.active[:0]
		for s, g := range gs {
			if g == nil {
				continue
			}
			d, y, nzd := tl.delta[s*l.out:(s+1)*l.out], tl.out[s*l.out:(s+1)*l.out], tl.nzd[s][:0]
			for o, gv := range g {
				if d[o] = gv * l.act.derivative(y[o]); d[o] != 0 {
					nzd = append(nzd, int32(o))
				}
			}
			if tl.nzd[s] = nzd; len(nzd) > 0 {
				active = append(active, s)
				l.markLive(tl.nz[s][tl.shared:])
			}
		}
		if len(active) > 0 {
			l.markLive(tl.nz[0][:tl.shared]) // every sample's shared nonzeros
		}
		t.active = active
		l.accumulate(tl, active)
		if li == 0 {
			return
		}
		tl.dIn = resize(tl.dIn, t.n*l.in)
		for _, s := range active {
			l.inputGrad(tl.dIn[s*l.in:(s+1)*l.in], tl.delta[s*l.out:(s+1)*l.out], tl.nzd[s])
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

// inputGrad sets dIn[i] = Σ d[o]·w[i][o] over the nonzero deltas nz, in
// ascending o, from +0: the order a pass over the outputs adds them in.
// Four inputs share one pass over nz, each summing into its own accumulator.
func (l *layer) inputGrad(dIn, d []float64, nz []int32) {
	n := l.out
	i := 0
	for ; i+4 <= l.in; i += 4 {
		r0 := l.w[i*n : (i+1)*n]
		r1 := l.w[(i+1)*n : (i+2)*n]
		r2 := l.w[(i+2)*n : (i+3)*n]
		r3 := l.w[(i+3)*n : (i+4)*n]
		var s0, s1, s2, s3 float64
		for _, o := range nz {
			v := d[o]
			s0 += v * r0[o]
			s1 += v * r1[o]
			s2 += v * r2[o]
			s3 += v * r3[o]
		}
		dIn[i], dIn[i+1], dIn[i+2], dIn[i+3] = s0, s1, s2, s3
	}
	for ; i < l.in; i++ {
		row := l.w[i*n : (i+1)*n]
		var s float64
		for _, o := range nz {
			s += d[o] * row[o]
		}
		dIn[i] = s
	}
}

// accumulate adds the active samples' terms to the layer's gb and gw.
// Every weight of a shared nonzero sums its samples' terms in a register;
// each sample's tail then adds its own terms, sample by sample. A zero delta
// adds d·v = ±0, which leaves an accumulator that started at +0 unchanged
// (DESIGN.md §15.1), so a tail whose deltas are mostly zero (DQN's one-hot
// TD error) adds the terms of its nonzero deltas only.
func (l *layer) accumulate(tl *tapeLayer, active []int) {
	for o := range l.gb {
		gb := l.gb[o]
		for _, s := range active {
			if d := tl.delta[s*l.out+o]; d != 0 {
				gb += d
			}
		}
		l.gb[o] = gb
	}
	if len(active) == 0 {
		return
	}
	grad(l.gw, tl.in[0], tl.nz[0][:tl.shared], tl.delta, active, l.out)
	for k, s := range active {
		d, x, tail, nzd := tl.delta[s*l.out:(s+1)*l.out], tl.in[s], tl.nz[s][tl.shared:], tl.nzd[s]
		if 8*len(nzd) > l.out {
			grad(l.gw, x, tail, tl.delta, active[k:k+1], l.out)
			continue
		}
		for _, i := range tail {
			v, row := x[i], l.gw[int(i)*l.out:int(i+1)*l.out]
			for _, o := range nzd {
				row[o] += d[o] * v
			}
		}
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
// visits the weight runs of live input columns only, until every column is
// live; biases are always visited.
func (n *MLP) Step(lr float64) {
	n.step++
	k := newAdamArgs(lr, 1-math.Pow(adamBeta1, float64(n.step)), 1-math.Pow(adamBeta2, float64(n.step)))
	for _, l := range n.layers {
		if len(l.cols) == l.in {
			adam(l.w, l.gw, l.mw, l.vw, &k)
		} else {
			for _, i := range l.cols {
				r := int(i) * l.out
				adam(l.w[r:r+l.out], l.gw[r:r+l.out], l.mw[r:r+l.out], l.vw[r:r+l.out], &k)
			}
		}
		adam(l.b, l.gb, l.mb, l.vb, &k)
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
		at := len(dst)
		dst = slices.Grow(dst, len(l.w))[:at+len(l.w)]
		l.rowMajor(dst[at:], l.w)
		dst = append(dst, l.b...)
	}
	return dst
}

// SetParams installs a flat parameter vector produced by Params. It leaves
// gradients and Adam moments alone, so the live columns stay live.
func (n *MLP) SetParams(p []float64) {
	idx := 0
	for _, l := range n.layers {
		l.setRowMajor(l.w, p[idx:idx+len(l.w)])
		idx += len(l.w)
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
