package nn

import (
	"fmt"

	"repro/internal/snap"
)

// Encode appends the network's full state — shapes, parameters, accumulated
// gradients and Adam moments — to e. Together with DecodeMLP it gives a
// byte-exact round trip: a restored network continues training on the exact
// optimizer trajectory the original would have taken. Weight-shaped arrays,
// input-major in memory, are written row-major.
func (n *MLP) Encode(e *snap.Encoder) {
	size := 16
	for _, l := range n.layers {
		size += 24 + 8*(4*len(l.w)+4*len(l.b)+8)
	}
	e.Grow(size)
	e.Int64(int64(n.step))
	e.Uint64(uint64(len(n.layers)))
	var buf []float64
	rows := func(l *layer, a []float64) []float64 {
		buf = resize(buf, len(a))
		l.rowMajor(buf, a)
		return buf
	}
	for _, l := range n.layers {
		e.Int64(int64(l.in))
		e.Int64(int64(l.out))
		e.Int64(int64(l.act))
		e.Floats(rows(l, l.w))
		e.Floats(l.b)
		e.Floats(rows(l, l.gw))
		e.Floats(l.gb)
		e.Floats(rows(l, l.mw))
		e.Floats(rows(l, l.vw))
		e.Floats(l.mb)
		e.Floats(l.vb)
	}
}

// DecodeMLP reads a network written by Encode, validating every shape so a
// corrupted payload yields an error instead of a malformed network.
func DecodeMLP(d *snap.Decoder) (*MLP, error) {
	n := &MLP{step: int(d.Int64())}
	nl := d.Uint64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nl == 0 || nl > 64 {
		return nil, fmt.Errorf("%w: mlp with %d layers", snap.ErrCorrupt, nl)
	}
	for li := uint64(0); li < nl; li++ {
		l := &layer{
			in:  int(d.Int64()),
			out: int(d.Int64()),
			act: Activation(d.Int64()),
		}
		l.w = d.Floats()
		l.b = d.Floats()
		l.gw = d.Floats()
		l.gb = d.Floats()
		l.mw = d.Floats()
		l.vw = d.Floats()
		l.mb = d.Floats()
		l.vb = d.Floats()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if l.in <= 0 || l.out <= 0 || l.act < Identity || l.act > Tanh {
			return nil, fmt.Errorf("%w: mlp layer %d shape %dx%d act %d", snap.ErrCorrupt, li, l.in, l.out, l.act)
		}
		want := l.in * l.out
		// Decoder.Floats returns nil for zero-length slices; every layer here
		// has in,out >= 1 so all eight arrays must be present and sized.
		if len(l.w) != want || len(l.gw) != want || len(l.mw) != want || len(l.vw) != want ||
			len(l.b) != l.out || len(l.gb) != l.out || len(l.mb) != l.out || len(l.vb) != l.out {
			return nil, fmt.Errorf("%w: mlp layer %d array sizes", snap.ErrCorrupt, li)
		}
		if li > 0 && n.layers[li-1].out != l.in {
			return nil, fmt.Errorf("%w: mlp layer %d input %d != previous output %d", snap.ErrCorrupt, li, l.in, n.layers[li-1].out)
		}
		// Each array decoded row-major becomes the next one's input-major
		// storage, so the layer allocates one array more, not four.
		spare := make([]float64, len(l.w))
		for _, a := range []*[]float64{&l.w, &l.gw, &l.mw, &l.vw} {
			l.setRowMajor(spare, *a)
			*a, spare = spare, *a
		}
		l.deriveLive()
		n.layers = append(n.layers, l)
	}
	return n, nil
}

// deriveLive rebuilds the live columns from the optimizer state: a column is
// live when any of its weights has a nonzero gradient or moment. That may be
// a subset of the columns the encoded network had marked, but every column
// it leaves out has g = m = v = +0 throughout, which Step skips anyway.
func (l *layer) deriveLive() {
	l.live, l.cols = make([]bool, l.in), nil
	for j := range l.w {
		if l.gw[j] != 0 || l.mw[j] != 0 || l.vw[j] != 0 {
			l.live[l.col(j)] = true
		}
	}
	for i, ok := range l.live {
		if ok {
			l.cols = append(l.cols, int32(i))
		}
	}
}
