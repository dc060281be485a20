package nn

import "math"

// The four hot loops of training have a pure-Go generic form, the reference
// and the only path on architectures without assembly, and on amd64 an AVX2
// form that gives the same bits (DESIGN.md §15.5). useAVX2 picks between
// them; it is set once from the CPU at start-up, and only tests change it.

// adamArgs are one Step's Adam constants, passed to the kernels as values
// Go computed, so no kernel rounds a constant of its own.
type adamArgs struct {
	lr, bc1, bc2 float64
	b1, c1       float64 // adamBeta1 and 1−adamBeta1, folded exactly to 0.1
	b2, c2       float64 // adamBeta2 and 1−adamBeta2
	eps          float64
	divBC1       uint64 // nonzero while bc1 != 1: m is divided by bc1
}

func newAdamArgs(lr, bc1, bc2 float64) adamArgs {
	k := adamArgs{lr: lr, bc1: bc1, bc2: bc2,
		b1: adamBeta1, c1: 1 - adamBeta1, b2: adamBeta2, c2: 1 - adamBeta2, eps: adamEps}
	if bc1 != 1 {
		k.divBC1 = 1
	}
	return k
}

// adam updates parameters p from gradients g and moments m, v, and zeroes
// g. A parameter whose gradient and moments are all zero is skipped: its
// moments would stay zero and its update would be lr·0/ε = +0. The first
// moment's bias correction bc1 = 1 − 0.9^step rounds to exactly 1 from step
// 356 on, and x/1 is x, so the division is skipped there.
func adam(p, g, m, v []float64, k *adamArgs) {
	if useAVX2 {
		n := len(p) &^ 3
		adamAVX2(p[:n], g[:n], m[:n], v[:n], k)
		p, g, m, v = p[n:], g[n:], m[n:], v[n:]
	}
	adamGeneric(p, g, m, v, k)
}

func adamGeneric(p, g, m, v []float64, k *adamArgs) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for i, gi := range g {
		if gi == 0 && m[i] == 0 && v[i] == 0 {
			continue
		}
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mh := m[i]
		if k.divBC1 != 0 {
			mh /= k.bc1
		}
		p[i] -= k.lr * mh / (math.Sqrt(v[i]/k.bc2) + adamEps)
		g[i] = 0
	}
}

// affine adds Σ w[i·len(out)+o]·x[i] over the nonzero inputs nz, in
// ascending i, to each out[o], which holds the sum's starting value. w is
// input-major, so each input's weights are one contiguous run: the loop is
// an axpy across the outputs per input, and every out[o] still adds its
// terms in ascending i.
func affine(out, w, x []float64, nz []int32) {
	if useAVX2 {
		affineAVX2(out, w, x, nz)
		return
	}
	affineGeneric(out, w, x, nz)
}

// affineGeneric sums four outputs per pass over nz, each in its own
// accumulator, reading the weights with a stride of len(out).
func affineGeneric(out, w, x []float64, nz []int32) {
	n := len(out)
	o := 0
	for ; o+4 <= n; o += 4 {
		s0, s1, s2, s3 := out[o], out[o+1], out[o+2], out[o+3]
		for _, i := range nz {
			v, r := x[i], w[int(i)*n+o:int(i)*n+o+4]
			s0 += r[0] * v
			s1 += r[1] * v
			s2 += r[2] * v
			s3 += r[3] * v
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < n; o++ {
		s := out[o]
		for _, i := range nz {
			s += w[int(i)*n+o] * x[i]
		}
		out[o] = s
	}
}

// gradInMajor adds, for each input i of nz and each output o < width,
// delta[s·width+o]·x[i] for every sample s of active, in order, to the
// input-major gradient g[i·width+o]. Each weight sums its samples' terms in
// a register.
func grad(g, x []float64, nz []int32, delta []float64, active []int, width int) {
	if useAVX2 {
		gradAVX2(g, x, nz, delta, active, width)
		return
	}
	gradGeneric(g, x, nz, delta, active, width)
}

func gradGeneric(g, x []float64, nz []int32, delta []float64, active []int, width int) {
	for _, i := range nz {
		v, row := x[i], g[int(i)*width:int(i+1)*width]
		for o := range row {
			a := row[o]
			for _, s := range active {
				a += delta[s*width+o] * v
			}
			row[o] = a
		}
	}
}

// nonzeros appends the indices of x's nonzero entries to dst, ascending.
// NaN counts as nonzero; −0 does not.
func nonzeros(dst []int32, x []float64) []int32 {
	if useAVX2 {
		n := len(x) &^ 3
		at := len(dst)
		if cap(dst)-at < n {
			dst = append(make([]int32, 0, at+len(x)), dst...)
		}
		dst = dst[:at+nonzerosAVX2(dst[at:at+n], x[:n])]
		return nonzerosGeneric(dst, x[n:], n)
	}
	return nonzerosGeneric(dst, x, 0)
}

// nonzerosGeneric appends base+i for each nonzero x[i].
func nonzerosGeneric(dst []int32, x []float64, base int) []int32 {
	for i, v := range x {
		if v != 0 {
			dst = append(dst, int32(base+i))
		}
	}
	return dst
}
