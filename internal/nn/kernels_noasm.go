//go:build !amd64

package nn

// Without assembly every kernel takes its generic form.
var useAVX2 = hasAVX2()

func hasAVX2() bool { return false }

func adamAVX2(p, g, m, v []float64, k *adamArgs) { panic("nn: no AVX2 kernels") }

func affineAVX2(out, w, x []float64, nz []int32) { panic("nn: no AVX2 kernels") }

func gradAVX2(g, x []float64, nz []int32, delta []float64, active []int, width int) {
	panic("nn: no AVX2 kernels")
}

func nonzerosAVX2(dst []int32, x []float64) int { panic("nn: no AVX2 kernels") }
