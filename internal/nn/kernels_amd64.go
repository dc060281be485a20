package nn

// useAVX2 sends the kernels to their AVX2 forms in kernels_amd64.s when the
// CPU has AVX2 and the operating system saves the YMM registers.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmSave = 0b110   // XCR0: the OS saves XMM and YMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&ymmSave != ymmSave {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

// The AVX2 kernels. Each gives the bits of its generic twin in kernels.go;
// adamAVX2 and nonzerosAVX2 take lengths that are multiples of four, the
// other two any length.

//go:noescape
func adamAVX2(p, g, m, v []float64, k *adamArgs)

//go:noescape
func affineAVX2(out, w, x []float64, nz []int32)

//go:noescape
func gradAVX2(g, x []float64, nz []int32, delta []float64, active []int, width int)

// nonzerosAVX2 writes the indices of x's nonzero entries to dst, which is at
// least as long as x, and returns how many it wrote.
//
//go:noescape
func nonzerosAVX2(dst []int32, x []float64) int
