#include "textflag.h"

// AVX2 forms of the kernels in kernels.go. Each lane runs the generic
// kernel's operations on one element, in its order, with separate multiplies
// and adds (no FMA) and the correctly rounded VDIVPD and VSQRTPD, so every
// result has the generic kernel's bits (DESIGN.md §15.5).

// tailmask<>+8·(3−r) holds a four-lane mask whose first r lanes are set.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func adamAVX2(p, g, m, v []float64, k *adamArgs)
//
// Four parameters per iteration; len(p) is a multiple of four. A lane whose
// g, m and v are all zero keeps its old p, m, v and g through a blend, and a
// block of four such lanes is passed over.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), AX
	VBROADCASTSD 0(AX), Y8   // lr
	VBROADCASTSD 8(AX), Y9   // bc1
	VBROADCASTSD 16(AX), Y10 // bc2
	VBROADCASTSD 24(AX), Y11 // b1
	VBROADCASTSD 32(AX), Y12 // c1
	VBROADCASTSD 40(AX), Y13 // b2
	VBROADCASTSD 48(AX), Y14 // c2
	VBROADCASTSD 56(AX), Y15 // eps
	MOVQ 64(AX), DX          // divBC1
	VXORPD Y7, Y7, Y7
	XORQ BX, BX

adamloop:
	CMPQ BX, CX
	JGE  adamdone
	VMOVUPD (SI)(BX*8), Y0 // g
	VMOVUPD (R8)(BX*8), Y1 // m
	VMOVUPD (R9)(BX*8), Y2 // v

	// Y3 = g == 0 && m == 0 && v == 0: the lanes to leave alone.
	VCMPPD $0, Y7, Y0, Y3
	VCMPPD $0, Y7, Y1, Y4
	VANDPD Y4, Y3, Y3
	VCMPPD $0, Y7, Y2, Y4
	VANDPD Y4, Y3, Y3
	VMOVMSKPD Y3, AX
	CMPL   AX, $15
	JEQ    adamnext

	// m = b1·m + c1·g
	VMULPD Y11, Y1, Y4
	VMULPD Y12, Y0, Y5
	VADDPD Y5, Y4, Y4

	// v = b2·v + (c2·g)·g
	VMULPD Y13, Y2, Y5
	VMULPD Y14, Y0, Y6
	VMULPD Y0, Y6, Y6
	VADDPD Y6, Y5, Y5

	VBLENDVPD Y3, Y1, Y4, Y1
	VMOVUPD   Y1, (R8)(BX*8)
	VBLENDVPD Y3, Y2, Y5, Y2
	VMOVUPD   Y2, (R9)(BX*8)

	// p -= lr·(m/bc1) / (√(v/bc2) + eps), without the /bc1 once bc1 is 1.
	TESTQ DX, DX
	JZ    adamnodiv
	VDIVPD Y9, Y4, Y4

adamnodiv:
	VDIVPD    Y10, Y5, Y5
	VSQRTPD   Y5, Y5
	VADDPD    Y15, Y5, Y5
	VMULPD    Y8, Y4, Y4
	VDIVPD    Y5, Y4, Y4
	VMOVUPD   (DI)(BX*8), Y6
	VSUBPD    Y4, Y6, Y4
	VBLENDVPD Y3, Y6, Y4, Y4
	VMOVUPD   Y4, (DI)(BX*8)

	// g = +0, except in the lanes left alone.
	VANDPD  Y3, Y0, Y0
	VMOVUPD Y0, (SI)(BX*8)

adamnext:
	ADDQ $4, BX
	JMP  adamloop

adamdone:
	VZEROUPPER
	RET

// func affineAVX2(out, w, x []float64, nz []int32)
//
// out[o] += w[i·n+o]·x[i] for each i of nz in order, n = len(out): 32
// outputs per pass over nz in eight accumulators, then 4 per pass, then the
// last n mod 4 through masked loads and stores.
TEXT ·affineAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ nz_base+72(FP), R8
	MOVQ nz_len+80(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10             // row stride in bytes
	MOVQ CX, AX
	ANDQ $3, AX
	MOVQ $3, BX
	SUBQ AX, BX
	LEAQ tailmask<>(SB), AX
	VMOVUPD (AX)(BX*8), Y10  // the tail's lane mask

affine32:
	CMPQ    CX, $32
	JLT     affine4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    R12, R12

affine32nz:
	CMPQ         R12, R9
	JGE          affine32store
	MOVL         (R8)(R12*4), AX
	VBROADCASTSD (DX)(AX*8), Y8
	IMULQ        R10, AX
	ADDQ         SI, AX
	VMULPD       0(AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(AX), Y8, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(AX), Y8, Y9
	VADDPD       Y9, Y2, Y2
	VMULPD       96(AX), Y8, Y9
	VADDPD       Y9, Y3, Y3
	VMULPD       128(AX), Y8, Y9
	VADDPD       Y9, Y4, Y4
	VMULPD       160(AX), Y8, Y9
	VADDPD       Y9, Y5, Y5
	VMULPD       192(AX), Y8, Y9
	VADDPD       Y9, Y6, Y6
	VMULPD       224(AX), Y8, Y9
	VADDPD       Y9, Y7, Y7
	INCQ         R12
	JMP          affine32nz

affine32store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, CX
	JMP     affine32

affine4:
	CMPQ    CX, $4
	JLT     affinetail
	VMOVUPD (DI), Y0
	XORQ    R12, R12

affine4nz:
	CMPQ         R12, R9
	JGE          affine4store
	MOVL         (R8)(R12*4), AX
	VBROADCASTSD (DX)(AX*8), Y8
	IMULQ        R10, AX
	VMULPD       (SI)(AX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         R12
	JMP          affine4nz

affine4store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     affine4

affinetail:
	TESTQ      CX, CX
	JZ         affinedone
	VMASKMOVPD (DI), Y10, Y0
	XORQ       R12, R12

affinetailnz:
	CMPQ         R12, R9
	JGE          affinetailstore
	MOVL         (R8)(R12*4), AX
	VBROADCASTSD (DX)(AX*8), Y8
	IMULQ        R10, AX
	ADDQ         SI, AX
	VMASKMOVPD   (AX), Y10, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         R12
	JMP          affinetailnz

affinetailstore:
	VMASKMOVPD Y0, Y10, (DI)

affinedone:
	VZEROUPPER
	RET

// func gradAVX2(g, x []float64, nz []int32, delta []float64, active []int, width int)
//
// For each i of nz: g[i·width+o] += delta[s·width+o]·x[i] for each s of
// active in order, 32 outputs per pass over the samples in eight
// accumulators, then 4, then the last width mod 4 through masked loads and
// stores.
TEXT ·gradAVX2(SB), NOSPLIT, $0-128
	MOVQ g_base+0(FP), DI
	MOVQ x_base+24(FP), DX
	MOVQ nz_base+48(FP), R8
	MOVQ delta_base+72(FP), SI
	MOVQ active_base+96(FP), R13
	MOVQ width+120(FP), R10
	MOVQ R10, AX
	ANDQ $3, AX
	MOVQ $3, BX
	SUBQ AX, BX
	LEAQ tailmask<>(SB), AX
	VMOVUPD (AX)(BX*8), Y10  // the tail's lane mask
	SHLQ $3, R10             // row stride in bytes
	XORQ R12, R12

gradnz:
	CMPQ         R12, nz_len+56(FP)
	JGE          graddone
	MOVL         (R8)(R12*4), AX
	VBROADCASTSD (DX)(AX*8), Y8
	IMULQ        R10, AX
	LEAQ         (DI)(AX*1), BX // this input's gradient row
	MOVQ         SI, R11        // the deltas of the current outputs
	MOVQ         R10, CX
	SHRQ         $3, CX         // outputs left

grad32:
	CMPQ    CX, $32
	JLT     grad4
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	XORQ    R9, R9

grad32s:
	CMPQ   R9, active_len+104(FP)
	JGE    grad32store
	MOVQ   (R13)(R9*8), AX
	IMULQ  R10, AX
	ADDQ   R11, AX
	VMULPD 0(AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(AX), Y8, Y9
	VADDPD Y9, Y1, Y1
	VMULPD 64(AX), Y8, Y9
	VADDPD Y9, Y2, Y2
	VMULPD 96(AX), Y8, Y9
	VADDPD Y9, Y3, Y3
	VMULPD 128(AX), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(AX), Y8, Y9
	VADDPD Y9, Y5, Y5
	VMULPD 192(AX), Y8, Y9
	VADDPD Y9, Y6, Y6
	VMULPD 224(AX), Y8, Y9
	VADDPD Y9, Y7, Y7
	INCQ   R9
	JMP    grad32s

grad32store:
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VMOVUPD Y6, 192(BX)
	VMOVUPD Y7, 224(BX)
	ADDQ    $256, BX
	ADDQ    $256, R11
	SUBQ    $32, CX
	JMP     grad32

grad4:
	CMPQ    CX, $4
	JLT     gradtail
	VMOVUPD (BX), Y0
	XORQ    R9, R9

grad4s:
	CMPQ   R9, active_len+104(FP)
	JGE    grad4store
	MOVQ   (R13)(R9*8), AX
	IMULQ  R10, AX
	VMULPD (R11)(AX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	INCQ   R9
	JMP    grad4s

grad4store:
	VMOVUPD Y0, (BX)
	ADDQ    $32, BX
	ADDQ    $32, R11
	SUBQ    $4, CX
	JMP     grad4

gradtail:
	TESTQ      CX, CX
	JZ         gradnext
	VMASKMOVPD (BX), Y10, Y0
	XORQ       R9, R9

gradtails:
	CMPQ       R9, active_len+104(FP)
	JGE        gradtailstore
	MOVQ       (R13)(R9*8), AX
	IMULQ      R10, AX
	ADDQ       R11, AX
	VMASKMOVPD (AX), Y10, Y9
	VMULPD     Y9, Y8, Y9
	VADDPD     Y9, Y0, Y0
	INCQ       R9
	JMP        gradtails

gradtailstore:
	VMASKMOVPD Y0, Y10, (BX)

gradnext:
	INCQ R12
	JMP  gradnz

graddone:
	VZEROUPPER
	RET

// packidx<>+16·mask holds the lane numbers of mask's set bits, in order,
// and packcnt<>+mask how many there are: nonzerosAVX2's left-pack tables.
DATA packidx<>+0(SB)/4, $0
DATA packidx<>+4(SB)/4, $0
DATA packidx<>+8(SB)/4, $0
DATA packidx<>+12(SB)/4, $0
DATA packidx<>+16(SB)/4, $0
DATA packidx<>+20(SB)/4, $0
DATA packidx<>+24(SB)/4, $0
DATA packidx<>+28(SB)/4, $0
DATA packidx<>+32(SB)/4, $1
DATA packidx<>+36(SB)/4, $0
DATA packidx<>+40(SB)/4, $0
DATA packidx<>+44(SB)/4, $0
DATA packidx<>+48(SB)/4, $0
DATA packidx<>+52(SB)/4, $1
DATA packidx<>+56(SB)/4, $0
DATA packidx<>+60(SB)/4, $0
DATA packidx<>+64(SB)/4, $2
DATA packidx<>+68(SB)/4, $0
DATA packidx<>+72(SB)/4, $0
DATA packidx<>+76(SB)/4, $0
DATA packidx<>+80(SB)/4, $0
DATA packidx<>+84(SB)/4, $2
DATA packidx<>+88(SB)/4, $0
DATA packidx<>+92(SB)/4, $0
DATA packidx<>+96(SB)/4, $1
DATA packidx<>+100(SB)/4, $2
DATA packidx<>+104(SB)/4, $0
DATA packidx<>+108(SB)/4, $0
DATA packidx<>+112(SB)/4, $0
DATA packidx<>+116(SB)/4, $1
DATA packidx<>+120(SB)/4, $2
DATA packidx<>+124(SB)/4, $0
DATA packidx<>+128(SB)/4, $3
DATA packidx<>+132(SB)/4, $0
DATA packidx<>+136(SB)/4, $0
DATA packidx<>+140(SB)/4, $0
DATA packidx<>+144(SB)/4, $0
DATA packidx<>+148(SB)/4, $3
DATA packidx<>+152(SB)/4, $0
DATA packidx<>+156(SB)/4, $0
DATA packidx<>+160(SB)/4, $1
DATA packidx<>+164(SB)/4, $3
DATA packidx<>+168(SB)/4, $0
DATA packidx<>+172(SB)/4, $0
DATA packidx<>+176(SB)/4, $0
DATA packidx<>+180(SB)/4, $1
DATA packidx<>+184(SB)/4, $3
DATA packidx<>+188(SB)/4, $0
DATA packidx<>+192(SB)/4, $2
DATA packidx<>+196(SB)/4, $3
DATA packidx<>+200(SB)/4, $0
DATA packidx<>+204(SB)/4, $0
DATA packidx<>+208(SB)/4, $0
DATA packidx<>+212(SB)/4, $2
DATA packidx<>+216(SB)/4, $3
DATA packidx<>+220(SB)/4, $0
DATA packidx<>+224(SB)/4, $1
DATA packidx<>+228(SB)/4, $2
DATA packidx<>+232(SB)/4, $3
DATA packidx<>+236(SB)/4, $0
DATA packidx<>+240(SB)/4, $0
DATA packidx<>+244(SB)/4, $1
DATA packidx<>+248(SB)/4, $2
DATA packidx<>+252(SB)/4, $3
GLOBL packidx<>(SB), RODATA|NOPTR, $256
DATA packcnt<>+0(SB)/8, $0x0302020102010100
DATA packcnt<>+8(SB)/8, $0x0403030203020201
GLOBL packcnt<>(SB), RODATA|NOPTR, $16

// func nonzerosAVX2(dst []int32, x []float64) int
//
// Four entries per compare; len(x) is a multiple of four. VCMPPD's NEQ_UQ
// is true for NaN and false for −0, as x != 0 is. Each block stores the
// indices of its nonzero lanes, packed to the left, as four int32s at the
// write position and moves the position past the ones that count. The write
// position never passes the block's first index, so the stores stay within
// len(x) entries of dst.
TEXT ·nonzerosAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	LEAQ         packidx<>(SB), R9
	LEAQ         packcnt<>(SB), R10
	XORQ         AX, AX        // indices written
	XORQ         BX, BX        // block start
	VXORPD       Y0, Y0, Y0
	VPXOR        X4, X4, X4    // the block start in each int32 lane
	MOVL         $4, DX
	MOVQ         DX, X5
	VPBROADCASTD X5, X5        // 4 in each int32 lane

nzloop:
	CMPQ      BX, CX
	JGE       nzdone
	VCMPPD    $4, (SI)(BX*8), Y0, Y1
	VMOVMSKPD Y1, DX
	MOVQ      DX, R8
	SHLQ      $4, R8
	VPADDD    (R9)(R8*1), X4, X2
	VMOVDQU   X2, (DI)(AX*4)
	MOVBQZX   (R10)(DX*1), R8
	ADDQ      R8, AX
	VPADDD    X5, X4, X4
	ADDQ      $4, BX
	JMP       nzloop

nzdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
