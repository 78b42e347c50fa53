// AVX bodies for the hottest kernels. Bit-exactness: axpyAVX, gradQuadAVX
// and matmulRowAVX use only VMULPD / VADDPD / VSUBPD (and their scalar SD
// forms in the tails) — each lane performs the exact IEEE-754 operation of
// the corresponding scalar Go expression, and no FMA contraction is
// introduced. sigmoidAVX2 does use FMA, exactly where its reference
// math.Exp does (see its comment). All produce bit-identical results to
// the pure-Go bodies (asserted by the package's property tests, which run
// both paths on amd64).

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE; XGETBV(0) bits 1-2 =
// XMM+YMM state enabled by the OS.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(alpha float64, x, y []float64)
//
// y[i] += alpha * x[i]. Requires len(y) >= len(x); iterates over x.
// Each element: one VMULPD lane (alpha*x rounded) then one VADDPD lane
// (+y rounded) — the exact two roundings of the scalar loop.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVSD alpha+0(FP), X0
	MOVQ  x_base+8(FP), SI
	MOVQ  x_len+16(FP), CX
	MOVQ  y_base+32(FP), DI
	VBROADCASTSD X0, Y0
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-4, BX

axpyloop4:
	CMPQ AX, BX
	JGE  axpytail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpyloop4

axpytail:
	// VEX-encoded scalar ops: legacy SSE here would pay an AVX-SSE
	// transition penalty on every call whose length is not a multiple
	// of four.
	CMPQ AX, CX
	JGE  axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func gradQuadAVX(g, p, q []float64, wx, wv *[4]float64)
//
// Adds four weighted instance contributions to the gradient row g:
//
//	g[j] += wx[0]*p0[j] - wv[0]*q0[j]   ... then instances 1, 2, 3
//
// where p and q each hold four consecutive len(g)-long rows. Per element
// and instance, the operation sequence is mul, mul, sub, add — the exact
// four roundings of the scalar expression, applied in instance order onto
// a register accumulator that replaces the scalar loop's exact store/load
// round-trips.
TEXT ·gradQuadAVX(SB), NOSPLIT, $0-88
	MOVQ g_base+0(FP), DI
	MOVQ g_len+8(FP), CX
	MOVQ p_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ wx+72(FP), R8
	MOVQ wv+80(FP), R9

	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7

	// Row pointers: stride = len(g)*8 bytes; R10 holds the stride until the
	// last row pointer is formed, then becomes q3.
	MOVQ CX, R10
	SHLQ $3, R10
	LEAQ (SI)(R10*1), R8
	LEAQ (R8)(R10*1), R9
	LEAQ (R9)(R10*1), R11
	LEAQ (DX)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	LEAQ (R13)(R10*1), R10

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

gradloop4:
	CMPQ AX, BX
	JGE  gradtail
	VMOVUPD (DI)(AX*8), Y8

	VMOVUPD (SI)(AX*8), Y9
	VMULPD  Y0, Y9, Y9
	VMOVUPD (DX)(AX*8), Y10
	VMULPD  Y4, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD (R8)(AX*8), Y9
	VMULPD  Y1, Y9, Y9
	VMOVUPD (R12)(AX*8), Y10
	VMULPD  Y5, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD (R9)(AX*8), Y9
	VMULPD  Y2, Y9, Y9
	VMOVUPD (R13)(AX*8), Y10
	VMULPD  Y6, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD (R11)(AX*8), Y9
	VMULPD  Y3, Y9, Y9
	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y7, Y10, Y10
	VSUBPD  Y10, Y9, Y9
	VADDPD  Y9, Y8, Y8

	VMOVUPD Y8, (DI)(AX*8)
	ADDQ $4, AX
	JMP  gradloop4

gradtail:
	// VEX-encoded scalar ops: see axpytail.
	CMPQ AX, CX
	JGE  graddone
	VMOVSD (DI)(AX*8), X8

	VMOVSD (SI)(AX*8), X9
	VMULSD X0, X9, X9
	VMOVSD (DX)(AX*8), X10
	VMULSD X4, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD (R8)(AX*8), X9
	VMULSD X1, X9, X9
	VMOVSD (R12)(AX*8), X10
	VMULSD X5, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD (R9)(AX*8), X9
	VMULSD X2, X9, X9
	VMOVSD (R13)(AX*8), X10
	VMULSD X6, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD (R11)(AX*8), X9
	VMULSD X3, X9, X9
	VMOVSD (R10)(AX*8), X10
	VMULSD X7, X10, X10
	VSUBSD X10, X9, X9
	VADDSD X9, X8, X8

	VMOVSD X8, (DI)(AX*8)
	INCQ   AX
	JMP    gradtail

graddone:
	VZEROUPPER
	RET

// func matmulRowAVX(dst, a, b []float64)
//
// One MatMul output row: dst[c] += Σ_i a[i]*b[i*n+c] with n = len(dst) and
// k = len(a), skipping a[i] == 0 rows (bit test, so ±0.0 both skip, exactly
// like the Go loop's `ai == 0`). Columns are processed in register-resident
// chunks of 16/4/1: per element the products accumulate in ascending i with
// one VMULPD and one VADDPD lane each — the exact roundings of the scalar
// loop — and the chunk registers only replace exact store/load round-trips.
TEXT ·matmulRowAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), R11
	MOVQ a_len+32(FP), R12
	MOVQ b_base+48(FP), DX
	MOVQ CX, R9
	SHLQ $3, R9                  // b row stride in bytes
	XORQ R10, R10                // c0: first column of the current chunk

chunk16:
	LEAQ 16(R10), AX
	CMPQ AX, CX
	JGT  chunk4
	LEAQ (DX)(R10*8), BX
	VMOVUPD (DI)(R10*8), Y8
	VMOVUPD 32(DI)(R10*8), Y9
	VMOVUPD 64(DI)(R10*8), Y10
	VMOVUPD 96(DI)(R10*8), Y11
	MOVQ R11, SI
	MOVQ R12, R13
	TESTQ R13, R13
	JZ   store16

i16:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip16
	VBROADCASTSD (SI), Y0
	VMOVUPD (BX), Y12
	VMULPD  Y0, Y12, Y12
	VADDPD  Y12, Y8, Y8
	VMOVUPD 32(BX), Y13
	VMULPD  Y0, Y13, Y13
	VADDPD  Y13, Y9, Y9
	VMOVUPD 64(BX), Y14
	VMULPD  Y0, Y14, Y14
	VADDPD  Y14, Y10, Y10
	VMOVUPD 96(BX), Y15
	VMULPD  Y0, Y15, Y15
	VADDPD  Y15, Y11, Y11

skip16:
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ R13
	JNZ  i16

store16:
	VMOVUPD Y8, (DI)(R10*8)
	VMOVUPD Y9, 32(DI)(R10*8)
	VMOVUPD Y10, 64(DI)(R10*8)
	VMOVUPD Y11, 96(DI)(R10*8)
	ADDQ $16, R10
	JMP  chunk16

chunk4:
	LEAQ 4(R10), AX
	CMPQ AX, CX
	JGT  tail1
	LEAQ (DX)(R10*8), BX
	VMOVUPD (DI)(R10*8), Y8
	MOVQ R11, SI
	MOVQ R12, R13
	TESTQ R13, R13
	JZ   store4

i4:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip4
	VBROADCASTSD (SI), Y0
	VMOVUPD (BX), Y12
	VMULPD  Y0, Y12, Y12
	VADDPD  Y12, Y8, Y8

skip4:
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ R13
	JNZ  i4

store4:
	VMOVUPD Y8, (DI)(R10*8)
	ADDQ $4, R10
	JMP  chunk4

tail1:
	CMPQ R10, CX
	JGE  rowdone
	LEAQ (DX)(R10*8), BX
	VMOVSD (DI)(R10*8), X8
	MOVQ R11, SI
	MOVQ R12, R13
	TESTQ R13, R13
	JZ   store1

i1:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   skip1
	VMOVSD (SI), X0
	VMOVSD (BX), X12
	VMULSD X0, X12, X12
	VADDSD X12, X8, X8

skip1:
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ R13
	JNZ  i1

store1:
	VMOVSD X8, (DI)(R10*8)
	INCQ R10
	JMP  tail1

rowdone:
	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID leaf 1: ECX bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX; leaf 7
// sub-leaf 0: EBX bit 5 = AVX2; XGETBV(0) bits 1-2 = XMM+YMM state enabled
// by the OS. AVX + FMA with OS-enabled YMM is exactly the condition under
// which math.Exp takes its FMA branch (math.useFMA), so the sigmoid port
// below reproduces the branch math.Exp actually runs on this host.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   noavx2fma
	MOVL $1, AX
	CPUID
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  noavx2fma
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2fma
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   noavx2fma
	MOVB $1, ret+0(FP)
	RET

noavx2fma:
	MOVB $0, ret+0(FP)
	RET

// Constants of math.Exp's amd64 body ($GOROOT/src/math/exp_amd64.s), each
// replicated across the four lanes of a 32-byte row so it can be used as a
// memory operand. The literals are spelled exactly as there.
#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

#define ROW4(off, v) \
	DATA sigdata<>+off+0(SB)/8, v; \
	DATA sigdata<>+off+8(SB)/8, v; \
	DATA sigdata<>+off+16(SB)/8, v; \
	DATA sigdata<>+off+24(SB)/8, v

ROW4(0, $0x8000000000000000)   // sign bit
ROW4(32, $0x7FFFFFFFFFFFFFFF)  // magnitude mask
ROW4(64, $700.0)               // fast-path bound on |x|
ROW4(96, $LOG2E)
ROW4(128, $LN2U)
ROW4(160, $LN2L)
ROW4(192, $0.0625)
ROW4(224, $2.4801587301587301587e-5)
ROW4(256, $1.9841269841269841270e-4)
ROW4(288, $1.3888888888888888889e-3)
ROW4(320, $8.3333333333333333333e-3)
ROW4(352, $4.1666666666666666667e-2)
ROW4(384, $1.6666666666666666667e-1)
ROW4(416, $0.5)
ROW4(448, $1.0)
ROW4(480, $2.0)
ROW4(512, $0x3FF)              // exponent bias
GLOBL sigdata<>(SB), RODATA, $544

// func sigmoidAVX2(dst []float64) int
//
// dst[i] = 1/(1+exp(-dst[i])) four lanes at a time, where exp is a lane-wise
// port of math.Exp's FMA branch: the same constants, the same operations in
// the same order, each lane rounding exactly as the scalar instruction does
// (VCVTPD2DQ rounds like CVTSD2SL under the same MXCSR mode; the ldexp step
// forms 2**k by integer add and shift exactly like ADDL/SHLQ). Lanes with
// |x| <= 700 never reach math.Exp's overflow, underflow, denormal or
// non-finite branches, so each lane is bit-identical to the scalar call.
//
// Processes whole quads from the front and stops before the first quad that
// holds a NaN or an |x| > 700, or when fewer than four elements remain.
// Returns the number of elements done (a multiple of four); the caller
// finishes the rest with the scalar expression.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

sigloop:
	CMPQ AX, CX
	JGE  sigdone
	VMOVUPD (DI)(AX*8), Y0
	// Leave on |x| > 700 or NaN: predicate 6 is NLE_UQ, true when not
	// |x| <= 700 or unordered.
	VANDPD    sigdata<>+32(SB), Y0, Y2
	VCMPPD    $6, sigdata<>+64(SB), Y2, Y2
	VMOVMSKPD Y2, BX
	TESTL     BX, BX
	JNZ       sigdone

	VXORPD     sigdata<>+0(SB), Y0, Y0     // x = -dst
	VMULPD     sigdata<>+96(SB), Y0, Y1    // LOG2E*x
	VCVTPD2DQY Y1, X4                      // k = round(LOG2E*x)
	VCVTDQ2PD  X4, Y3                      // float64(k)
	VFNMADD231PD sigdata<>+128(SB), Y3, Y0 // x -= k*LN2U (fused)
	VFNMADD231PD sigdata<>+160(SB), Y3, Y0 // x -= k*LN2L (fused)
	VMULPD     sigdata<>+192(SB), Y0, Y0   // reduce argument

	// Taylor series evaluation.
	VMOVUPD     sigdata<>+224(SB), Y1
	VFMADD213PD sigdata<>+256(SB), Y0, Y1
	VFMADD213PD sigdata<>+288(SB), Y0, Y1
	VFMADD213PD sigdata<>+320(SB), Y0, Y1
	VFMADD213PD sigdata<>+352(SB), Y0, Y1
	VFMADD213PD sigdata<>+384(SB), Y0, Y1
	VFMADD213PD sigdata<>+416(SB), Y0, Y1
	VFMADD213PD sigdata<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      sigdata<>+480(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      sigdata<>+480(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      sigdata<>+480(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      sigdata<>+480(SB), Y0, Y1
	VFMADD213PD sigdata<>+448(SB), Y1, Y0

	// Return fr * 2**k.
	VPMOVSXDQ X4, Y4
	VPADDQ    sigdata<>+512(SB), Y4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0

	// 1/(1+exp(-dst)).
	VADDPD  sigdata<>+448(SB), Y0, Y0
	VMOVUPD sigdata<>+448(SB), Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sigloop

sigdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
