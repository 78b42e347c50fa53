package kernels

import "math"

// useAVX gates the AVX bodies of Axpy, MatMul and AccumRankK in
// kernels_amd64.s. Those use only per-lane IEEE mul/add/sub (no FMA), so
// enabling them never changes a result bit; the package tests exercise both
// settings.
var useAVX = cpuHasAVX()

// useSigmoidAVX2 gates the four-lane Sigmoid body. Its reference is
// math.Exp, which itself runs an FMA branch on AVX+FMA hosts; the body ports
// that branch, so it is enabled only where the CPU has AVX2 and FMA and a
// startup self-check finds it bitwise equal to the scalar expression on a
// fixed probe set. If math.Exp takes another branch (GODEBUG=cpu.fma=off) or
// a Go release changes its body, the check fails and Sigmoid keeps the
// scalar loop instead of changing a result bit.
var useSigmoidAVX2 = cpuHasAVX2FMA() && sigmoidSelfCheck()

// sigmoidSelfCheck runs sigmoidAVX2 over a fixed probe set — a dense sweep
// of the unsaturated range and a coarse one out to the fast-path bound —
// and reports whether every lane matches sigmoidGeneric bit for bit.
func sigmoidSelfCheck() bool {
	const n = 1024
	probe := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range probe {
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / (1 << 53)
		span := 40.0
		if i%2 == 1 {
			span = 700
		}
		probe[i] = span * (2*u - 1)
	}
	probe[0], probe[1], probe[2], probe[3] = 0, math.Copysign(0, -1), 700, -700
	want := append([]float64(nil), probe...)
	sigmoidGeneric(want)
	if sigmoidAVX2(probe) != n {
		return false
	}
	for i := range probe {
		if math.Float64bits(probe[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// cpuHasAVX reports CPUID+XGETBV support for AVX with OS-enabled YMM state.
func cpuHasAVX() bool

// cpuHasAVX2FMA reports CPUID+XGETBV support for AVX2 and FMA with
// OS-enabled YMM state.
func cpuHasAVX2FMA() bool

//go:noescape
func axpyAVX(alpha float64, x, y []float64)

//go:noescape
func gradQuadAVX(g, p, q []float64, wx, wv *[4]float64)

//go:noescape
func matmulRowAVX(dst, a, b []float64)

//go:noescape
func sigmoidAVX2(dst []float64) int
