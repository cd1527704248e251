package oocarray

// useAVX2 is decided once, from the processor: the kernel needs AVX2 and
// an operating system that saves the YMM registers across context
// switches (CPUID.1:ECX.OSXSAVE, then XCR0 bits 1 and 2). Nothing else
// selects it.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sseAndAVXState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&sseAndAVXState != sseAndAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// axpyLoop is AxpyLoop's arithmetic: the AVX2 kernel where the processor
// has it and the trips walk forward, the Go loop otherwise.
func axpyLoop(vec []float64, n int, a []float64, aStep int, b []float64, bStep int) {
	if !useAVX2 || n <= 0 || len(vec) == 0 || aStep < 0 || bStep < 0 {
		axpyLoopGeneric(vec, n, a, aStep, b, bStep)
		return
	}
	// The kernel trusts its slices: every trip reads a[t·aStep :
	// t·aStep+len(vec)] and b[t·bStep], and the last trip's are the
	// furthest, so indexing them here panics where the Go loop would.
	last := n - 1
	_ = a[last*aStep : last*aStep+len(vec)]
	_ = b[last*bStep]
	axpyLoopAVX2(vec, n, a, aStep, b, bStep)
}

// axpyLoopAVX2 is the loop in assembly (axpy_amd64.s). It keeps 16 rows
// of vec in four YMM accumulators across all n trips; per trip it
// broadcasts b[t·bStep], multiplies (VMULPD, one rounding) and adds
// (VADDPD, a second) — never a fused multiply-add, which would round once
// and break the contract with Axpy. Each lane is one element of vec and
// takes its additions in trip order, as Axpy would. The last 1–15 rows are
// one more block whose loads and stores are masked (VMASKMOVPD), so no
// lane past the end of vec, or of a trip's column, is ever read or
// written. It needs n ≥ 1, len(vec) ≥ 1, non-negative steps and slices
// long enough for the last trip.
//
//go:noescape
func axpyLoopAVX2(vec []float64, n int, a []float64, aStep int, b []float64, bStep int)

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, the state components the
// operating system saves.
func xgetbv() (eax, edx uint32)
