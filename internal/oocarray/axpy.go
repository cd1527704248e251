package oocarray

import "github.com/ooc-hpf/passion/internal/mp"

// Axpy adds b·col into vec element by element — one trip of GAXPY's
// inner loop (AxpyLoop runs the loop). It is a function of its own, four
// elements a trip, because the one-element loop's speed followed where
// the linker happened to put its caller: the 34-byte loop ran 13 % slower
// when it straddled a 64-byte line, and any edit linked ahead of it could
// move it there (EXPERIMENTS.md, "Host clock: message passing").
// Unrolling over elements reorders no floating-point operation. Every
// product is rounded to float64 before it is added (the explicit
// conversions): the Go spec lets a platform fuse x*y + z, and a fused
// Axpy would differ from the other kernels — and from the recorded
// witnesses — in the last bit.
//
// Axpy is the reference of the AXPY kernels' contract: every element
// takes its additions in trip order and every product is rounded before
// it is added, so a kernel's result is bit-identical to the matching
// Axpy calls wherever it is not a NaN, and is NaN exactly where theirs
// is. Which payload survives when two NaNs meet is not part of it: x86
// returns the first operand's, and the Go compiler puts the product first
// in some of Axpy4's additions and the accumulator first in others, so
// the payload already depends on register allocation.
func Axpy(vec, col []float64, b float64) {
	vec = vec[:len(col)]
	i := 0
	for ; i+4 <= len(col); i += 4 {
		v, c := vec[i:i+4:i+4], col[i:i+4:i+4]
		v[0] += float64(b * c[0])
		v[1] += float64(b * c[1])
		v[2] += float64(b * c[2])
		v[3] += float64(b * c[3])
	}
	for ; i < len(col); i++ {
		vec[i] += float64(b * col[i])
	}
}

// Axpy4 is four consecutive Axpy calls — vec += b0·c0, then b1·c1, b2·c2,
// b3·c3 — in one pass over vec: the accumulator element stays in a
// register across the four columns, so it is loaded and stored once
// instead of four times. Each element takes its four additions in the
// order the four calls would make them, so every non-NaN result has their
// bits and every NaN is where theirs is (Axpy's contract). The columns
// must be at least as long as vec.
func Axpy4(vec, c0, c1, c2, c3 []float64, b0, b1, b2, b3 float64) {
	n := len(vec)
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	for i := range vec {
		t := vec[i]
		t += float64(b0 * c0[i])
		t += float64(b1 * c1[i])
		t += float64(b2 * c2[i])
		t += float64(b3 * c3[i])
		vec[i] = t
	}
}

// AxpyLoop runs the n trips of GAXPY's innermost loop,
//
//	vec += b[t·bStep] · a[t·aStep : t·aStep+len(vec)]    t = 0 … n-1,
//
// and charges p one 2·len(vec)-flop computation per trip. a and b are the
// slabs' storage from the first trip's column and element on; the steps
// are what one trip adds to either index (column-major: the slab's rows
// to move a column, 1 to move down one). It is the loop the compiled
// engine and the hand-coded variants both end in. Every element takes its
// n additions in trip order, so the result is that of n trip-by-trip Axpy
// calls under Axpy's contract. On amd64 with AVX2 the arithmetic is one
// assembly kernel (axpy_amd64.s); elsewhere it is axpyLoopGeneric. A
// phantom run skips the arithmetic (and reads neither slab) and keeps the
// charge.
func AxpyLoop(p *mp.Proc, vec []float64, n int, phantom bool, a []float64, aStep int, b []float64, bStep int) {
	if !phantom {
		axpyLoop(vec, n, a, aStep, b, bStep)
	}
	p.ComputeN(2*int64(len(vec)), n)
}

// axpyLoopGeneric is AxpyLoop's arithmetic in Go: trips four at a time
// through Axpy4 and the remainder through Axpy, which changes no
// element's order of additions. It is the path of every platform without
// the assembly kernel and the oracle the kernel is tested against.
func axpyLoopGeneric(vec []float64, n int, a []float64, aStep int, b []float64, bStep int) {
	rows := len(vec)
	col := func(t int) []float64 { return a[t*aStep : t*aStep+rows] }
	t := 0
	for ; t+4 <= n; t += 4 {
		Axpy4(vec, col(t), col(t+1), col(t+2), col(t+3),
			b[t*bStep], b[(t+1)*bStep], b[(t+2)*bStep], b[(t+3)*bStep])
	}
	for ; t < n; t++ {
		Axpy(vec, col(t), b[t*bStep])
	}
}
