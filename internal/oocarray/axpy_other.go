//go:build !amd64

package oocarray

// axpyLoop is AxpyLoop's arithmetic: the Go loop, on every platform the
// assembly kernel does not cover.
func axpyLoop(vec []float64, n int, a []float64, aStep int, b []float64, bStep int) {
	axpyLoopGeneric(vec, n, a, aStep, b, bStep)
}
