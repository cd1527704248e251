// Package stencil is the in-core oracle of the out-of-core Jacobi
// relaxation, the "loosely synchronous" workload class of the paper's
// introduction. The out-of-core program is compiled from HPF
// (hpf.JacobiSource: a time loop around two shifted FORALLs); Reference
// runs the same sweeps sequentially in core with identical per-element
// arithmetic, so the two agree bit for bit.
package stencil

import "github.com/ooc-hpf/passion/internal/matrix"

// Reference runs sweeps Jacobi sweeps of the n x n grid init in core:
// each interior point becomes 0.25*(up+down+left+right) of the previous
// sweep's values, and the boundary points keep theirs (Dirichlet
// conditions).
func Reference(n, sweeps int, init func(i, j int) float64) *matrix.Matrix {
	cur := matrix.New(n, n).Fill(init)
	buf := matrix.New(n, n)
	for it := 0; it < sweeps; it++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == 0 || i == n-1 || j == 0 || j == n-1 {
					buf.Set(i, j, cur.At(i, j))
					continue
				}
				buf.Set(i, j, 0.25*(cur.At(i-1, j)+cur.At(i+1, j)+cur.At(i, j-1)+cur.At(i, j+1)))
			}
		}
		cur, buf = buf, cur
	}
	return cur
}
