// Package stencil provides out-of-core iterative stencil sweeps over
// row-block distributed grids: the "loosely synchronous" workload class
// of the paper's introduction. A grid's local block lives in a local
// array file; each sweep streams it in column slabs with a one-column
// halo while ghost rows are exchanged with the neighboring processors —
// the out-of-core communication pattern of the PASSION runtime.
package stencil

import (
	"errors"
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

// UpdateFunc computes a point's new value from its old value and its four
// neighbors. It is applied to interior points only; boundary points are
// copied unchanged (Dirichlet conditions).
type UpdateFunc func(center, up, down, left, right float64) float64

// Jacobi is the standard four-point average.
func Jacobi(center, up, down, left, right float64) float64 {
	return 0.25 * (up + down + left + right)
}

// Grid is one processor's share of an n x n grid distributed row-block,
// double-buffered across two out-of-core arrays.
type Grid struct {
	proc      *mp.Proc
	disk      *iosim.Disk
	n         int
	rows      int // local rows
	cur, next *oocarray.Array
}

// New creates the double-buffered out-of-core grid for this processor.
func New(p *mp.Proc, disk *iosim.Disk, name string, n int, opts oocarray.Options) (*Grid, error) {
	if n < p.Size() {
		return nil, fmt.Errorf("stencil: n=%d smaller than the processor count %d", n, p.Size())
	}
	mk := func(suffix string) (*oocarray.Array, error) {
		dm, err := dist.NewArray(name+suffix, dist.NewBlock(n, p.Size()), dist.NewCollapsed(n))
		if err != nil {
			return nil, err
		}
		return oocarray.New(disk, dm, p.Rank(), p.Clock(), opts)
	}
	cur, err := mk("")
	if err != nil {
		return nil, err
	}
	next, err := mk(".next")
	if err != nil {
		return nil, err
	}
	return &Grid{proc: p, disk: disk, n: n, rows: cur.LocalRows(), cur: cur, next: next}, nil
}

// N returns the global extent.
func (g *Grid) N() int { return g.n }

// LocalRows returns the number of grid rows this processor owns.
func (g *Grid) LocalRows() int { return g.rows }

// Fill initializes the grid from a global function (unaccounted, like all
// initial data distribution).
func (g *Grid) Fill(f func(gi, gj int) float64) error {
	return g.cur.FillGlobal(f)
}

// Close releases both local array files and removes them.
func (g *Grid) Close() error {
	var errs []error
	for _, a := range []*oocarray.Array{g.cur, g.next} {
		errs = append(errs, a.Close(), g.disk.RemoveLAF(fmt.Sprintf("%s.p%d.laf", a.Name(), a.Proc())))
	}
	return errors.Join(errs...)
}

// exchange reads this processor's boundary rows back from disk and swaps
// them with the neighbors. The returned ghost rows are nil at the global
// edges.
func (g *Grid) exchange(tag int) (ghostTop, ghostBot []float64, err error) {
	rank, size := g.proc.Rank(), g.proc.Size()
	top, err := g.cur.ReadSection(0, 0, 1, g.n)
	if err != nil {
		return nil, nil, err
	}
	bot, err := g.cur.ReadSection(g.rows-1, 0, 1, g.n)
	if err != nil {
		return nil, nil, err
	}
	if rank > 0 {
		g.proc.Send(rank-1, tag, top.Data)
	}
	if rank < size-1 {
		g.proc.Send(rank+1, tag+1, bot.Data)
	}
	g.cur.Recycle(top)
	g.cur.Recycle(bot)
	if rank < size-1 {
		ghostBot = g.proc.Recv(rank+1, tag)
	}
	if rank > 0 {
		ghostTop = g.proc.Recv(rank-1, tag+1)
	}
	return ghostTop, ghostBot, nil
}

// Sweep performs one iteration: ghost-row exchange, then a pass over the
// local block in column slabs of slabCols columns (with a one-column
// halo), writing the new values to the back buffer and swapping buffers.
// tag and tag+1 are used for the neighbor messages.
func (g *Grid) Sweep(slabCols, tag int, update UpdateFunc) error {
	if slabCols < 1 {
		return fmt.Errorf("stencil: slabCols must be positive, got %d", slabCols)
	}
	ghostTop, ghostBot, err := g.exchange(tag)
	if err != nil {
		return err
	}
	defer mp.ReleaseBuf(ghostTop)
	defer mp.ReleaseBuf(ghostBot)
	n, rows := g.n, g.rows
	// Rows are BLOCK distributed: the local rows are one contiguous global
	// range, so one translation per sweep places them all.
	g0, _ := g.cur.GlobalIndex(0, 0)
	for c0 := 0; c0 < n; c0 += slabCols {
		w := slabCols
		if c0+w > n {
			w = n - c0
		}
		h0 := c0
		if h0 > 0 {
			h0--
		}
		hEnd := c0 + w
		if hEnd < n {
			hEnd++
		}
		halo, err := g.cur.ReadSection(0, h0, rows, hEnd-h0)
		if err != nil {
			return err
		}
		// Every element of out is Set below, so the pooled buffer needs no
		// clearing.
		out := &oocarray.ICLA{RowOff: 0, ColOff: c0, Rows: rows, Cols: w,
			Data: bufpool.GetF64(rows * w)}
		for cc := 0; cc < w; cc++ {
			j := c0 + cc // columns collapsed: local == global
			hj := j - h0
			for i := 0; i < rows; i++ {
				gi := g0 + i
				center := halo.At(i, hj)
				if gi == 0 || gi == n-1 || j == 0 || j == n-1 {
					out.Set(i, cc, center)
					continue
				}
				var up, down float64
				if i > 0 {
					up = halo.At(i-1, hj)
				} else {
					up = ghostTop[j]
				}
				if i < rows-1 {
					down = halo.At(i+1, hj)
				} else {
					down = ghostBot[j]
				}
				out.Set(i, cc, update(center, up, down, halo.At(i, hj-1), halo.At(i, hj+1)))
			}
		}
		g.proc.Compute(int64(5 * rows * w))
		if err := g.next.WriteSection(out); err != nil {
			return err
		}
		g.next.Recycle(out)
		g.cur.Recycle(halo)
	}
	g.cur, g.next = g.next, g.cur
	return nil
}

// ReadLocal returns the current local block (verification helper).
func (g *Grid) ReadLocal() (*matrix.Matrix, error) {
	return g.cur.ReadLocal()
}

// Reference runs the same iterations sequentially in core, for
// verification: identical per-element arithmetic, so results match
// exactly.
func Reference(n, iters int, init func(i, j int) float64, update UpdateFunc) *matrix.Matrix {
	cur := matrix.New(n, n).Fill(init)
	buf := matrix.New(n, n)
	for it := 0; it < iters; it++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == 0 || i == n-1 || j == 0 || j == n-1 {
					buf.Set(i, j, cur.At(i, j))
					continue
				}
				buf.Set(i, j, update(cur.At(i, j), cur.At(i-1, j), cur.At(i+1, j), cur.At(i, j-1), cur.At(i, j+1)))
			}
		}
		cur, buf = buf, cur
	}
	return cur
}
