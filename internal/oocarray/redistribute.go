package oocarray

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/mp"
)

// Redistribute copies the contents of src into dst, where both describe
// the same global index space under (possibly) different mappings — the
// initial-placement step of Section 2.3: "redistribution requires reading
// data from disks, communicating data between processors and writing the
// data to the local array files".
//
// Every processor of the machine must call Redistribute collectively with
// its own src/dst local arrays. The transfer runs over the collective
// two-phase I/O layer (internal/collio): source data is read in large
// contiguous column slabs within the memElems budget, shuffled to the
// destination owners through mp.AllToAllOwned, and staged into destination
// windows that are flushed with one contiguous write each — so both the
// transient memory and every individual disk request stay within the
// budget regardless of the local array sizes.
func Redistribute(p *mp.Proc, src, dst *Array, memElems, tag int) error {
	return RedistributeVia(p, src, dst, memElems, tag, nil, collio.TwoPhase)
}

// RedistributeMapped is Redistribute with an index transform: global
// element (gi, gj) of src is stored at transform(gi, gj) in dst's global
// index space. A nil transform is the identity (plain redistribution);
// swapping the indices yields an out-of-core transpose.
func RedistributeMapped(p *mp.Proc, src, dst *Array, memElems, tag int, transform func(gi, gj int) (int, int)) error {
	return RedistributeVia(p, src, dst, memElems, tag, transform, collio.TwoPhase)
}

// RedistributeVia is RedistributeMapped with an explicit destination
// write strategy.
func RedistributeVia(p *mp.Proc, src, dst *Array, memElems, tag int, transform func(gi, gj int) (int, int), method collio.Method) error {
	return RedistributeBy(p, src, dst, memElems, tag, collio.Func(transform), method)
}

// RedistributeBy is RedistributeVia with an index map the collective
// layer can inspect: the identity and collio.Transpose() — the maps the
// compiler emits — are routed by runs of elements, a collio.Func element
// by element, with the same result to the bit. The method lets the
// compiler's cost model pick among direct, sieved and two-phase writes
// per statement.
func RedistributeBy(p *mp.Proc, src, dst *Array, memElems, tag int, m collio.IndexMap, method collio.Method) error {
	if src.proc != p.Rank() || dst.proc != p.Rank() {
		return fmt.Errorf("oocarray: redistribute on rank %d with arrays of procs %d/%d", p.Rank(), src.proc, dst.proc)
	}
	return collio.Redistribute(p, src.collioSide(), dst.collioSide(), memElems, tag, m, method)
}
