// Out-of-core transpose and redistribution: the Section 2.3 machinery.
// Data often arrives on disk in a layout that does not match the
// distribution a program declares; this example (1) redistributes an
// array from column-block to row-block, and (2) transposes an array, both
// expressed as mapped redistributions over the message-passing machine,
// and verifies every element.
package main

import (
	"fmt"
	"log"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

const (
	n       = 96
	procs   = 4
	slabMem = n * 4 // four columns of slab memory per array
)

func value(i, j int) float64 { return float64(i*1000 + j) }

func main() {
	fs := iosim.NewMemFS()
	stats, err := mp.Run(sim.Delta(procs), func(p *mp.Proc) error {
		disk := iosim.NewDisk(fs, p.Config(), &p.Stats().IO)
		newArr := func(name string, rowMap, colMap dist.Map) (*oocarray.Array, error) {
			dm, err := dist.NewArray(name, rowMap, colMap)
			if err != nil {
				return nil, err
			}
			return oocarray.New(disk, dm, p.Rank(), p.Clock(), oocarray.Options{})
		}

		// src arrives column-block (as if written by a previous
		// computation); the consumer wants it row-block.
		src, err := newArr("src", dist.NewCollapsed(n), dist.NewBlock(n, procs))
		if err != nil {
			return err
		}
		defer src.Close()
		if err := src.FillGlobal(value); err != nil {
			return err
		}
		rowBlocked, err := newArr("rowblocked", dist.NewBlock(n, procs), dist.NewCollapsed(n))
		if err != nil {
			return err
		}
		defer rowBlocked.Close()
		if err := oocarray.Redistribute(p, src, rowBlocked, slabMem, 31); err != nil {
			return err
		}
		m, err := rowBlocked.ReadLocal()
		if err != nil {
			return err
		}
		for lj := 0; lj < rowBlocked.LocalCols(); lj++ {
			for li := 0; li < rowBlocked.LocalRows(); li++ {
				gi, gj := rowBlocked.GlobalIndex(li, lj)
				if m.At(li, lj) != value(gi, gj) {
					return fmt.Errorf("redistribute: wrong value at global (%d,%d)", gi, gj)
				}
			}
		}

		// Transpose: dst(j, i) = src(i, j), expressed as a mapped
		// redistribution.
		transposed, err := newArr("transposed", dist.NewCollapsed(n), dist.NewBlock(n, procs))
		if err != nil {
			return err
		}
		defer transposed.Close()
		swap := func(gi, gj int) (int, int) { return gj, gi }
		if err := oocarray.RedistributeMapped(p, src, transposed, slabMem, 32, swap); err != nil {
			return err
		}
		t, err := transposed.ReadLocal()
		if err != nil {
			return err
		}
		for lj := 0; lj < transposed.LocalCols(); lj++ {
			for li := 0; li < transposed.LocalRows(); li++ {
				gi, gj := transposed.GlobalIndex(li, lj)
				if t.At(li, lj) != value(gj, gi) {
					return fmt.Errorf("transpose: wrong value at global (%d,%d)", gi, gj)
				}
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	comm := stats.TotalComm()
	fmt.Printf("transpose + redistribution of a %dx%d array over %d processors, out of core\n", n, n, procs)
	fmt.Printf("simulated execution: %s\n", stats)
	fmt.Printf("communication: %d messages, %d collective operations\n", comm.MessagesSent, comm.Collectives)
	fmt.Println("redistribution verified; transpose verified: OK")
}
