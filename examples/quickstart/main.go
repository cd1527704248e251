// Quickstart: compile the paper's Figure 3 GAXPY program for a simulated
// 4-processor machine, run it out of core, and inspect the result — the
// whole pipeline through the public facade in a dozen lines.
package main

import (
	"fmt"
	"log"

	passion "github.com/ooc-hpf/passion"
)

func main() {
	// A session bundles the machine model (a 4-processor Touchstone
	// Delta) with a file system for the local array files.
	session := passion.NewSession(4)

	// Compile the built-in HPF program with 64x64 arrays and room for
	// 2048 array elements of slab memory per node, then execute it with
	// the library's deterministic test inputs.
	out, err := session.CompileAndRun(passion.GaxpySource,
		passion.CompileOptions{N: 64, MemElems: 2048},
		passion.ExecOptions{Fill: map[string]func(int, int) float64{
			"a": passion.GaxpyFillA,
			"b": passion.GaxpyFillB,
		}})
	if err != nil {
		log.Fatal(err)
	}
	// Done with the arrays: remove the run's local array files.
	defer out.Executed.Close()

	fmt.Printf("strategy chosen by the compiler: %s\n", out.Compiled.Program.Strategy)
	fmt.Printf("simulated execution: %s\n", out.Stats())

	// Pull the distributed result back together and spot-check it.
	c, err := out.Array("c")
	if err != nil {
		log.Fatal(err)
	}
	want := passion.GaxpyExpected(64)
	for _, ij := range [][2]int{{0, 0}, {13, 7}, {63, 63}} {
		got := c.At(ij[0], ij[1])
		if got != want(ij[0], ij[1]) {
			log.Fatalf("C(%d,%d) = %g, want %g", ij[0], ij[1], got, want(ij[0], ij[1]))
		}
		fmt.Printf("C(%2d,%2d) = %g (verified)\n", ij[0], ij[1], got)
	}
	fmt.Println("quickstart: OK")
}
