package compiler

import (
	"os"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
)

// FuzzCompile compiles arbitrary source, as ooc-serve accepts it over
// HTTP, under bounded options: the compiler must never panic, every
// program it accepts must lower to an opcode stream, and a GAXPY-class
// program's derived candidates must be Equations 3-6. The option bytes
// pick n in {8, 16, 32, 64}, the processor count in {the program's, 1, 2,
// 4}, 16 to 4096 elements of memory, and the policy, force and sieve.
func FuzzCompile(f *testing.F) {
	for _, wp := range witnessPrograms {
		src, err := os.ReadFile("../../testdata/" + wp.name + ".hpf")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint8(3), uint8(0), uint8(255), uint8(0))
	}
	forces := []string{"", "column-slab", "row-slab", "direct", "sieved", "two-phase", "twophase", "diagonal"}
	f.Fuzz(func(t *testing.T, src string, nSel, procSel, memSel, knobs uint8) {
		prog, err := hpf.Parse(src)
		if err != nil {
			return
		}
		opts := Options{
			N:        8 << (nSel % 4),
			Procs:    []int{0, 1, 2, 4}[procSel%4],
			MemElems: 16 * (1 + int(memSel)),
			Policy:   MemPolicy(knobs % 3),
			Force:    forces[int(knobs/3)%len(forces)],
			Runtime:  oocarray.Options{Sieve: knobs >= 128},
		}
		res, err := Compile(prog, opts)
		if err != nil {
			return
		}
		if _, err := bytecode.Compile(res.Program); err != nil {
			t.Fatalf("accepted %s program does not lower: %v\n%s", res.Analysis.Pattern, err, src)
		}
		if res.Analysis.Pattern == PatternGaxpy {
			if err := closedFormMismatch(res, opts.Runtime.Sieve); err != nil {
				t.Fatalf("derived candidates are not Equations 3-6: %v\n%s", err, src)
			}
		}
	})
}
