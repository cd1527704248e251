package compiler

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// forallVariants rewrites an elementwise program, declared column-block
// over a 1-D arrangement, into the three mappings the class admits; each
// gives the local shape its processors hold.
var forallVariants = []struct {
	name  string
	edits []string
	// grid fixes the arrangement at 2 x 2, so the processor count cannot
	// be overridden.
	grid  bool
	local func(n, p int) (rows, cols int)
}{
	{"column-block", nil, false, func(n, p int) (int, int) { return n, n / p }},
	{"row-block", []string{"align (*,:)", "align (:,*)"}, false, func(n, p int) (int, int) { return n / p, n }},
	{"2-D grid", []string{
		"processors pr(nprocs)", "processors pr(2, 2)",
		"template d(n)", "template d(n, n)",
		"distribute d(block)", "distribute d(block, block)",
		"align (*,:)", "align (:,:)",
	}, true, func(n, _ int) (int, int) { return n / 2, n / 2 }},
}

// TestForallPredictionExact holds the elementwise candidates to the
// runtime: over a small N/P grid, with slabs of whole local columns and
// whole local rows (fewer than all of them) and no sieving, each
// candidate's fetches, requests and
// elements are exactly the busiest rank's in a phantom run of the plan it
// compiles to. A statement streams its own arrays, so scaledupdate's x,
// read by both statements, counts twice.
func TestForallPredictionExact(t *testing.T) {
	file, err := os.ReadFile("../../testdata/scaledupdate.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []struct{ name, src string }{{"scaledupdate.hpf", string(file)}, {"hpf.EwiseSource", hpf.EwiseSource}} {
		for _, v := range forallVariants {
			src := base.src
			for i := 0; i < len(v.edits); i += 2 {
				if !strings.Contains(src, v.edits[i]) {
					t.Fatalf("%s has no %q", base.name, v.edits[i])
				}
				src = strings.Replace(src, v.edits[i], v.edits[i+1], 1)
			}
			for _, n := range []int{16, 32, 64} {
				for _, p := range []int{2, 4} {
					procs := p
					if v.grid {
						procs, p = 0, 4
					}
					rows, cols := v.local(n, p)
					whole := rows * cols / gcd(rows, cols) // a whole number of local columns and of local rows
					for _, k := range []int{1, 2, 4} {
						if k*whole >= rows*cols {
							// One slab of the whole local array is one
							// contiguous request either way, which the row
							// slab's piece per column does not see
							// (testdata/cost_residuals.txt records it).
							continue
						}
						for _, force := range []string{"column-slab", "row-slab"} {
							name := fmt.Sprintf("%s %s n=%d p=%d slab=%d %s", base.name, v.name, n, p, k*whole, force)
							res, err := CompileSource(src, Options{N: n, Procs: procs, MemElems: 4 * k * whole, Force: force})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							out, err := exec.Run(res.Program, sim.Delta(p), exec.Options{Phantom: true})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							c, io := res.Candidates[res.Chosen], out.Stats.MaxIO()
							elem := int64(sim.Delta(p).ElemSize)
							if c.TotalFetches() != io.SlabReads+io.SlabWrites || c.TotalRequests() != io.Requests() ||
								c.TotalElems() != io.Bytes()/elem {
								t.Errorf("%s: predicted %d fetches, %d requests, %d elems; measured %d, %d, %d",
									name, c.TotalFetches(), c.TotalRequests(), c.TotalElems(),
									io.SlabReads+io.SlabWrites, io.Requests(), io.Bytes()/elem)
							}
						}
					}
				}
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// closedFormMismatch holds a GAXPY-class result's derived candidates to
// Equations 3-6: stream by stream, array names aside, each equals
// cost.GaxpyColumnSlab or GaxpyRowSlab at the candidate's own slab sizes.
func closedFormMismatch(res *Result, sieve bool) error {
	an := res.Analysis
	for _, c := range res.Candidates {
		g := cost.GaxpyParams{N: an.N, P: an.Procs, Sieve: sieve}
		for _, s := range c.Streams {
			switch s.Array {
			case an.A:
				g.SlabA = int(s.SlabElems)
			case an.B:
				g.SlabB = int(s.SlabElems)
			case an.C:
				g.SlabC = int(s.SlabElems)
			}
		}
		want := cost.GaxpyColumnSlab(g)
		if c.Label == "row-slab" {
			want = cost.GaxpyRowSlab(g)
		}
		if c.Label != want.Label || len(c.Streams) != len(want.Streams) {
			return fmt.Errorf("candidate %s, closed form %s", c, want)
		}
		for i, s := range c.Streams {
			if s.Array = want.Streams[i].Array; s != want.Streams[i] {
				return fmt.Errorf("%s stream %d: derived %+v, closed form %+v", c.Label, i, c.Streams[i], want.Streams[i])
			}
		}
	}
	return nil
}

// TestGaxpyCandidatesAreEquations compiles testdata/gaxpy.hpf over the
// compile witness's grid under every policy, sieve off and on, and holds
// both derived candidates to the closed forms.
func TestGaxpyCandidatesAreEquations(t *testing.T) {
	src, err := os.ReadFile("../../testdata/gaxpy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, policy := range []MemPolicy{PolicyEven, PolicyWeighted, PolicySearch} {
		for _, sieve := range []bool{false, true} {
			for _, n := range []int{64, 256, 1024, 4096, 16384} {
				for _, p := range []int{4, 16, 64, 256, 512} {
					for _, d := range []int{1, 4, 16, 64} {
						res, err := CompileSource(string(src), Options{
							N: n, Procs: p, MemElems: n * n / p / d, Machine: sim.Delta(p), Policy: policy, Runtime: oocarray.Options{Sieve: sieve},
						})
						if err != nil {
							continue
						}
						checked++
						if err := closedFormMismatch(res, sieve); err != nil {
							t.Errorf("%s sieve=%t n=%d p=%d d=%d: %v", policy, sieve, n, p, d, err)
						}
					}
				}
			}
		}
	}
	if checked != 6*53 {
		t.Errorf("checked %d tuples, want the witness's 6 x 53", checked)
	}
}
