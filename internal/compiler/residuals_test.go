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

const costResidualsPath = "testdata/cost_residuals.txt"

// residualTuples are the ledger's (n, P, memory) points.
var residualTuples = [][3]int{{64, 4, 1024}, {64, 4, 2048}, {128, 8, 4096}}

// predicted sums candidate c's traffic on array name. A transpose's
// tallies name the source "src", and its destination and scratch
// traffic lands on the destination's files.
func predicted(c cost.Candidate, an *Analysis, name string) (fetches, requests, elems int64) {
	for _, s := range c.Streams {
		if s.Array == name {
			fetches, requests, elems = fetches+s.Fetches(), requests+s.Requests(), elems+s.Elems()
		}
	}
	for _, tl := range c.Tallies {
		if (tl.Array == "src") == (name == an.Transpose.Src) {
			fetches, requests, elems = fetches+tl.Fetches, requests+tl.Requests, elems+tl.Elems
		}
	}
	return fetches, requests, elems
}

// residualLines runs every candidate of the four example programs, forced,
// in phantom mode at the ledger's points (weighted policy, sieving off and
// on in both the compiler and the runtime) and returns, per array, the
// predicted and the busiest rank's measured counts with the residual
// measured - predicted, then the same for messages.
func residualLines(t *testing.T) []string {
	t.Helper()
	lines := []string{"# predicted/measured (measured - predicted) per array, the busiest rank measured; regenerate with -update-witness"}
	row := func(what string, pred, meas int64) string {
		return fmt.Sprintf("%s %d/%d (%+d)", what, pred, meas, meas-pred)
	}
	for _, wp := range witnessPrograms {
		src, err := os.ReadFile("../../testdata/" + wp.name + ".hpf")
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range residualTuples {
			n, p, mem := tu[0], tu[1], tu[2]
			for _, sieve := range []bool{false, true} {
				for _, label := range wp.labels {
					res, err := CompileSource(string(src), Options{
						N: n, Procs: p, MemElems: mem, Machine: sim.Delta(p), Policy: PolicyWeighted, Force: label, Runtime: oocarray.Options{Sieve: sieve},
					})
					if err != nil {
						t.Fatalf("%s n=%d p=%d mem=%d %s: %v", wp.name, n, p, mem, label, err)
					}
					out, err := exec.Run(res.Program, sim.Delta(p), exec.Options{Phantom: true})
					if err != nil {
						t.Fatalf("%s n=%d p=%d mem=%d %s: %v", wp.name, n, p, mem, label, err)
					}
					c, an, elem := res.Candidates[res.Chosen], res.Analysis, int64(sim.Delta(p).ElemSize)
					lines = append(lines, fmt.Sprintf("%s n=%d p=%d mem=%d sieve=%t %s", wp.name, n, p, mem, sieve, label))
					for _, name := range an.Arrays {
						pf, pr, pe := predicted(c, an, name)
						io := out.MaxArrayIO(name)
						lines = append(lines, fmt.Sprintf("  %-5s %s  %s  %s", name,
							row("fetches", pf, io.SlabReads+io.SlabWrites), row("requests", pr, io.Requests()),
							row("elems", pe, io.Bytes()/elem)))
					}
					var msgs int64
					for _, ps := range out.Stats.Procs {
						msgs = max(msgs, ps.Comm.MessagesSent)
					}
					lines = append(lines, "  "+row("messages", c.Comm.Messages, msgs))
				}
			}
		}
	}
	return lines
}

// TestCostResiduals holds the cost model's distance from the runtime to
// testdata/cost_residuals.txt: a non-zero residual is a known gap of the
// model, and any change to one, closing it or not, shows here.
func TestCostResiduals(t *testing.T) {
	got := strings.Join(residualLines(t), "\n") + "\n"
	if *updateWitness {
		if err := os.WriteFile(costResidualsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(costResidualsPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != got {
		want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
		for i := range min(len(want), len(have)) {
			if want[i] != have[i] {
				t.Fatalf("line %d differs from %s\n got: %s\nwant: %s", i+1, costResidualsPath, have[i], want[i])
			}
		}
		t.Fatalf("%s has %d lines, the run %d", costResidualsPath, len(want), len(have))
	}
}

// TestTimeLoopResidualScales: the time loop itself is priced exactly.
// Every trip of Jacobi runs the same exchanges, halo reads and output
// pre-reads, which the ledger leaves unpriced, so its residual at T trips
// is T times the residual of one trip, array by array and for messages.
func TestTimeLoopResidualScales(t *testing.T) {
	const n, p, mem = 64, 4, 1024
	residual := func(trips int) []int64 {
		src := strings.Replace(hpf.JacobiSource, "iters=3", fmt.Sprintf("iters=%d", trips), 1)
		res, err := CompileSource(src, Options{N: n, Procs: p, MemElems: mem, Machine: sim.Delta(p)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Run(res.Program, sim.Delta(p), exec.Options{Phantom: true})
		if err != nil {
			t.Fatal(err)
		}
		c, an, elem := res.Candidates[res.Chosen], res.Analysis, int64(sim.Delta(p).ElemSize)
		var r []int64
		for _, name := range an.Arrays {
			pf, pr, pe := predicted(c, an, name)
			io := out.MaxArrayIO(name)
			r = append(r, io.SlabReads+io.SlabWrites-pf, io.Requests()-pr, io.Bytes()/elem-pe)
		}
		var msgs int64
		for _, ps := range out.Stats.Procs {
			msgs = max(msgs, ps.Comm.MessagesSent)
		}
		return append(r, msgs-c.Comm.Messages)
	}
	one := residual(1)
	for _, trips := range []int{2, 3, 5} {
		got := residual(trips)
		for i := range one {
			if got[i] != int64(trips)*one[i] {
				t.Fatalf("%d trips: residuals %v, want %d times one trip's %v", trips, got, trips, one)
			}
		}
	}
}
