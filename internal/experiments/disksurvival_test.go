package experiments

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestDiskSurvivalSweep runs the disk-loss sweep at a reduced scale and
// asserts the acceptance gates: every injected run completes bitwise
// identical, reconstruction traffic shows up in the counters, the parity
// overhead of the fault-free protected run matches the closed form
// exactly, and the unprotected control fails.
func TestDiskSurvivalSweep(t *testing.T) {
	r, err := DiskSurvival(Params{N: 64, Procs: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if gerr := r.Gate(); gerr != nil {
		t.Fatalf("gate: %v\n%s", gerr, r.Format())
	}
	if len(r.Rows) < 6 {
		t.Fatalf("sweep too small: %d rows", len(r.Rows))
	}
	text := r.Format()
	for _, want := range []string{"gaxpy", "transpose", "closed form", "exact: true"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(r.CSV(), "program,victim,op") {
		t.Error("CSV header missing")
	}
}

// TestDiskSurvivalDefaultScale runs the experiment at its default N=256
// configuration — the scale the acceptance criteria name.
func TestDiskSurvivalDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale sweep is slow under -short")
	}
	r, err := DiskSurvival(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 256 || r.Procs != 4 {
		t.Fatalf("defaults wrong: N=%d procs=%d", r.N, r.Procs)
	}
	if gerr := r.Gate(); gerr != nil {
		t.Fatalf("gate: %v\n%s", gerr, r.Format())
	}
}

// TestDiskSurvivalRowsIndependentOfScheduling: a disk loss fires at an
// operation of the victim rank, and the peers' parity writes to the lost
// disk store nothing until the collective rebuild, so no row depends on
// how the host interleaves the ranks. The op-0 rows — a loss during the
// input fills, while peers may still be creating their files — are the
// ones that once read different recovery traffic from run to run; each
// must come out the same on one host thread as on every one, run after
// run.
func TestDiskSurvivalRowsIndependentOfScheduling(t *testing.T) {
	sweep := func(procs int) []DiskSurvivalRow {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := DiskSurvival(Params{N: 64, Procs: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows
	}
	want := sweep(1)
	for _, program := range []string{"gaxpy", "transpose"} {
		if !slices.ContainsFunc(want, func(row DiskSurvivalRow) bool { return row.Program == program && row.Op == 0 }) {
			t.Fatalf("no %s row at op 0: %+v", program, want)
		}
	}
	for i, procs := range []int{runtime.NumCPU(), 1, runtime.NumCPU()} {
		if got := sweep(procs); !slices.Equal(got, want) {
			t.Fatalf("run %d at GOMAXPROCS=%d: rows differ from GOMAXPROCS=1\ngot  %+v\nwant %+v", i, procs, got, want)
		}
	}
}
