package wallbench

import (
	"strings"
	"testing"
)

func report(kernels ...Result) *Report { return &Report{Kernels: kernels} }

// TestCompare drives every gate Compare holds a report to, one violation
// per case, and a report that passes them all.
func TestCompare(t *testing.T) {
	base := report(
		Result{Name: "gaxpy", NsPerOp: 1000, AllocsPerOp: 10, SimS: 5.594427525310976},
		Result{Name: "transpose", NsPerOp: 2000, AllocsPerOp: 20, SimS: 2.7151484963493107},
	)
	for _, tc := range []struct {
		name string
		cur  *Report
		want string // "" means Compare passes
	}{
		{"passing", report(
			// Faster, fewer allocations, and a kernel the baseline lacks.
			Result{Name: "transpose", NsPerOp: 2500, AllocsPerOp: 19, SimS: 2.7151484963493107},
			Result{Name: "gaxpy", NsPerOp: 900, AllocsPerOp: 10, SimS: 5.594427525310976},
			Result{Name: "new", NsPerOp: 1, SimS: 1},
		), ""},
		{"missing kernel", report(
			Result{Name: "gaxpy", NsPerOp: 1000, AllocsPerOp: 10, SimS: 5.594427525310976},
		), "transpose: kernel missing"},
		{"allocs above baseline", report(
			Result{Name: "gaxpy", NsPerOp: 1000, AllocsPerOp: 11, SimS: 5.594427525310976},
			Result{Name: "transpose", NsPerOp: 2000, AllocsPerOp: 20, SimS: 2.7151484963493107},
		), "gaxpy: allocs/op regressed: 11 > baseline 10"},
		{"ns/op over the factor", report(
			Result{Name: "gaxpy", NsPerOp: 1000, AllocsPerOp: 10, SimS: 5.594427525310976},
			Result{Name: "transpose", NsPerOp: 6001, AllocsPerOp: 20, SimS: 2.7151484963493107},
		), "transpose: ns/op regressed"},
		{"sim_s drift in the last bit", report(
			Result{Name: "gaxpy", NsPerOp: 1000, AllocsPerOp: 10, SimS: 5.594427525310977},
			Result{Name: "transpose", NsPerOp: 2000, AllocsPerOp: 20, SimS: 2.7151484963493107},
		), "gaxpy: sim_s 5.594427525310977 differs from baseline 5.594427525310976"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Compare(tc.cur, base, 3)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("want a pass, got %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("want a violation %q, got a pass", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("violation %q missing from %v", tc.want, err)
			}
		})
	}
}
