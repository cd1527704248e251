package exec

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// TestInputsRunLikeFill runs each plan with its inputs given as Fill
// closures, as the equivalent separable Inputs, and twice as those
// Inputs kept in one Images, as a served plan's jobs run (the first run
// makes the shared images, the second fills from them): the fills issue
// the same transfers, so the runs must count the same operations and
// give equal statistics, equal arrays and the same fired faults, with no
// fault, with rank 1's disk lost inside the fills (its op 0 and op 3)
// and with rank 1 killed inside them.
func TestInputsRunLikeFill(t *testing.T) {
	transpose := transposeRegimes(t)["two-phase/spill"]
	for _, prog := range []struct {
		name   string
		res    *compiler.Result
		fill   map[string]func(int, int) float64
		inputs map[string]oocarray.Input
	}{
		{"gaxpy", chaosProgram(t, "row-slab"), sweepFills(),
			map[string]oocarray.Input{"a": gaxpy.InputA(), "b": gaxpy.InputB()}},
		{"transpose", transpose, transposeFills(), map[string]oocarray.Input{"a": {
			Row: func(gi int) float64 { return float64(gi * 16) },
			Col: func(gj int) float64 { return float64(gj) },
			Add: true,
		}}},
	} {
		for _, tc := range []struct {
			name string
			opts func() Options
		}{
			{"no fault", func() Options { return Options{} }},
			{"disk lost at op 0", func() Options {
				return Options{Parity: true, Resilience: parityResilience(),
					Faults: []mp.Fault{{Rank: 1, Op: 0, Kind: mp.LoseDisk}}}
			}},
			{"disk lost at op 3", func() Options {
				return Options{Parity: true, Resilience: parityResilience(),
					Faults: []mp.Fault{{Rank: 1, Op: 3, Kind: mp.LoseDisk}}}
			}},
			{"rank killed at op 3", func() Options {
				o := surviveOptions(iosim.NewMemFS())
				o.Faults = []mp.Fault{{Rank: 1, Op: 3}}
				return o
			}},
		} {
			mach := sim.Delta(prog.res.Program.Procs)
			run := func(fill map[string]func(int, int) float64, inputs map[string]oocarray.Input) (*Result, []int64) {
				o := tc.opts()
				o.Fill, o.Inputs = fill, inputs
				o.OpCounts = make([]int64, prog.res.Program.Procs)
				out, err := Run(prog.res.Program, mach, o)
				if err != nil {
					t.Fatalf("%s, %s: %v", prog.name, tc.name, err)
				}
				t.Cleanup(func() { out.Close() })
				return out, o.OpCounts
			}
			byFill, fillOps := run(prog.fill, nil)
			images := oocarray.NewImages()
			t.Cleanup(images.Release)
			kept := map[string]oocarray.Input{}
			for name, in := range prog.inputs {
				kept[name] = images.Keep(in)
			}
			for i, inputs := range []map[string]oocarray.Input{prog.inputs, kept, kept} {
				byInputs, inputOps := run(nil, inputs)
				what := prog.name + ", " + tc.name + ", " + []string{"inputs", "kept inputs", "kept inputs again"}[i]
				compareRuns(t, what, tc.name, byFill, byInputs, fillOps, inputOps)
			}
		}
	}
}

// compareRuns holds a run of inputs to the run of the equivalent fills:
// the same operation counts, statistics, fired faults and arrays.
func compareRuns(t *testing.T, what, faults string, byFill, byInputs *Result, fillOps, inputOps []int64) {
	t.Helper()
	if !reflect.DeepEqual(fillOps, inputOps) {
		t.Errorf("%s: operation counts differ: %v, %v", what, fillOps, inputOps)
	}
	if !reflect.DeepEqual(byFill.Stats.Snapshot(), byInputs.Stats.Snapshot()) {
		t.Errorf("%s: statistics differ:\n%+v\n%+v", what, byFill.Stats.Snapshot(), byInputs.Stats.Snapshot())
	}
	if !reflect.DeepEqual(byFill.DiskLosses, byInputs.DiskLosses) || byFill.Attempts != byInputs.Attempts ||
		len(byFill.Recoveries) != len(byInputs.Recoveries) {
		t.Errorf("%s: faults differ: losses %v, %v; attempts %d, %d; recoveries %d, %d", what,
			byFill.DiskLosses, byInputs.DiskLosses, byFill.Attempts, byInputs.Attempts,
			len(byFill.Recoveries), len(byInputs.Recoveries))
	}
	if strings.HasPrefix(faults, "disk") && len(byInputs.DiskLosses) != 1 {
		t.Errorf("%s: %d disk losses fired, want 1", what, len(byInputs.DiskLosses))
	}
	if strings.HasPrefix(faults, "rank") && len(byInputs.Recoveries) != 1 {
		t.Errorf("%s: %d recoveries, want 1", what, len(byInputs.Recoveries))
	}
	for i, rec := range byFill.Recoveries {
		if other := byInputs.Recoveries[i]; !reflect.DeepEqual(rec.Failed, other.Failed) ||
			!reflect.DeepEqual(rec.Stats.Snapshot(), other.Stats.Snapshot()) || rec.RebuildIO != other.RebuildIO {
			t.Errorf("%s: recovery %d differs", what, i)
		}
	}
	for _, spec := range byFill.Program.Arrays {
		a, err := byFill.ReadArray(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := byInputs.ReadArray(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Data, b.Data) {
			t.Errorf("%s: array %s differs", what, spec.Name)
		}
	}
}

// TestFillAndInputsNameOneArray: an array named in both maps is an
// option error, raised before any rank starts.
func TestFillAndInputsNameOneArray(t *testing.T) {
	res := sweepProgram(t)
	_, err := Run(res.Program, sim.Delta(res.Program.Procs), Options{
		Fill:   map[string]func(int, int) float64{"a": gaxpy.FillA},
		Inputs: map[string]oocarray.Input{"a": gaxpy.InputA(), "b": gaxpy.InputB()},
	})
	if err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("Fill and Inputs both naming a: err = %v", err)
	}
}
