// Package wallbench measures the simulator's own wall-clock cost — the
// time and heap traffic the host spends per simulated run — as opposed
// to bench_test.go, which reports the simulated seconds the paper's
// tables care about. Each kernel is a small, deterministic end-to-end
// run pinned to a fixed scale; the harness times it with
// testing.Benchmark and records ns/op, B/op, allocs/op and the simulated
// seconds (which must never change when the host-side code gets faster).
//
// cmd/ooc-bench -wallclock runs the suite, writes BENCH_wallclock.json,
// and — given a committed baseline — gates regressions: ns/op within a
// generous factor (timing is noisy on shared CI), allocs/op exactly
// (allocation counts of deterministic runs are reproducible), sim_s to
// the bit.
package wallbench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// Result is one kernel's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// SimS is the simulated seconds the kernel reports. It is recorded
	// so the baseline doubles as a bitwise-identity witness: host-side
	// optimization must leave it unchanged to the digit.
	SimS float64 `json:"sim_s"`
}

// Report is the BENCH_wallclock.json document.
type Report struct {
	Note    string   `json:"note"`
	Kernels []Result `json:"kernels"`
}

// Kernel is one suite entry. Make performs the one-time setup (compile,
// probe) and returns the operation to be timed; the operation returns
// the simulated seconds of the run it performed.
type Kernel struct {
	Name string
	Make func() (func() (float64, error), error)
}

// RunKernel times one kernel.
func RunKernel(k Kernel) (Result, error) {
	op, err := k.Make()
	if err != nil {
		return Result{}, fmt.Errorf("wallbench: %s: setup: %w", k.Name, err)
	}
	// Warm-up run outside the timed region: it validates the kernel once
	// and pays one-time costs (lazy init, map growth) before measuring.
	simS, err := op()
	if err != nil {
		return Result{}, fmt.Errorf("wallbench: %s: %w", k.Name, err)
	}
	var opErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := op()
			if err != nil {
				opErr = err
				return
			}
			if s != simS {
				opErr = fmt.Errorf("simulated seconds changed between runs: %v then %v", simS, s)
				return
			}
		}
	})
	if opErr != nil {
		return Result{}, fmt.Errorf("wallbench: %s: %w", k.Name, opErr)
	}
	return Result{
		Name:        k.Name,
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		SimS:        simS,
	}, nil
}

// RunSuite runs the given kernels (all registered kernels when names is
// empty) and returns the report. Progress goes to stderr so CI logs show
// liveness.
func RunSuite(names []string) (*Report, error) {
	kernels := Kernels
	if len(names) > 0 {
		kernels = nil
		for _, name := range names {
			k, ok := kernelByName(name)
			if !ok {
				return nil, fmt.Errorf("wallbench: unknown kernel %q (have %s)", name, strings.Join(KernelNames(), ", "))
			}
			kernels = append(kernels, k)
		}
	}
	rep := &Report{Note: "wall-clock cost of the simulator itself; sim_s must stay bitwise identical across host-side optimization"}
	for _, k := range kernels {
		fmt.Fprintf(os.Stderr, "wallbench: %s...\n", k.Name)
		r, err := RunKernel(k)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "wallbench: %s: %.0f ns/op  %d B/op  %d allocs/op  sim_s=%v\n",
			k.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.SimS)
		rep.Kernels = append(rep.Kernels, r)
	}
	return rep, nil
}

func kernelByName(name string) (Kernel, bool) {
	for _, k := range Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// KernelNames lists the registered kernels in suite order.
func KernelNames() []string {
	names := make([]string, len(Kernels))
	for i, k := range Kernels {
		names[i] = k.Name
	}
	return names
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by WriteFile.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("wallbench: %s: %w", path, err)
	}
	return &r, nil
}

func (r *Report) byName() map[string]Result {
	m := make(map[string]Result, len(r.Kernels))
	for _, k := range r.Kernels {
		m[k.Name] = k
	}
	return m
}

// Compare gates cur against base: every baseline kernel must be present,
// its ns/op within nsFactor of the baseline (wall time is noisy), its
// allocs/op no worse than the baseline exactly (allocation counts of
// deterministic kernels are reproducible, so any increase is a real
// regression), and its simulated seconds bit-equal to the baseline's.
// It returns an error listing every violation, in baseline order.
func Compare(cur, base *Report, nsFactor float64) error {
	curBy := cur.byName()
	var violations []string
	for _, b := range base.Kernels {
		name := b.Name
		c, ok := curBy[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: kernel missing from current run", name))
			continue
		}
		if limit := b.NsPerOp * nsFactor; c.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf("%s: ns/op regressed: %.0f > %.1fx baseline %.0f",
				name, c.NsPerOp, nsFactor, b.NsPerOp))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			violations = append(violations, fmt.Sprintf("%s: allocs/op regressed: %d > baseline %d",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
		if math.Float64bits(c.SimS) != math.Float64bits(b.SimS) {
			violations = append(violations, fmt.Sprintf("%s: sim_s %v differs from baseline %v",
				name, c.SimS, b.SimS))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("wallbench: benchmark regression:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}
