package gaxpy

import (
	"fmt"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// oracleCase pairs a compiled GAXPY plan with the hand-written node
// program it must reproduce: Figure 5's in-core program when inCore is
// set, else the plan's own strategy, with slabs elements for A, B and C.
type oracleCase struct {
	name   string
	prg    *plan.Program
	slabs  [3]int
	inCore bool
	opts   oocarray.Options
	real   bool
}

// oracleGrid is one scale of the paper's experiments (internal/experiments).
type oracleGrid struct {
	// Table 1 and Figure 10 at table1N, the eqcheck grid at eqN, both over
	// procs x ratios; the in-core row at table1N over procs.
	table1N, eqN  int
	procs, ratios []int
	// Table 2: row-slab at table2N over table2P processors, slab sizes in
	// rows/columns of table2N/table2P elements.
	table2N, table2P int
	sizes            []int
	// The ablations' row-slab runs at ratio 1/8.
	ablN, ablP int
}

var (
	reducedGrid = oracleGrid{
		table1N: 128, eqN: 64, procs: []int{4, 8}, ratios: []int{8, 4, 2, 1},
		table2N: 256, table2P: 8, sizes: []int{32, 64, 128, 256},
		ablN: 128, ablP: 4,
	}
	paperGrid = oracleGrid{
		table1N: 1024, eqN: 512, procs: []int{4, 16, 32, 64}, ratios: []int{8, 4, 2, 1},
		table2N: 2048, table2P: 16, sizes: []int{256, 512, 1024, 2048},
		ablN: 512, ablP: 4,
	}
)

// slabForRatio is internal/experiments' slab for a 1/denom ratio of the
// out-of-core local array, never below one column.
func slabForRatio(n, p, denom int) int {
	return max(n*n/p/denom, n)
}

// cases lists every configuration the experiments run.
func (g oracleGrid) cases(t *testing.T) []oracleCase {
	t.Helper()
	var cs []oracleCase
	add := func(name string, inCore bool, opts oocarray.Options, n, procs int, strategy string, slabA, slabB, slabC int) {
		prg, err := Plan(n, procs, strategy, slabA, slabB, slabC)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cs = append(cs, oracleCase{name: name, prg: prg, slabs: [3]int{slabA, slabB, slabC}, inCore: inCore, opts: opts})
	}
	for _, n := range []int{g.table1N, g.eqN} {
		for _, procs := range g.procs {
			for _, denom := range g.ratios {
				s := slabForRatio(n, procs, denom)
				for _, strategy := range []string{"column-slab", "row-slab"} {
					add(fmt.Sprintf("grid/n=%d/p=%d/ratio=1_%d/%s", n, procs, denom, strategy), false, oocarray.Options{},
						n, procs, strategy, s, s, s)
				}
			}
		}
	}
	for _, procs := range g.procs {
		ocla := g.table1N * g.table1N / procs
		add(fmt.Sprintf("in-core/n=%d/p=%d", g.table1N, procs), true, oocarray.Options{},
			g.table1N, procs, "row-slab", ocla, ocla, ocla)
	}
	unit := g.table2N / g.table2P
	fixed := g.sizes[0]
	last := g.sizes[len(g.sizes)-1]
	even := (fixed + last) / 2
	pairs := [][2]int{{even, fixed + last - even}}
	for _, s := range g.sizes {
		pairs = append(pairs, [2]int{fixed, s})
		if s != fixed {
			pairs = append(pairs, [2]int{s, fixed})
		}
	}
	for _, pr := range pairs {
		add(fmt.Sprintf("table2/n=%d/p=%d/a=%d/b=%d", g.table2N, g.table2P, pr[0], pr[1]), false, oocarray.Options{},
			g.table2N, g.table2P, "row-slab", pr[0]*unit, pr[1]*unit, fixed*unit)
	}
	s := slabForRatio(g.ablN, g.ablP, 8)
	for _, opts := range []oocarray.Options{
		{}, {Prefetch: true}, {Sieve: true}, {Sieve: true, Prefetch: true},
		{WriteBehind: true}, {Sieve: true, Prefetch: true, WriteBehind: true},
	} {
		add(fmt.Sprintf("ablations/n=%d/p=%d/sieve=%v/prefetch=%v/write-behind=%v", g.ablN, g.ablP,
			opts.Sieve, opts.Prefetch, opts.WriteBehind), false, opts,
			g.ablN, g.ablP, "row-slab", s, s, s)
	}
	return cs
}

// check runs c compiled and by hand and compares them. Without prefetch
// the two agree bit for bit: simulated seconds by ==, every rank's
// statistics, and every rank's per-array I/O. With prefetch the compiled
// plan also prefetches B, which the hand program reads without its
// SlabReader: the I/O counts must still agree, and compiled may only be
// faster.
func (c oracleCase) check(t *testing.T) {
	t.Helper()
	mach := sim.Delta(c.prg.Procs)
	eopts := exec.Options{Phantom: !c.real, Runtime: c.opts}
	if c.real {
		eopts.Fill = map[string]func(int, int) float64{"a": FillA, "b": FillB}
	}
	out, err := exec.Run(c.prg, mach, eopts)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	variant := c.prg.Strategy
	if c.inCore {
		variant = "in-core"
	}
	hand, err := Variants[variant](mach, Config{
		N: c.prg.N, SlabA: c.slabs[0], SlabB: c.slabs[1], SlabC: c.slabs[2],
		Opts: c.opts, Phantom: !c.real,
	})
	if err != nil {
		t.Fatal(err)
	}

	counts := func(s trace.IOStats) trace.IOStats {
		if c.opts.Prefetch {
			s.Seconds = 0
		}
		return s
	}
	for r, hp := range hand.Stats.Procs {
		if cp := out.Stats.Procs[r]; !c.opts.Prefetch && cp != hp {
			t.Errorf("rank %d statistics differ:\ncompiled %+v\nhand     %+v", r, cp, hp)
		}
		for name, h := range map[string]trace.IOStats{"a": hand.PerArray[r].A, "b": hand.PerArray[r].B, "c": hand.PerArray[r].C} {
			if got := counts(*out.PerArray[r][name]); got != counts(h) {
				t.Errorf("rank %d array %s I/O differs:\ncompiled %+v\nhand     %+v", r, name, got, counts(h))
			}
		}
	}
	ce, he := out.Stats.ElapsedSeconds(), hand.Stats.ElapsedSeconds()
	if c.opts.Prefetch && ce > he || !c.opts.Prefetch && ce != he {
		t.Errorf("sim_s: compiled %v, hand %v", ce, he)
	}
	if c.real {
		cm, err := out.ReadArray("c")
		if err != nil {
			t.Fatal(err)
		}
		hm, err := hand.GatherC()
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(cm, hm) {
			t.Error("compiled and hand-coded C differ")
		}
	}
}

// TestCompiledMatchesHandCoded is the oracle behind every GAXPY
// experiment: each configuration of Table 1, its in-core row, Table 2
// with the Section 4.2.1 even split, the eqcheck grid and the ablation
// rows runs compiled (what internal/experiments measures) and through the
// hand-written Figures 5, 9 and 12, at reduced scale always and at the
// paper's scale without -short. The compiler's own picks (the former
// experiment E7, the memory policies) and real-data runs ride along.
func TestCompiledMatchesHandCoded(t *testing.T) {
	for _, g := range []struct {
		scale string
		grid  oracleGrid
	}{{"reduced", reducedGrid}, {"paper", paperGrid}} {
		if g.scale == "paper" && testing.Short() {
			continue
		}
		for _, c := range g.grid.cases(t) {
			t.Run(g.scale+"/"+c.name, c.check)
		}
	}

	compiled := func(name string, opts compiler.Options, real bool) {
		res, err := compiler.CompileSource(hpf.GaxpySource, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var slabs [3]int
		for i, name := range []string{"a", "b", "c"} {
			spec, _ := res.Program.Array(name)
			slabs[i] = spec.SlabElems
		}
		t.Run(name, oracleCase{name: name, prg: res.Program, slabs: slabs, real: real}.check)
	}
	for _, procs := range []int{2, 4} {
		s := slabForRatio(128, procs, 8)
		compiled(fmt.Sprintf("chosen/even/p=%d", procs),
			compiler.Options{N: 128, Procs: procs, MemElems: 2*s + 128, Policy: compiler.PolicyEven}, false)
	}
	compiled("chosen/search/real", compiler.Options{N: 64, Procs: 4, MemElems: 700, Policy: compiler.PolicySearch}, true)
	compiled("forced/column-slab/real", compiler.Options{N: 32, Procs: 4, MemElems: 200, Force: "column-slab"}, true)
	compiled("chosen/uneven/real", compiler.Options{N: 32, Procs: 4, MemElems: 300, Policy: compiler.PolicyWeighted}, true)
}

func TestPlanFixesSlabs(t *testing.T) {
	prg, err := Plan(64, 4, "column-slab", 128, 192, 256)
	if err != nil {
		t.Fatal(err)
	}
	if prg.Strategy != "column-slab" {
		t.Errorf("strategy %s", prg.Strategy)
	}
	for name, want := range map[string]int{"a": 128, "b": 192, "c": 256} {
		if a, _ := prg.Array(name); a.SlabElems != want {
			t.Errorf("slab(%s) = %d, want %d", name, a.SlabElems, want)
		}
	}
	text := prg.String()
	if !strings.Contains(text, "memory fixed: slab(a)=128, slab(b)=192, slab(c)=256 elements") ||
		strings.Contains(text, "memory policy") {
		t.Errorf("memory note does not state the fixed split:\n%s", text)
	}
	if _, err := Plan(64, 4, "row-slab", 128, 0, 256); err == nil {
		t.Error("a zero slab should fail")
	}
	if _, err := Plan(64, 4, "two-phase", 128, 128, 256); err == nil {
		t.Error("a strategy GAXPY has no candidate for should fail")
	}
}
