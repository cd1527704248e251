package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// tuple is one compile input: a program at a problem size, processor
// count and node memory.
type tuple struct {
	kind          string
	src           string
	n, procs, mem int
}

func (t tuple) label() string {
	return fmt.Sprintf("%s/n%d/p%d/m%d", t.kind, t.n, t.procs, t.mem)
}

func (s jobSpec) tuple() tuple {
	return tuple{s.kind, s.req.Source, s.req.N, s.req.Procs, s.req.MemElems}
}

// options are the compile options the service uses for a request, so a
// plan compiled here is the plan a served job runs.
func (t tuple) options() compiler.Options {
	return compiler.Options{
		N: t.n, Procs: t.procs, MemElems: t.mem,
		Machine: sim.Delta(t.procs), Policy: compiler.PolicyWeighted,
	}
}

// artifact is what one pass of the compile pipeline produces.
type artifact struct {
	res     *compiler.Result
	code    *bytecode.Program
	encoded []byte
	// predicted is the cost model's estimate for the chosen strategy, in
	// simulated seconds.
	predicted float64
}

// pipeline is one compile_sweep job: parse, compile (cost model and the
// Figure 14 decision), lower, encode, decode, fingerprint. Each stage is
// a span under parent when rec is non-nil.
func pipeline(rec *recorder, parent int, t tuple) (artifact, error) {
	var a artifact
	job := ""
	if rec != nil {
		job = t.label()
	}
	root := rec.begin("pipeline", job, parent)
	defer rec.end(root)

	id := rec.begin("hpf.parse", job, root)
	prog, err := hpf.Parse(t.src)
	rec.end(id)
	if err != nil {
		return a, err
	}
	opts := t.options()
	id = rec.begin("compiler.compile", job, root)
	a.res, err = compiler.Compile(prog, opts)
	rec.end(id)
	if err != nil {
		return a, err
	}
	id = rec.begin("bytecode.lower", job, root)
	a.code, err = bytecode.Compile(a.res.Program)
	rec.end(id)
	if err != nil {
		return a, err
	}
	id = rec.begin("bytecode.encode", job, root)
	a.encoded = bytecode.Encode(a.code)
	rec.end(id)
	id = rec.begin("bytecode.decode", job, root)
	dec, err := bytecode.Decode(a.encoded)
	rec.end(id)
	if err != nil {
		return a, err
	}
	id = rec.begin("plan.fingerprint", job, root)
	fp := plan.Fingerprint(a.res.Program, nil)
	rec.end(id)
	if dec.Fingerprint != fp {
		return a, fmt.Errorf("%s: decoded stream carries fingerprint %s, plan has %s", t.label(), dec.Fingerprint, fp)
	}
	a.predicted = a.res.Candidates[a.res.Chosen].Seconds(opts.Machine)
	return a, nil
}

// roundTrip re-encodes the decoded stream and requires the same bytes.
func roundTrip(a artifact) error {
	dec, err := bytecode.Decode(a.encoded)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytecode.Encode(dec), a.encoded) {
		return fmt.Errorf("re-encoded stream differs from the original %d bytes", len(a.encoded))
	}
	return nil
}

// sweepGrid is the paper's Table 1 range. Memory is the local array size
// divided by the ratio's denominator.
var sweepGrid = struct {
	kinds  []string
	n      []int
	procs  []int
	denoms []int
}{
	kinds:  []string{kindGaxpy, kindTranspose, kindEwise, kindStencil},
	n:      []int{64, 256, 1024, 4096, 16384},
	procs:  []int{4, 16, 64, 256, 512},
	denoms: []int{1, 4, 16, 64},
}

// setupSweep defines the compile grid: every tuple of sweepGrid that
// compiles, in seeded order. Tuples that cannot compile (no slab memory
// left, more processors than columns) are dropped here, so no timed job
// fails.
func (in *instance) setupSweep(rng *rand.Rand, scale float64) error {
	for _, kind := range sweepGrid.kinds {
		src := source(kind)
		for _, n := range sweepGrid.n {
			for _, p := range sweepGrid.procs {
				for _, d := range sweepGrid.denoms {
					t := tuple{kind, src, n, p, n * n / p / d}
					if t.mem < 1 {
						continue
					}
					if _, err := pipeline(nil, 0, t); err == nil {
						in.grid = append(in.grid, t)
					}
				}
			}
		}
	}
	if len(in.grid) == 0 {
		return fmt.Errorf("compile grid is empty")
	}
	rng.Shuffle(len(in.grid), func(i, j int) { in.grid[i], in.grid[j] = in.grid[j], in.grid[i] })
	in.grid = in.grid[:scaled(len(in.grid), scale, 8)]
	return nil
}
