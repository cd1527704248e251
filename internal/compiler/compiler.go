// Package compiler translates mini-HPF programs into out-of-core node
// programs (plan.Program), following the paper's two-phase methodology:
//
// In-core phase (Section 3.2): evaluate the mapping directives, partition
// each array into out-of-core local arrays, compute local bounds, read
// every assignment as array references, and derive from them the
// communication the program requires (refs.go, classify.go).
//
// Out-of-core phase (Sections 3.3 and 4): strip-mine the computation into
// slabs that fit the node memory, enumerate candidate access
// reorganizations, estimate each candidate's I/O cost (package cost),
// select the cheapest (the Figure 14 algorithm), divide memory among the
// competing arrays (Section 4.2.1), and emit the node + MP + I/O program.
package compiler

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/ooc-hpf/passion/internal/cost"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// MemPolicy selects how node memory is divided among the out-of-core
// arrays (Section 4.2.1).
type MemPolicy int

// Memory allocation policies.
const (
	// PolicyEven splits memory equally among the streamed arrays.
	PolicyEven MemPolicy = iota
	// PolicyWeighted splits memory proportionally to each array's
	// access frequency (pass count) — the paper's heuristic.
	PolicyWeighted
	// PolicySearch searches slab-size splits and keeps the one with the
	// least estimated I/O time — the exhaustive form of Table 2.
	PolicySearch
)

// String names the policy.
func (p MemPolicy) String() string {
	if names := [...]string{"even", "weighted", "search"}; p >= 0 && int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("MemPolicy(%d)", int(p))
}

// Options configures a compilation.
type Options struct {
	// Procs overrides the program's processor-count parameter (0 keeps
	// the program's value).
	Procs int
	// N overrides the program's problem-size parameter (0 keeps it).
	N int
	// MemElems is the node memory available for slabs, in elements.
	MemElems int
	// Machine is the target machine model for cost estimation; the zero
	// value means sim.Delta(procs).
	Machine sim.Config
	// Policy selects the memory allocation scheme.
	Policy MemPolicy
	// Force pins the strategy by its candidate's label ("row-slab" or
	// "column-slab"; "direct", "sieved" or "two-phase" for a transpose);
	// empty lets the cost model decide.
	Force string
	// Runtime holds the out-of-core array runtime's switches. The plan
	// carries them to every run (plan.Program.Runtime); Sieve also prices
	// row-slab transfers as sieved.
	Runtime oocarray.Options
}

// Pattern identifies the recognized statement class.
type Pattern int

// Recognized patterns.
const (
	// PatternGaxpy is the paper's reduction pattern (Figure 3).
	PatternGaxpy Pattern = iota
	// PatternEwise is a body of communication-free elementwise FORALLs.
	PatternEwise
	// PatternShift is a body of FORALLs with shifted column references,
	// requiring boundary-column exchange.
	PatternShift
	// PatternTranspose is a single FORALL storing one array's rows into
	// another's columns — an out-of-core transpose compiled to a
	// collective redistribution.
	PatternTranspose
)

// String names the pattern.
func (p Pattern) String() string {
	if names := [...]string{"gaxpy", "elementwise", "shifted", "transpose"}; p >= 0 && int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Analysis is the in-core phase result: the resolved problem and mapping
// information plus the detected communication.
type Analysis struct {
	N       int
	Procs   int
	Pattern Pattern
	// GridShape is the processor arrangement (one entry per axis).
	GridShape []int
	// A, B, C and Temp are the roles recognized in the GAXPY pattern,
	// naming the source arrays.
	A, B, C, Temp string
	// Mappings holds the per-array HPF mappings.
	Mappings map[string]*dist.Array
	// ReduceDim is the SUM dimension (1-based, as written).
	ReduceDim int
	// Stmts holds the FORALL assignments of an elementwise or shifted
	// program (PatternEwise, PatternShift).
	Stmts []Stmt
	// Arrays lists the out-of-core arrays in the order of the program's
	// array specs: first use in a FORALL program, A, B, C in a GAXPY
	// one, source then destination in a transpose.
	Arrays []string
	// Transpose holds the analysis of a transpose program
	// (PatternTranspose).
	Transpose *TransposeAnalysis
	// Comm describes the detected communication.
	Comm string
	// asgs holds every assignment read as references.
	asgs []assignment
}

// Result is a completed compilation.
type Result struct {
	Program    *plan.Program
	Analysis   *Analysis
	Candidates []cost.Candidate
	Chosen     int
	// machine is the cost model the candidates were priced on.
	machine sim.Config
}

// Report renders the human-readable cost comparison of the candidates.
func (r *Result) Report() string { return cost.Report(r.Candidates, r.Chosen, r.machine) }

// Compile runs both phases on a parsed program.
func Compile(prog *hpf.Program, opts Options) (*Result, error) {
	an, err := analyze(prog, opts)
	if err != nil {
		return nil, err
	}
	// The "!hpf$ memory (m)" annotation provides the node memory when the
	// caller does not; explicit options win.
	if opts.MemElems <= 0 && prog.Memory != nil {
		mem, err := hpf.Eval(prog.Memory, hpf.ParamEnv(prog))
		if err != nil {
			return nil, fmt.Errorf("compiler: memory directive: %w", err)
		}
		opts.MemElems = mem
	}
	if opts.MemElems <= 0 {
		return nil, fmt.Errorf("compiler: MemElems must be positive (set Options.MemElems or add a !hpf$ memory directive)")
	}
	// The "!hpf$ out_of_core" annotation, when present, must cover every
	// array the program maps (the companion PASSION work has programmers
	// mark out-of-core arrays explicitly).
	if len(prog.OutOfCore) > 0 {
		marked := make(map[string]bool, len(prog.OutOfCore))
		for _, name := range prog.OutOfCore {
			if _, ok := prog.Array(name); !ok {
				return nil, fmt.Errorf("compiler: out_of_core names undeclared array %q", name)
			}
			marked[name] = true
		}
		for name := range an.Mappings {
			if !marked[name] {
				return nil, fmt.Errorf("compiler: array %q is used but not listed in the out_of_core directive", name)
			}
		}
	}
	mach := opts.Machine
	if mach.Procs == 0 {
		mach = sim.Delta(an.Procs)
	}
	mach.Procs = an.Procs
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	return emit(an, opts, mach)
}

// CompileSource parses and compiles in one step.
func CompileSource(src string, opts Options) (*Result, error) {
	prog, err := hpf.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(prog, opts)
}

// ---------------------------------------------------------------------------
// In-core phase

func analyze(prog *hpf.Program, opts Options) (*Analysis, error) {
	env := hpf.ParamEnv(prog)

	// Apply overrides by rebinding the parameters named in the
	// PROCESSORS and TEMPLATE directives.
	if prog.Processors == nil {
		return nil, fmt.Errorf("compiler: missing !hpf$ processors directive")
	}
	if prog.Template == nil {
		return nil, fmt.Errorf("compiler: missing !hpf$ template directive")
	}
	if prog.Distribute == nil {
		return nil, fmt.Errorf("compiler: missing !hpf$ distribute directive")
	}
	if opts.Procs > 0 {
		if len(prog.Processors.Sizes) != 1 {
			return nil, fmt.Errorf("compiler: cannot override the processor count of a multi-dimensional grid")
		}
		if id, ok := prog.Processors.Size().(*hpf.Ident); ok {
			env[id.Name] = opts.Procs
		} else {
			return nil, fmt.Errorf("compiler: cannot override a literal processor count")
		}
	}
	if opts.N > 0 {
		if id, ok := prog.Template.Size().(*hpf.Ident); ok {
			env[id.Name] = opts.N
		} else {
			return nil, fmt.Errorf("compiler: cannot override a literal template extent")
		}
	}

	// Processor arrangement: a 1-D count or a multi-dimensional grid.
	gridShape := make([]int, 0, len(prog.Processors.Sizes))
	procs := 1
	for i, e := range prog.Processors.Sizes {
		v, err := hpf.Eval(e, env)
		if err != nil {
			return nil, fmt.Errorf("compiler: processors extent %d: %w", i+1, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("compiler: processors extent %d is %d", i+1, v)
		}
		gridShape = append(gridShape, v)
		procs *= v
	}

	// Template: every extent must be the problem size n.
	var n int
	for i, e := range prog.Template.Sizes {
		v, err := hpf.Eval(e, env)
		if err != nil {
			return nil, fmt.Errorf("compiler: template extent %d: %w", i+1, err)
		}
		if i == 0 {
			n = v
		} else if v != n {
			return nil, fmt.Errorf("compiler: non-square templates are not supported (%d vs %d)", v, n)
		}
	}
	if procs <= 0 || n <= 0 {
		return nil, fmt.Errorf("compiler: nonpositive problem: n=%d procs=%d", n, procs)
	}
	tdims := len(prog.Template.Sizes)
	if tdims != len(gridShape) {
		return nil, fmt.Errorf("compiler: template has %d dimensions but the processor arrangement has %d",
			tdims, len(gridShape))
	}
	for axis, extent := range gridShape {
		if n%extent != 0 {
			return nil, fmt.Errorf("compiler: n=%d must be a multiple of processor-grid axis %d (%d)", n, axis, extent)
		}
	}
	if prog.Distribute.Template != prog.Template.Name {
		return nil, fmt.Errorf("compiler: distribute names template %q, declared template is %q",
			prog.Distribute.Template, prog.Template.Name)
	}
	if prog.Distribute.Procs != prog.Processors.Name {
		return nil, fmt.Errorf("compiler: distribute targets %q, declared processors are %q",
			prog.Distribute.Procs, prog.Processors.Name)
	}
	if len(prog.Distribute.Schemes) != tdims {
		return nil, fmt.Errorf("compiler: distribute has %d schemes for a %d-dimensional template",
			len(prog.Distribute.Schemes), tdims)
	}
	for _, scheme := range prog.Distribute.Schemes {
		if scheme != "block" {
			return nil, fmt.Errorf("compiler: only BLOCK distribution is supported for out-of-core arrays, got %q", scheme)
		}
	}

	// Partition every aligned array: '*' axes collapse, ':' axes take
	// the template's distributed axes in order.
	mappings := make(map[string]*dist.Array)
	for _, al := range prog.Aligns {
		if al.With != prog.Template.Name {
			return nil, fmt.Errorf("compiler: align with unknown template %q", al.With)
		}
		aligned := 0
		for _, ax := range al.Pattern {
			if ax == hpf.AxisAligned {
				aligned++
			}
		}
		if aligned != tdims {
			return nil, fmt.Errorf("compiler: align pattern must align exactly %d axis/axes with the template, got %d",
				tdims, aligned)
		}
		for _, name := range al.Arrays {
			decl, ok := prog.Array(name)
			if !ok {
				return nil, fmt.Errorf("compiler: align names undeclared array %q", name)
			}
			if len(decl.Dims) != len(al.Pattern) {
				return nil, fmt.Errorf("compiler: array %q has %d dims, align pattern has %d",
					name, len(decl.Dims), len(al.Pattern))
			}
			maps := make([]dist.Map, len(decl.Dims))
			axis := 0
			for i, dim := range decl.Dims {
				extent, err := hpf.Eval(dim, env)
				if err != nil {
					return nil, fmt.Errorf("compiler: array %q dim %d: %w", name, i+1, err)
				}
				if extent != n {
					return nil, fmt.Errorf("compiler: array %q dim %d has extent %d; only n x n arrays (n=%d) are supported",
						name, i+1, extent, n)
				}
				if al.Pattern[i] == hpf.AxisCollapsed {
					maps[i] = dist.NewCollapsed(extent)
				} else {
					maps[i] = dist.NewBlock(extent, gridShape[axis])
					axis++
				}
			}
			var da *dist.Array
			var err error
			if tdims > 1 {
				da, err = dist.NewGridArray(name, dist.NewGrid(gridShape...), maps...)
			} else {
				da, err = dist.NewArray(name, maps...)
			}
			if err != nil {
				return nil, err
			}
			mappings[name] = da
		}
	}

	an := &Analysis{N: n, Procs: procs, GridShape: gridShape, Mappings: mappings}
	if err := classify(prog, env, an); err != nil {
		return nil, err
	}
	return an, nil
}

// ---------------------------------------------------------------------------
// Out-of-core phase

// emit is the out-of-core phase of every class: the candidates, each
// under its memory split, the Figure 14 choice, array specs from the
// references, then the class's body and notes.
func emit(an *Analysis, opts Options, mach sim.Config) (*Result, error) {
	n, mem := an.N, opts.MemElems
	var cands []cost.Candidate
	// splits[i] holds candidate i's slab elements for each of an.Arrays.
	var splits [][]int
	switch an.Pattern {
	case PatternTranspose:
		cands = cost.TransposeCandidates(cost.TransposeParams{N: n, P: an.Procs, MemElems: mem})
		half := []int{mem / 2, mem / 2}
		splits = [][]int{half, half, half}
	case PatternGaxpy:
		// C is written exactly once in both strategies; reserve a single
		// column-slab for it and divide the rest between A and B, under
		// each candidate's own split.
		budget := mem - n
		if budget < 2 {
			return nil, fmt.Errorf("compiler: MemElems=%d leaves no slab memory after C's column (%d elements)", mem, n)
		}
		colA, colB := an.gaxpySplit("column-slab", budget, opts, mach)
		rowA, rowB := colA, colB
		if opts.Policy == PolicySearch { // the one policy that prices its candidate
			rowA, rowB = an.gaxpySplit("row-slab", budget, opts, mach)
		}
		splits = [][]int{{colA, colB, n}, {rowA, rowB, n}}
	default:
		// The FORALL classes split memory evenly among their arrays. A
		// shifted reference gets no row-slab candidate: a row-slab sweep
		// would re-fetch the halo per row band.
		per := mem / len(an.Arrays)
		if per < 1 {
			return nil, fmt.Errorf("compiler: MemElems=%d cannot cover %d arrays", mem, len(an.Arrays))
		}
		even := make([]int, len(an.Arrays))
		for i := range even {
			even[i] = per
		}
		splits = [][]int{even, even}
		if an.Pattern == PatternShift {
			splits = splits[:1]
		}
	}
	if cands == nil {
		cands = make([]cost.Candidate, len(splits))
		for i, label := range []string{"column-slab", "row-slab"}[:len(splits)] {
			cands[i] = an.candidate(label, splits[i], opts.Runtime.Sieve)
		}
	}
	chosen, err := choose(an.Pattern, cands, opts.Force, mach)
	if err != nil {
		return nil, err
	}
	label, slab := cands[chosen].Label, splits[chosen]
	prg := &plan.Program{N: n, Procs: an.Procs, Strategy: label, Arrays: make([]plan.ArraySpec, len(an.Arrays)), Runtime: opts.Runtime}
	for i, name := range an.Arrays {
		prg.Arrays[i] = an.spec(name, slab[i], label == "row-slab")
	}

	// The class supplies only its body and its notes. Notes reach
	// plan.Fingerprint, so every format is fixed per pattern: the
	// communication, the class's own, then each candidate's estimate.
	prg.Notes = append(make([]string, 0, 3+len(cands)), an.Comm)
	switch an.Pattern {
	case PatternGaxpy:
		prg.Name, prg.Body = "gaxpy", gaxpyBody(an, label)
		if ocla := n * n / an.Procs; slab[0] >= ocla && slab[1] >= ocla {
			prg.Notes = append(prg.Notes,
				"slabs cover the whole out-of-core local arrays: the program degenerates to the in-core translation (each array read from disk once)")
		}
		prg.Notes = append(prg.Notes, "memory policy "+opts.Policy.String()+": slab("+an.A+")="+strconv.Itoa(slab[0])+
			", slab("+an.B+")="+strconv.Itoa(slab[1])+", slab("+an.C+")="+strconv.Itoa(slab[2])+" elements")
	case PatternTranspose:
		prg.Name, prg.Body = "transpose", []plan.Node{&plan.Redistribute{
			Src: an.Transpose.Src, Dst: an.Transpose.Dst, Transpose: true, Method: label, MemElems: mem,
		}}
	default:
		prg.Name, prg.Body = "ewise", forallBody(an)
		if an.Pattern == PatternShift {
			prg.Name = "shift"
		}
		prg.Notes = append(prg.Notes, "memory: "+strconv.Itoa(slab[0])+" elements per array across "+strconv.Itoa(len(an.Arrays))+" arrays")
	}
	// A shifted program's single candidate goes unnoted.
	for i := 0; i < len(cands) && an.Pattern != PatternShift; i++ {
		mark := ""
		if i == chosen {
			mark = " [selected]"
		}
		prg.Notes = append(prg.Notes, candidateNote(an.Pattern, cands[i], mach, mark))
	}
	return &Result{Program: prg, Analysis: an, Candidates: cands, Chosen: chosen, machine: mach}, nil
}

// choose resolves the strategy: the candidate whose label force names
// ("twophase" is accepted for "two-phase"), or the cheapest when force is
// empty.
func choose(p Pattern, cands []cost.Candidate, force string, mach sim.Config) (int, error) {
	if force == "" {
		return cost.Select(cands, mach), nil
	}
	label := force
	if label == "twophase" {
		label = "two-phase"
	}
	labels := make([]string, len(cands))
	for i, c := range cands {
		if c.Label == label {
			return i, nil
		}
		labels[i] = c.Label
	}
	return 0, fmt.Errorf("compiler: forced strategy %q does not apply to the %s pattern (valid: %s)",
		force, p, strings.Join(labels, ", "))
}

// candidateNote renders one candidate's estimate in its pattern's format.
func candidateNote(p Pattern, c cost.Candidate, mach sim.Config, mark string) string {
	b := make([]byte, 0, 96)
	b = append(append(append(b, "candidate "...), c.Label...), ": est. I/O"...)
	if p == PatternTranspose {
		b = append(b, "+comm"...)
	}
	b = append(strconv.AppendFloat(append(b, ' '), c.Seconds(mach), 'f', 2, 64), "s, "...)
	switch p {
	case PatternGaxpy:
		b = append(strconv.AppendInt(b, c.TotalFetches(), 10), " fetches, "...)
		b = append(strconv.AppendInt(b, c.TotalElems(), 10), " elems"...)
	case PatternTranspose:
		b = append(strconv.AppendInt(b, c.TotalRequests(), 10), " requests, "...)
		b = append(strconv.AppendInt(b, c.TotalElems(), 10), " elems"...)
	default:
		b = append(strconv.AppendInt(b, c.TotalRequests(), 10), " requests"...)
	}
	return string(append(b, mark...))
}

// spec is the one ArraySpec builder: name's n x n mapping, strip-mined
// into slabs of slab elements. Its role and slab direction come from its
// references: an array written and never read is an output, and one
// referenced as a row-slabbed section is strip-mined by rows.
func (an *Analysis) spec(name string, slab int, byRow bool) plan.ArraySpec {
	m := an.Mappings[name]
	s := plan.ArraySpec{
		Name: name, Rows: an.N, Cols: an.N,
		RowScheme: m.Dims[0].Scheme, ColScheme: m.Dims[1].Scheme,
		Role: plan.Out, Grid: m.Grid, SlabElems: slab, SlabDim: oocarray.ByColumn,
	}
	for _, a := range an.asgs {
		for j, r := range a.Refs {
			if r.Array != name {
				continue
			}
			if j > 0 {
				s.Role = plan.In
			}
			if byRow && a.rowSlabbed(r) {
				s.SlabDim = oocarray.ByRow
			}
		}
	}
	return s
}

// gaxpyBody is the GAXPY nest of the chosen strategy: Figure 9's
// column-slab translation or Figure 12's row-slab one.
func gaxpyBody(an *Analysis, strategy string) []plan.Node {
	a, b, c := an.A, an.B, an.C
	bufA, bufB, stage, temp := "icla_"+a, "icla_"+b, "icla_"+c, "temp"
	if strategy == "column-slab" {
		return []plan.Node{
			&plan.AutoStage{Array: c},
			&plan.ResetCounter{},
			&plan.Loop{Var: "l", Count: plan.CountExpr{SlabsOf: b}, Body: []plan.Node{
				&plan.ReadSlab{Array: b, Index: "l", Buf: bufB, Stream: true},
				&plan.Loop{Var: "m", Count: plan.CountExpr{ColsOf: bufB}, Body: []plan.Node{
					&plan.ZeroVec{Vec: temp, RowsOfArray: a},
					&plan.Loop{Var: "na", Count: plan.CountExpr{SlabsOf: a}, Body: []plan.Node{
						&plan.ReadSlab{Array: a, Index: "na", Buf: bufA, Stream: true},
						&plan.Loop{Var: "i", Count: plan.CountExpr{ColsOf: bufA}, Body: []plan.Node{
							&plan.Axpy{Vec: temp, A: bufA, ACol: "i",
								B: bufB, BRowBase: "na", BRowScale: a, BRowPlus: "i", BCol: "m"},
						}},
					}},
					&plan.SumStore{Vec: temp, Array: c},
				}},
			}},
			&plan.FlushStage{Array: c},
		}
	}
	// Row-slab (Figure 12).
	return []plan.Node{
		&plan.Loop{Var: "l", Count: plan.CountExpr{SlabsOf: a}, Body: []plan.Node{
			&plan.ReadSlab{Array: a, Index: "l", Buf: bufA, Stream: true},
			&plan.NewStaging{Array: c, Buf: stage, RowsLike: bufA},
			&plan.ResetCounter{},
			&plan.Loop{Var: "nb", Count: plan.CountExpr{SlabsOf: b}, Body: []plan.Node{
				&plan.ReadSlab{Array: b, Index: "nb", Buf: bufB, Stream: true},
				&plan.Loop{Var: "m", Count: plan.CountExpr{ColsOf: bufB}, Body: []plan.Node{
					&plan.ZeroVec{Vec: temp, RowsLike: bufA},
					&plan.Loop{Var: "i", Count: plan.CountExpr{ColsOf: bufA}, Body: []plan.Node{
						&plan.Axpy{Vec: temp, A: bufA, ACol: "i",
							B: bufB, BRowPlus: "i", BCol: "m"},
					}},
					&plan.SumStore{Vec: temp, Array: c},
				}},
			}},
			&plan.WriteBuf{Array: c, Buf: stage},
		}},
	}
}
