package plan_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

func compileFor(t *testing.T, n, procs, mem int, mach sim.Config) *plan.Program {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: mem, Machine: mach, Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

// TestFingerprintGolden pins the canonical hash of a fixed compilation:
// any change to the encoding (or to what the compiler emits for this
// input) must be a conscious one, because it invalidates every
// previously cached plan.
func TestFingerprintGolden(t *testing.T) {
	p := compileFor(t, 64, 4, 1<<12, sim.Delta(4))
	const want = "1cc933062ff1bbce16e643f2ebd61ce6"
	got := plan.Fingerprint(p, nil)
	if got != want {
		t.Fatalf("golden fingerprint changed:\n got %s\nwant %s", got, want)
	}
	// Recompiling the same source must reproduce it exactly.
	if again := plan.Fingerprint(compileFor(t, 64, 4, 1<<12, sim.Delta(4)), nil); again != got {
		t.Fatalf("recompilation changed the fingerprint: %s vs %s", again, got)
	}
}

// TestFingerprintMapOrderInsensitive proves the extra key/value pairs are
// folded in a canonical order: many repeated evaluations of the same map
// (Go randomizes iteration order per range) and two maps populated in
// opposite insertion orders all agree.
func TestFingerprintMapOrderInsensitive(t *testing.T) {
	p := compileFor(t, 64, 4, 1<<12, sim.Delta(4))
	fwd := make(map[string]string)
	rev := make(map[string]string)
	for i := 0; i < 32; i++ {
		fwd[fmt.Sprintf("k%02d", i)] = fmt.Sprintf("v%d", i)
	}
	for i := 31; i >= 0; i-- {
		rev[fmt.Sprintf("k%02d", i)] = fmt.Sprintf("v%d", i)
	}
	first := plan.Fingerprint(p, fwd)
	for i := 0; i < 16; i++ {
		if got := plan.Fingerprint(p, fwd); got != first {
			t.Fatalf("iteration %d: fingerprint drifted: %s vs %s", i, got, first)
		}
	}
	if got := plan.Fingerprint(p, rev); got != first {
		t.Fatalf("insertion order changed the fingerprint: %s vs %s", got, first)
	}
	if plain := plan.Fingerprint(p, nil); plain == first {
		t.Fatal("extra pairs did not contribute to the fingerprint")
	}
}

// TestFingerprintSensitivity drives every cache-key field — P, M and the
// machine cost parameters — and checks each one lands on a distinct
// fingerprint (so the plan cache can never serve a plan compiled for a
// different machine or memory budget).
func TestFingerprintSensitivity(t *testing.T) {
	base := plan.Fingerprint(compileFor(t, 64, 4, 1<<12, sim.Delta(4)), nil)
	seen := map[string]string{"base": base}
	add := func(label, fp string) {
		t.Helper()
		for prev, pf := range seen {
			if pf == fp {
				t.Fatalf("%s collides with %s: %s", label, prev, fp)
			}
		}
		seen[label] = fp
	}
	add("procs=8", plan.Fingerprint(compileFor(t, 64, 8, 1<<12, sim.Delta(8)), nil))
	add("n=128", plan.Fingerprint(compileFor(t, 128, 4, 1<<12, sim.Delta(4)), nil))
	add("mem=2x", plan.Fingerprint(compileFor(t, 64, 4, 1<<13, sim.Delta(4)), nil))

	// Cost parameters that flip the compiler's strategy choice change
	// the plan tree itself; parameters that do not are still part of the
	// cache key via the extra pairs the serving layer folds in.
	p := compileFor(t, 64, 4, 1<<12, sim.Delta(4))
	kv := func(c sim.Config) map[string]string {
		return map[string]string{
			"compute_rate":  fmt.Sprint(c.ComputeRate),
			"disk_overhead": fmt.Sprint(c.DiskRequestOverhead),
			"disk_bw":       fmt.Sprint(c.DiskBandwidth),
		}
	}
	delta, modern := sim.Delta(4), sim.Modern(4)
	add("extra-delta", plan.Fingerprint(p, kv(delta)))
	add("extra-modern", plan.Fingerprint(p, kv(modern)))
	bumped := delta
	bumped.DiskRequestOverhead *= 2
	add("extra-overhead-2x", plan.Fingerprint(p, kv(bumped)))
}

// TestFingerprintRuntimeSwitches: a plan with no runtime switch set
// hashes no runtime line (so TestFingerprintGolden's value holds), and
// every combination of switches lands on a fingerprint of its own and
// shows in the listing.
func TestFingerprintRuntimeSwitches(t *testing.T) {
	base := compileFor(t, 64, 4, 1<<12, sim.Delta(4))
	if s := base.String(); strings.Contains(s, "runtime") {
		t.Errorf("a plan without runtime switches lists them:\n%s", s)
	}
	seen := map[string]oocarray.Options{plan.Fingerprint(base, nil): {}}
	for _, rt := range []oocarray.Options{
		{Sieve: true}, {Prefetch: true}, {WriteBehind: true}, {Sieve: true, Prefetch: true},
	} {
		p := *base
		p.Runtime = rt
		fp := plan.Fingerprint(&p, nil)
		if prev, dup := seen[fp]; dup {
			t.Errorf("runtime %+v shares fingerprint %s with %+v", rt, fp, prev)
		}
		seen[fp] = rt
		if msg := fmtMismatch(&p, nil); msg != "" {
			t.Errorf("runtime %+v: %s", rt, msg)
		}
		if s := p.String(); !strings.Contains(s, "! runtime: ") {
			t.Errorf("runtime %+v missing from the listing:\n%s", rt, s)
		}
	}
}

// TestFingerprintBodySensitivity edits a copied plan tree in place and
// checks the hash notices structural changes a textual rendering could
// miss (field swaps within a node, emptied loop bodies).
func TestFingerprintBodySensitivity(t *testing.T) {
	mk := func() *plan.Program { return compileFor(t, 64, 4, 1<<12, sim.Delta(4)) }
	base := plan.Fingerprint(mk(), nil)

	p := mk()
	p.Strategy = "tampered"
	if plan.Fingerprint(p, nil) == base {
		t.Fatal("strategy change not reflected")
	}
	p = mk()
	p.Arrays[0].SlabElems++
	if plan.Fingerprint(p, nil) == base {
		t.Fatal("slab size change not reflected")
	}
	p = mk()
	if lp, ok := p.Body[len(p.Body)-1].(*plan.Loop); ok {
		lp.Body = nil
		if plan.Fingerprint(p, nil) == base {
			t.Fatal("emptied loop body not reflected")
		}
	}
}

// fmtFingerprint is the fmt rendering plan.Fingerprint replaced, kept as
// the oracle for the canonical bytes: it writes them to w.
func fmtFingerprint(w io.Writer, p *plan.Program, extra map[string]string) {
	fmt.Fprintf(w, "plan/v1|%s|n=%d|p=%d|strategy=%s\n", p.Name, p.N, p.Procs, p.Strategy)
	if rt := p.Runtime; rt != (oocarray.Options{}) {
		fmt.Fprintf(w, "runtime|sieve=%t|prefetch=%t|writebehind=%t\n", rt.Sieve, rt.Prefetch, rt.WriteBehind)
	}
	for _, a := range p.Arrays {
		fmt.Fprintf(w, "array|%s|%dx%d|%s,%s|grid=%v|role=%s|slab=%d@%s\n",
			a.Name, a.Rows, a.Cols, a.RowScheme, a.ColScheme, a.Grid, a.Role, a.SlabElems, a.SlabDim)
	}
	for _, n := range p.Notes {
		fmt.Fprintf(w, "note|%s\n", n)
	}
	for _, n := range p.Body {
		fmtHashNode(w, n)
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "extra|%s=%s\n", k, extra[k])
	}
}

// fmtHashNode is the fmt rendering of one IR node.
func fmtHashNode(w io.Writer, n plan.Node) {
	switch n := n.(type) {
	case *plan.Loop:
		fmt.Fprintf(w, "loop|%s|%s{\n", n.Var, fmtCount(n.Count))
		for _, b := range n.Body {
			fmtHashNode(w, b)
		}
		fmt.Fprint(w, "}\n")
	case *plan.ReadSlab:
		if n.Ghosts == "" {
			fmt.Fprintf(w, "read|%s|%s|%s|stream=%t\n", n.Array, n.Index, n.Buf, n.Stream)
		} else {
			fmt.Fprintf(w, "read|%s|%s|%s|stream=%t|halo=%s,%d,%d\n",
				n.Array, n.Index, n.Buf, n.Stream, n.Ghosts, n.Left, n.Right)
		}
	case *plan.NewStaging:
		fmt.Fprintf(w, "staging|%s|%s|%s\n", n.Array, n.Buf, n.RowsLike)
	case *plan.AutoStage:
		fmt.Fprintf(w, "autostage|%s\n", n.Array)
	case *plan.FlushStage:
		fmt.Fprintf(w, "flush|%s\n", n.Array)
	case *plan.WriteBuf:
		fmt.Fprintf(w, "write|%s|%s\n", n.Array, n.Buf)
	case *plan.ZeroVec:
		fmt.Fprintf(w, "zerovec|%s|%s|%s\n", n.Vec, n.RowsLike, n.RowsOfArray)
	case *plan.Axpy:
		fmt.Fprintf(w, "axpy|%s|%s|%s|%s|%s|%s|%s|%s\n",
			n.Vec, n.A, n.ACol, n.B, n.BRowBase, n.BRowScale, n.BRowPlus, n.BCol)
	case *plan.SumStore:
		fmt.Fprintf(w, "sumstore|%s|%s\n", n.Vec, n.Array)
	case *plan.ResetCounter:
		fmt.Fprint(w, "resetcounter\n")
	case *plan.NewSlab:
		fmt.Fprintf(w, "newslab|%s|%s|%s\n", n.Array, n.Index, n.Buf)
	case *plan.Ewise:
		if n.Top == 0 && n.Bottom == 0 {
			fmt.Fprintf(w, "ewise|%s|bounds=%s,%d,%d|%s\n", n.Out, n.Array, n.Lo, n.Hi, fmtExpr(n.Expr))
		} else {
			fmt.Fprintf(w, "ewise|%s|bounds=%s,%d,%d|rows=%d,%d|%s\n", n.Out, n.Array, n.Lo, n.Hi, n.Top, n.Bottom, fmtExpr(n.Expr))
		}
	case *plan.Exchange:
		fmt.Fprintf(w, "exchange|%s|%s|%d|%d\n", strings.Join(n.Arrays, ","), strings.Join(n.Ghosts, ","), n.Left, n.Right)
	case *plan.Redistribute:
		fmt.Fprintf(w, "redistribute|%s|%s|transpose=%t|%s|mem=%d\n",
			n.Src, n.Dst, n.Transpose, n.Method, n.MemElems)
	default:
		fmt.Fprintf(w, "unknown|%T|%+v\n", n, n)
	}
}

// fmtCount is the fmt rendering of a loop count.
func fmtCount(c plan.CountExpr) string {
	switch {
	case c.SlabsOf != "":
		return fmt.Sprintf("slabs(%s)", c.SlabsOf)
	case c.ColsOf != "":
		return fmt.Sprintf("cols(%s)", c.ColsOf)
	default:
		return fmt.Sprintf("%d", c.Lit)
	}
}

// fmtExpr is the fmt rendering of an elementwise expression; a nil one
// renders as %s renders nil.
func fmtExpr(e plan.EExpr) string {
	switch e := e.(type) {
	case *plan.EConst:
		return strconv.FormatFloat(e.V, 'g', -1, 64)
	case *plan.EBuf:
		if e.Array == "" {
			return e.Buf + "(:)"
		}
		return e.Array + "(" + fmtShifted(":", "r", e.Row) + "," + fmtShifted("k", "k", e.Off) + ")"
	case *plan.EBin:
		return fmt.Sprintf("(%s%c%s)", fmtExpr(e.L), e.Op, fmtExpr(e.R))
	}
	return fmt.Sprintf("%s", e)
}

// fmtShifted renders a subscript: at, or index plus a nonzero offset.
func fmtShifted(at, index string, off int) string {
	switch {
	case off > 0:
		return index + "+" + strconv.Itoa(off)
	case off < 0:
		return index + strconv.Itoa(off)
	}
	return at
}

// fmtMismatch compares plan.Fingerprint's canonical bytes and hash with
// the fmt oracle's and describes the first difference, or returns "".
func fmtMismatch(p *plan.Program, extra map[string]string) string {
	var want bytes.Buffer
	fmtFingerprint(&want, p, extra)
	got := plan.AppendCanonical(nil, p, extra)
	if !bytes.Equal(got, want.Bytes()) {
		g, w := strings.Split(string(got), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				return fmt.Sprintf("canonical line %d:\n got %q\nwant %q", i+1, g[i], w[i])
			}
		}
		return fmt.Sprintf("canonical bytes: %d lines, oracle %d", len(g), len(w))
	}
	sum := sha256.Sum256(want.Bytes())
	if got, want := plan.Fingerprint(p, extra), hex.EncodeToString(sum[:16]); got != want {
		return fmt.Sprintf("fingerprint %s, oracle %s", got, want)
	}
	return ""
}

// compileGrid calls f with every testdata program compiled over
// compile_sweep's grid of N, P and memory under every policy, sieve
// setting and candidate label as force (the unforced compile first).
func compileGrid(t *testing.T, f func(label string, res *compiler.Result)) {
	t.Helper()
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := hpf.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{64, 256, 1024, 4096, 16384} {
			for _, p := range []int{4, 16, 64, 256, 512} {
				for _, d := range []int{1, 4, 16, 64} {
					mem := n * n / p / d
					if mem < 1 {
						continue
					}
					for _, policy := range []compiler.MemPolicy{compiler.PolicyEven, compiler.PolicyWeighted, compiler.PolicySearch} {
						for _, sieve := range []bool{false, true} {
							opts := compiler.Options{N: n, Procs: p, MemElems: mem,
								Machine: sim.Delta(p), Policy: policy, Runtime: oocarray.Options{Sieve: sieve}}
							res, err := compiler.Compile(prog, opts)
							if err != nil {
								continue
							}
							label := fmt.Sprintf("%s n=%d p=%d mem=%d policy=%s sieve=%t", filepath.Base(file), n, p, mem, policy, sieve)
							f(label, res)
							for _, c := range res.Candidates {
								opts.Force = c.Label
								forced, err := compiler.Compile(prog, opts)
								if err != nil {
									t.Fatalf("%s: forcing its own candidate %s: %v", label, c.Label, err)
								}
								f(label+" force="+c.Label, forced)
							}
						}
					}
				}
			}
		}
	}
}

// TestFingerprintMatchesFmtOracle holds the append rendering to the fmt
// one byte for byte over every program compile_sweep can produce, with
// and without extra pairs.
func TestFingerprintMatchesFmtOracle(t *testing.T) {
	extra := map[string]string{"disk_bw": "1e+07", "mem": "4096", "a=b": "c|d\n"}
	plans := 0
	compileGrid(t, func(label string, res *compiler.Result) {
		plans++
		for _, x := range []map[string]string{nil, extra} {
			if msg := fmtMismatch(res.Program, x); msg != "" {
				t.Fatalf("%s extra=%v: %s", label, x, msg)
			}
		}
	})
	if plans == 0 {
		t.Fatal("the grid compiled nothing")
	}
}

// TestFingerprintOracleEdgeCases covers what the compiler does not emit
// today: every node type (plan.NodeSamples, alone and nested), no grid,
// 1-D and 2-D grids, out-of-range enums, negative halo and leaf offsets,
// special constants, a non-ASCII operator and the unknown-node fold.
func TestFingerprintOracleEdgeCases(t *testing.T) {
	leaves := []plan.EExpr{
		&plan.EConst{V: math.Inf(-1)}, &plan.EConst{V: math.NaN()}, &plan.EConst{V: math.Copysign(0, -1)},
		&plan.EConst{V: 1e-300}, &plan.EConst{V: 0.1}, &plan.EConst{V: 1e21}, &plan.EConst{V: math.Pi},
		&plan.EConst{V: 1.0 / 3}, &plan.EConst{V: -123456789.125},
		&plan.EBuf{Buf: "b"}, &plan.EBuf{Buf: "halo_x", Array: "x", Off: -3, Row: -2},
		&plan.EBuf{Buf: "halo_x", Array: "x", Off: 2, Row: 1},
	}
	expr := plan.EExpr(&plan.EConst{V: 1})
	for i, l := range leaves {
		expr = &plan.EBin{Op: "+-*/\xe9"[i%5], L: expr, R: l}
	}
	body := append([]plan.Node{}, plan.NodeSamples...)
	body = append(body,
		&plan.Loop{Var: "t", Count: plan.CountExpr{Lit: -4}, Body: plan.NodeSamples},
		&plan.Loop{Var: "s", Count: plan.CountExpr{SlabsOf: "a"}, Body: []plan.Node{
			&plan.Loop{Var: "c", Count: plan.CountExpr{ColsOf: "icla_a"}}}},
		&plan.ReadSlab{Array: "x", Index: "s", Buf: "halo_x", Stream: true, Ghosts: "g", Left: -2, Right: -1},
		&plan.Ewise{Out: "o", Expr: expr},
		&plan.Ewise{Out: "o", Array: "z", Lo: -1, Hi: 7, Top: 1, Bottom: 2, Expr: expr},
		&plan.Ewise{Out: "o", Array: "z", Top: -1},
		&plan.Exchange{Arrays: []string{"x", "y"}, Ghosts: []string{"gx", "gy"}, Left: -1, Right: 3},
		&plan.Exchange{},
		&plan.Redistribute{Src: "a", Dst: "b", Method: "two-phase", MemElems: -1},
		unknownNode{&plan.AutoStage{Array: "u"}},
	)
	arrays := []plan.ArraySpec{
		{Name: "a", Rows: 8, Cols: 8, RowScheme: dist.Collapsed, ColScheme: dist.Block, SlabElems: 16},
		{Name: "b", Rows: 8, Cols: 8, RowScheme: dist.Block, ColScheme: dist.Collapsed, Grid: []int{4},
			Role: plan.Out, SlabElems: 8, SlabDim: oocarray.ByRow},
		{Name: "c", Rows: -8, Cols: 0, RowScheme: dist.Block, ColScheme: dist.Block, Grid: []int{2, 2}},
		{Name: "d", RowScheme: dist.Scheme(9), Role: plan.Role(5), SlabDim: oocarray.Dim(7), Grid: []int{}},
	}
	extras := []map[string]string{nil, {}, {"k": ""}, {"b": "2", "a": "1", "": "empty key", "é": "ü"}}
	progs := []*plan.Program{{}, {Name: "edge", N: -1, Procs: 3, Strategy: "s", Arrays: arrays,
		Notes: []string{"", "note with | and %d"}, Body: body}}
	for _, n := range body {
		progs = append(progs, &plan.Program{Name: "one", Body: []plan.Node{n}})
	}
	for _, e := range append(leaves, expr) {
		if got, want := e.String(), fmtExpr(e); got != want {
			t.Errorf("String() = %q, the fmt rendering %q", got, want)
		}
	}
	for _, c := range []plan.CountExpr{{Lit: -4}, {SlabsOf: "a"}, {ColsOf: "icla_a"}} {
		if got, want := c.String(), fmtCount(c); got != want {
			t.Errorf("CountExpr.String() = %q, the fmt rendering %q", got, want)
		}
	}
	for i, p := range progs {
		for _, x := range extras {
			if msg := fmtMismatch(p, x); msg != "" {
				t.Errorf("program %d extra=%v: %s", i, x, msg)
			}
		}
	}
}

// unknownNode is a node kind the fingerprint has no case for.
type unknownNode struct{ *plan.AutoStage }

// FuzzFingerprint compiles arbitrary source under the options FuzzCompile
// decodes from the same bytes and requires every accepted program's
// fingerprint to equal the fmt oracle's.
func FuzzFingerprint(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), uint8(3), uint8(0), uint8(255), uint8(0))
	}
	forces := []string{"", "column-slab", "row-slab", "direct", "sieved", "two-phase", "twophase", "diagonal"}
	f.Fuzz(func(t *testing.T, src string, nSel, procSel, memSel, knobs uint8) {
		res, err := compiler.CompileSource(src, compiler.Options{
			N:        8 << (nSel % 4),
			Procs:    []int{0, 1, 2, 4}[procSel%4],
			MemElems: 16 * (1 + int(memSel)),
			Policy:   compiler.MemPolicy(knobs % 3),
			Force:    forces[int(knobs/3)%len(forces)],
			Runtime:  oocarray.Options{Sieve: knobs >= 128},
		})
		if err != nil {
			return
		}
		if msg := fmtMismatch(res.Program, nil); msg != "" {
			t.Fatalf("%s\n%s", msg, src)
		}
	})
}

// TestFingerprintAllocs pins Fingerprint of the GAXPY plan at one
// allocation, the returned string: the canonical bytes are built in a
// stack buffer and hashed in one call.
func TestFingerprintAllocs(t *testing.T) {
	p := compileFor(t, 64, 4, 1<<12, sim.Delta(4))
	if got := testing.AllocsPerRun(100, func() { plan.Fingerprint(p, nil) }); got != 1 {
		t.Fatalf("Fingerprint of the gaxpy plan: %v allocations, want 1", got)
	}
}
