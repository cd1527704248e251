package bytecode_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// corpus compiles every program shape the repository knows — the built-in
// kernels plus the testdata .hpf corpus — into plans, covering every
// opcode the lowering can emit (SumStore loops, redistribution, shifted
// and aligned FORALLs, streaming reads, auto-staging).
func corpus(t *testing.T) map[string]*plan.Program {
	t.Helper()
	out := map[string]*plan.Program{}
	add := func(name, src string, opts compiler.Options) {
		res, err := compiler.CompileSource(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res.Program
	}
	add("gaxpy/row-slab", hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: "row-slab"})
	add("gaxpy/column-slab", hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300, Force: "column-slab"})
	add("gaxpy/sieve", hpf.GaxpySource, compiler.Options{N: 64, Procs: 4, MemElems: 700, Runtime: oocarray.Options{Sieve: true}})
	add("transpose/direct", hpf.TransposeSource, compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "direct"})
	add("transpose/two-phase", hpf.TransposeSource, compiler.Options{N: 64, Procs: 4, MemElems: 16 * 64, Force: "two-phase"})
	add("ewise", hpf.EwiseSource, compiler.Options{N: 64, Procs: 4, MemElems: 64 * 8})
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("testdata/"+filepath.Base(f), string(src), compiler.Options{MemElems: 1 << 14})
	}
	return out
}

// TestGoldenRoundTrip pins the serialization contract: encode → decode →
// re-encode is byte-identical, the decoded program is structurally equal
// to the compiled one, and lowering preserves the plan fingerprint — so
// a cache keyed on plan.Fingerprint can persist either form.
func TestGoldenRoundTrip(t *testing.T) {
	for name, p := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			bc, err := bytecode.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			// The stream does not carry the runtime switches.
			code := *p
			code.Runtime = oocarray.Options{}
			if want := plan.Fingerprint(&code, nil); bc.Fingerprint != want {
				t.Fatalf("lowering changed the fingerprint: %s vs %s", bc.Fingerprint, want)
			}
			enc := bytecode.Encode(bc)
			dec, err := bytecode.Decode(enc)
			if err != nil {
				t.Fatalf("decode of a fresh encode: %v", err)
			}
			if !reflect.DeepEqual(bc, dec) {
				t.Fatal("decoded program differs structurally from the compiled one")
			}
			enc2 := bytecode.Encode(dec)
			if !bytes.Equal(enc, enc2) {
				t.Fatal("re-encode is not byte-identical")
			}
			if err := dec.Validate(); err != nil {
				t.Fatalf("decoded program fails validation: %v", err)
			}
		})
	}
}

// encodeOracle is the encoder Encode replaced: the payload grown from
// empty by appends, then copied behind a header. Encode must write the
// same bytes.
func encodeOracle(p *bytecode.Program) []byte {
	var w oracleBuf
	w.str(p.Name)
	w.u64(uint64(p.N))
	w.u64(uint64(p.Procs))
	w.str(p.Strategy)
	w.str(p.Fingerprint)
	w.u32(uint32(len(p.Arrays)))
	for _, a := range p.Arrays {
		w.str(a.Name)
		w.u64(uint64(a.Rows))
		w.u64(uint64(a.Cols))
		w.u32(uint32(a.RowScheme))
		w.u32(uint32(a.ColScheme))
		w.u32(uint32(a.Role))
		w.u32(uint32(len(a.Grid)))
		for _, g := range a.Grid {
			w.u64(uint64(g))
		}
		w.u64(uint64(a.SlabElems))
		w.u32(uint32(a.SlabDim))
	}
	w.strs(p.VarNames)
	w.strs(p.BufNames)
	w.strs(p.VecNames)
	w.strs(p.Labels)
	w.u32(uint32(len(p.Exprs)))
	for _, code := range p.Exprs {
		w.u32(uint32(len(code)))
		for _, ins := range code {
			w.buf = append(w.buf, byte(ins.Op))
			w.i32(ins.A)
			w.i32(ins.B)
			// One 8-byte operand: PUSH_CONST's value, any other op's C.
			if ins.Op == bytecode.EPushConst {
				w.u64(math.Float64bits(ins.Val))
			} else {
				w.u64(uint64(int64(ins.C)))
			}
		}
	}
	w.u32(uint32(len(p.Code)))
	for _, ins := range p.Code {
		w.buf = append(w.buf, byte(ins.Op))
		for _, v := range [...]int32{ins.A, ins.B, ins.C, ins.D, ins.E, ins.F, ins.G, ins.H} {
			w.i32(v)
		}
	}
	w.u32(uint32(len(p.NodePC)))
	for _, pc := range p.NodePC {
		w.i32(pc)
	}
	w.u32(uint32(p.Readers))

	frame := make([]byte, 0, len(bytecode.Magic)+12+len(w.buf))
	frame = append(frame, bytecode.Magic...)
	frame = binary.BigEndian.AppendUint32(frame, bytecode.Version)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(w.buf)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(w.buf))
	return append(frame, w.buf...)
}

type oracleBuf struct{ buf []byte }

func (w *oracleBuf) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *oracleBuf) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *oracleBuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *oracleBuf) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *oracleBuf) strs(s []string) {
	w.u32(uint32(len(s)))
	for _, x := range s {
		w.str(x)
	}
}

// sweepCorpus lowers every testdata/ program and the benchmark's four
// programs over a spread of the compile sweep's (N, P, memory) grid,
// with the options a served job compiles under.
func sweepCorpus(t *testing.T) map[string]*bytecode.Program {
	t.Helper()
	out := map[string]*bytecode.Program{}
	for name, p := range corpus(t) {
		bc, err := bytecode.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = bc
	}
	files, err := filepath.Glob("../../bench/programs/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{64, 1024, 16384} {
			for _, procs := range []int{4, 64, 512} {
				for _, d := range []int{1, 16, 64} {
					mem := n * n / procs / d
					res, err := compiler.CompileSource(string(src), compiler.Options{
						N: n, Procs: procs, MemElems: mem, Machine: sim.Delta(procs), Policy: compiler.PolicyWeighted,
					})
					if err != nil {
						continue // the sweep drops what does not compile
					}
					bc, err := bytecode.Compile(res.Program)
					if err != nil {
						t.Fatal(err)
					}
					out[fmt.Sprintf("%s/n%d/p%d/m%d", filepath.Base(f), n, procs, mem)] = bc
				}
			}
		}
	}
	return out
}

// TestEncodeMatchesOracle: Encode writes the oracle's bytes for every
// program, in a frame made at its exact length.
func TestEncodeMatchesOracle(t *testing.T) {
	progs := sweepCorpus(t)
	if len(progs) < 40 {
		t.Fatalf("only %d programs compiled", len(progs))
	}
	for name, bc := range progs {
		enc := bytecode.Encode(bc)
		if !bytes.Equal(enc, encodeOracle(bc)) {
			t.Errorf("%s: Encode differs from the oracle", name)
		}
		if len(enc) != cap(enc) {
			t.Errorf("%s: frame of %d bytes has capacity %d", name, len(enc), cap(enc))
		}
	}
}

// TestEncodeAllocs pins Encode at one allocation, the frame it returns.
func TestEncodeAllocs(t *testing.T) {
	for name, bc := range sweepCorpus(t) {
		if got := testing.AllocsPerRun(10, func() { bytecode.Encode(bc) }); got != 1 {
			t.Errorf("%s: Encode made %v allocations, want 1", name, got)
		}
	}
}

// TestDisassembleCoversCode smoke-checks the disassembly: one line per
// instruction, symbolic operand names resolved from the tables.
// TestDecodeAllocs pins Decode of the GAXPY stream at 19 allocations:
// the program, each table made once at its decoded count, the strings
// longer than a byte, and Validate's two.
func TestDecodeAllocs(t *testing.T) {
	src, err := os.ReadFile("../../testdata/gaxpy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.CompileSource(string(src), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	enc := bytecode.Encode(bc)
	got := testing.AllocsPerRun(100, func() {
		if _, err := bytecode.Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if got != 19 {
		t.Fatalf("Decode of the gaxpy stream: %v allocations, want 19", got)
	}
}

func TestDisassembleCoversCode(t *testing.T) {
	for name, p := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			bc, err := bytecode.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			d := bc.Disassemble()
			for _, ins := range bc.Code {
				if !strings.Contains(d, ins.Op.String()) {
					t.Fatalf("disassembly missing opcode %s:\n%s", ins.Op, d)
				}
			}
			if !strings.Contains(d, bc.Fingerprint) {
				t.Error("disassembly missing the fingerprint header")
			}
		})
	}
}

// typedDecodeErr reports whether err is one of the package's declared
// decode failures — the contract is that Decode returns nothing else.
func typedDecodeErr(err error) bool {
	for _, want := range []error{
		bytecode.ErrBadMagic, bytecode.ErrVersion, bytecode.ErrTruncated,
		bytecode.ErrChecksum, bytecode.ErrMalformed,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func encodedGaxpy(t *testing.T) []byte {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	return bytecode.Encode(bc)
}

// TestDecodeRejectsTruncation cuts the stream at every length: each
// prefix must fail with a typed error, never panic, never succeed.
func TestDecodeRejectsTruncation(t *testing.T) {
	enc := encodedGaxpy(t)
	for i := 0; i < len(enc); i++ {
		if _, err := bytecode.Decode(enc[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", i, len(enc))
		} else if !typedDecodeErr(err) {
			t.Fatalf("truncation to %d bytes: untyped error %v", i, err)
		}
	}
}

// TestDecodeRejectsBitFlips flips one bit in every byte of the frame.
// Header flips must produce magic/version/length/checksum errors; payload
// flips are caught by the CRC. No flip may panic or decode.
func TestDecodeRejectsBitFlips(t *testing.T) {
	enc := encodedGaxpy(t)
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(enc)
			mut[i] ^= 1 << bit
			if _, err := bytecode.Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			} else if !typedDecodeErr(err) {
				t.Fatalf("bit flip at byte %d bit %d: untyped error %v", i, bit, err)
			}
		}
	}
}

// TestDecodeRejectsPayloadCorruptionBehindValidCRC re-frames corrupted
// payloads with a freshly computed checksum, so the damage reaches the
// structural decoder and validator. Still: typed error or a valid
// program, never a panic.
func TestDecodeRejectsPayloadCorruptionBehindValidCRC(t *testing.T) {
	enc := encodedGaxpy(t)
	for i := len(bytecode.Magic) + 12; i < len(enc); i++ {
		for _, v := range []byte{0x00, 0xff, enc[i] + 1} {
			mut := bytes.Clone(enc)
			mut[i] = v
			reframe(mut)
			if _, err := bytecode.Decode(mut); err != nil && !typedDecodeErr(err) {
				t.Fatalf("payload byte %d = %#x: untyped error %v", i, v, err)
			}
		}
	}
}

// reframe recomputes the payload CRC in place (the frame layout is
// magic + version + length + crc + payload, all big-endian).
func reframe(b []byte) {
	payload := b[len(bytecode.Magic)+12:]
	crc := crc32IEEE(payload)
	off := len(bytecode.Magic) + 8
	b[off] = byte(crc >> 24)
	b[off+1] = byte(crc >> 16)
	b[off+2] = byte(crc >> 8)
	b[off+3] = byte(crc)
}

func crc32IEEE(b []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, x := range b {
		crc ^= uint32(x)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestDecodeRejectsWrongVersion bumps the frame version.
func TestDecodeRejectsWrongVersion(t *testing.T) {
	enc := encodedGaxpy(t)
	mut := bytes.Clone(enc)
	mut[len(bytecode.Magic)+3]++ // low byte of the version word
	if _, err := bytecode.Decode(mut); !errors.Is(err, bytecode.ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

// TestDecodeRejectsTrailingBytes: extra bytes after the declared payload
// are malformed, not silently ignored.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	enc := append(encodedGaxpy(t), 0xAA)
	if _, err := bytecode.Decode(enc); !errors.Is(err, bytecode.ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

// TestDecodeBoundsHostileLengths hand-builds a frame whose payload
// declares a multi-gigabyte string: the decoder must refuse without
// attempting the allocation.
func TestDecodeBoundsHostileLengths(t *testing.T) {
	payload := []byte{0xff, 0xff, 0xff, 0xf0} // name length ~4 GiB
	frame := []byte(bytecode.Magic)
	frame = append(frame, 0, 0, 0, byte(bytecode.Version))
	frame = append(frame, 0, 0, 0, byte(len(payload)))
	crc := crc32IEEE(payload)
	frame = append(frame, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	frame = append(frame, payload...)
	if _, err := bytecode.Decode(frame); !errors.Is(err, bytecode.ErrTruncated) {
		t.Fatalf("want ErrTruncated for a hostile length, got %v", err)
	}
}

// FuzzDecode: any byte stream produces a typed error or a valid,
// re-encodable program — never a panic.
func FuzzDecode(f *testing.F) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{N: 32, Procs: 4, MemElems: 300})
	if err != nil {
		f.Fatal(err)
	}
	bc, err := bytecode.Compile(res.Program)
	if err != nil {
		f.Fatal(err)
	}
	enc := bytecode.Encode(bc)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte(bytecode.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := bytecode.Decode(data)
		if err != nil {
			if !typedDecodeErr(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A stream that decodes must round-trip stably.
		enc2 := bytecode.Encode(p)
		if len(enc2) != cap(enc2) {
			t.Fatalf("re-encoded frame of %d bytes has capacity %d", len(enc2), cap(enc2))
		}
		p2, err := bytecode.Decode(enc2)
		if err != nil {
			t.Fatalf("re-encode of a decoded program does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("re-encode round trip changed the program")
		}
	})
}

// TestValidateRowOperands: a bounded EWISE leaves out no negative number
// of rows, and only a bounded one may read a leaf at a row offset.
func TestValidateRowOperands(t *testing.T) {
	lower := func(src string) *bytecode.Program {
		res, err := compiler.CompileSource(src, compiler.Options{N: 32, Procs: 4, MemElems: 256})
		if err != nil {
			t.Fatal(err)
		}
		bc, err := bytecode.Compile(res.Program)
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	ewise := func(bc *bytecode.Program) *bytecode.Instr {
		for i := range bc.Code {
			if bc.Code[i].Op == bytecode.OpEwise {
				return &bc.Code[i]
			}
		}
		t.Fatal("no EWISE")
		return nil
	}
	jacobi := lower(hpf.JacobiSource)
	ewise(jacobi).G = -1
	if err := jacobi.Validate(); !errors.Is(err, bytecode.ErrMalformed) {
		t.Errorf("negative row trim: want ErrMalformed, got %v", err)
	}
	flat := lower(hpf.EwiseSource)
	for i, e := range flat.Exprs[ewise(flat).B] {
		if e.Op == bytecode.EPushBuf {
			flat.Exprs[ewise(flat).B][i].C = 1
			break
		}
	}
	if err := flat.Validate(); !errors.Is(err, bytecode.ErrMalformed) {
		t.Errorf("row offset in an unbounded EWISE: want ErrMalformed, got %v", err)
	}
}

// TestCompileSizesTables: lowering makes its instruction stream, jump
// table, labels and expression programs at their final size. The only
// spare capacity is in the stream, one slot for each checkpoint between
// nodes that a live buffer slot dropped.
func TestCompileSizesTables(t *testing.T) {
	for name, bc := range sweepCorpus(t) {
		dropped := max(len(bc.NodePC)-1, 0)
		for _, ins := range bc.Code {
			if ins.Op == bytecode.OpCkpt {
				dropped--
			}
		}
		if cap(bc.Code) != len(bc.Code)+dropped {
			t.Errorf("%s: stream of %d instructions, %d checkpoints dropped, capacity %d", name, len(bc.Code), dropped, cap(bc.Code))
		}
		if len(bc.NodePC) != cap(bc.NodePC) || len(bc.Labels) != cap(bc.Labels) || len(bc.Exprs) != cap(bc.Exprs) {
			t.Errorf("%s: a node or expression table has spare capacity", name)
		}
		for i, code := range bc.Exprs {
			if len(code) != cap(code) {
				t.Errorf("%s: expression %d has %d instructions and capacity %d", name, i, len(code), cap(code))
			}
		}
	}
}
