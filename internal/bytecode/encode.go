package bytecode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/plan"
)

// Magic frames every encoded bytecode program (8 bytes).
const Magic = "OOCBC01\n"

// Typed decode failures. Decode wraps each with position detail; callers
// dispatch with errors.Is. A byte stream, whatever its contents, produces
// one of these or a valid Program — never a panic.
var (
	// ErrBadMagic: the stream does not start with the bytecode magic.
	ErrBadMagic = errors.New("bytecode: bad magic")
	// ErrVersion: the stream's encoding version is not this package's.
	ErrVersion = errors.New("bytecode: unsupported version")
	// ErrTruncated: the stream ends before its declared contents do.
	ErrTruncated = errors.New("bytecode: truncated stream")
	// ErrChecksum: the payload does not match its frame checksum.
	ErrChecksum = errors.New("bytecode: payload checksum mismatch")
	// ErrMalformed: the payload decodes but violates the program's
	// structural invariants (also returned by Validate).
	ErrMalformed = errors.New("bytecode: malformed program")
)

// Encode serializes the program: magic, version, payload length, payload
// CRC32 (IEEE), payload, all big-endian. The payload has no maps and no
// varints — every field is emitted in declaration order at a fixed width —
// so encoding is deterministic: Encode(Decode(b)) reproduces b byte for
// byte, and equal programs encode equally. The frame is made once, at
// its exact size: the payload is written in place behind the header,
// which is filled in last.
func Encode(p *Program) []byte {
	w := encBuf{buf: make([]byte, frameHeader, frameHeader+payloadSize(p))}
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
			if ins.Op == EPushConst {
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

	frame, payload := w.buf, w.buf[frameHeader:]
	copy(frame, Magic)
	binary.BigEndian.PutUint32(frame[len(Magic):], Version)
	binary.BigEndian.PutUint32(frame[len(Magic)+4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[len(Magic)+8:], crc32.ChecksumIEEE(payload))
	return frame
}

// frameHeader is the frame's length ahead of the payload: magic,
// version, payload length and CRC.
const frameHeader = len(Magic) + 12

// payloadSize is the length of the payload Encode writes for p. It
// mirrors Encode field by field.
func payloadSize(p *Program) int {
	str := func(s string) int { return 4 + len(s) }
	strs := func(s []string) int {
		n := 4
		for _, x := range s {
			n += str(x)
		}
		return n
	}
	n := str(p.Name) + 8 + 8 + str(p.Strategy) + str(p.Fingerprint) + 4
	for _, a := range p.Arrays {
		n += arrayEncMin + len(a.Name) + 8*len(a.Grid)
	}
	n += strs(p.VarNames) + strs(p.BufNames) + strs(p.VecNames) + strs(p.Labels)
	n += 4
	for _, code := range p.Exprs {
		n += 4 + exprInstrEnc*len(code)
	}
	n += 4 + instrEnc*len(p.Code)
	n += 4 + 4*len(p.NodePC)
	return n + 4
}

type encBuf struct{ buf []byte }

func (w *encBuf) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *encBuf) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *encBuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *encBuf) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *encBuf) strs(s []string) {
	w.u32(uint32(len(s)))
	for _, x := range s {
		w.str(x)
	}
}

// Decode parses an encoded program, verifying the frame (magic, version,
// length, checksum) and then the structure (Validate). Every length read
// from the stream is checked against the bytes actually remaining before
// any allocation is sized by it, so corrupt or adversarial streams fail
// with a typed error instead of a panic or a huge allocation.
func Decode(b []byte) (*Program, error) {
	if len(b) < len(Magic) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrTruncated, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if len(b) < frameHeader {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the frame header", ErrTruncated, len(b))
	}
	if v := binary.BigEndian.Uint32(b[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: stream version %d, this build reads %d", ErrVersion, v, Version)
	}
	plen := binary.BigEndian.Uint32(b[len(Magic)+4:])
	want := binary.BigEndian.Uint32(b[len(Magic)+8:])
	payload := b[frameHeader:]
	if uint64(len(payload)) < uint64(plen) {
		return nil, fmt.Errorf("%w: payload declares %d bytes, %d present", ErrTruncated, plen, len(payload))
	}
	if uint64(len(payload)) > uint64(plen) {
		return nil, fmt.Errorf("%w: %d bytes trail the declared payload", ErrMalformed, len(payload)-int(plen))
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrChecksum
	}
	r := &decBuf{buf: payload}
	p := &Program{}
	p.Name = r.str("name")
	p.N = int(r.u64("n"))
	p.Procs = int(r.u64("procs"))
	p.Strategy = r.str("strategy")
	p.Fingerprint = r.str("fingerprint")
	p.Arrays = table[plan.ArraySpec](r.count("array table", arrayEncMin))
	for i := range p.Arrays {
		a := &p.Arrays[i]
		a.Name = r.str("array name")
		a.Rows = int(r.u64("array rows"))
		a.Cols = int(r.u64("array cols"))
		a.RowScheme = dist.Scheme(r.u32("array row scheme"))
		a.ColScheme = dist.Scheme(r.u32("array col scheme"))
		a.Role = plan.Role(r.u32("array role"))
		a.Grid = table[int](r.count("array grid", 8))
		for j := range a.Grid {
			a.Grid[j] = int(r.u64("array grid extent"))
		}
		a.SlabElems = int(r.u64("array slab elems"))
		a.SlabDim = oocarray.Dim(r.u32("array slab dim"))
	}
	p.VarNames = r.strs("variable names")
	p.BufNames = r.strs("buffer names")
	p.VecNames = r.strs("vector names")
	p.Labels = r.strs("node labels")
	p.Exprs = table[[]ExprInstr](r.count("expression table", 4))
	for i := range p.Exprs {
		code := table[ExprInstr](r.count("expression program", exprInstrEnc))
		for j := range code {
			ins := &code[j]
			ins.Op = ExprOp(r.u8("expression opcode"))
			ins.A = r.i32("expression operand")
			ins.B = r.i32("expression operand")
			x := r.u64("expression operand")
			if ins.Op == EPushConst {
				ins.Val = math.Float64frombits(x)
			} else if ins.C = int32(x); uint64(int64(ins.C)) != x && r.err == nil {
				r.err = fmt.Errorf("%w: expression operand %#x is not an int32", ErrMalformed, x)
			}
		}
		p.Exprs[i] = code
	}
	p.Code = table[Instr](r.count("code stream", instrEnc))
	for i := range p.Code {
		ins := &p.Code[i]
		ins.Op = Op(r.u8("opcode"))
		for _, v := range [...]*int32{&ins.A, &ins.B, &ins.C, &ins.D, &ins.E, &ins.F, &ins.G, &ins.H} {
			*v = r.i32("operand")
		}
	}
	p.NodePC = table[int32](r.count("node jump table", 4))
	for i := range p.NodePC {
		p.NodePC[i] = r.i32("node pc")
	}
	p.Readers = int(r.u32("reader count"))
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d undecoded payload bytes", ErrMalformed, len(r.buf))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Encoded sizes of the fixed-width records, used to bound declared counts
// by the bytes remaining.
const (
	instrEnc     = 1 + 8*4
	exprInstrEnc = 1 + 2*4 + 8
	// arrayEncMin is the smallest possible array record.
	arrayEncMin = 4 + 8 + 8 + 4 + 4 + 4 + 4 + 8 + 4
)

// decBuf is a cursor over the payload. The first failed read latches err
// and every later read returns zero values, so decoding code reads
// straight-line and checks once.
type decBuf struct {
	buf []byte
	err error
}

func (r *decBuf) fail(what string, need int) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s needs %d bytes, %d remain", ErrTruncated, what, need, len(r.buf))
	}
}

func (r *decBuf) take(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail(what, n)
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *decBuf) u8(what string) uint8 {
	b := r.take(what, 1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *decBuf) u32(what string) uint32 {
	b := r.take(what, 4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *decBuf) u64(what string) uint64 {
	b := r.take(what, 8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *decBuf) i32(what string) int32 { return int32(r.u32(what)) }

// count reads a list length and bounds it by the bytes remaining (at
// minSize bytes per element), so a corrupted length cannot drive a huge
// allocation or a long spin.
func (r *decBuf) count(what string, minSize int) int {
	// The length's label is built only when the read fails.
	if r.err == nil && len(r.buf) < 4 {
		r.fail(what+" length", 4)
	}
	n := r.u32(what)
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(minSize) > uint64(len(r.buf)) {
		r.fail(what, int(n)*minSize)
		return 0
	}
	return int(n)
}

func (r *decBuf) str(what string) string {
	n := r.count(what, 1)
	return string(r.take(what, n))
}

func (r *decBuf) strs(what string) []string {
	out := table[string](r.count(what, 4))
	for i := range out {
		out[i] = r.str(what)
	}
	return out
}

// table makes a decoded table of n entries; nil when n is zero, as
// Compile leaves an empty table, so a decoded program is DeepEqual to the
// one lowered.
func table[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}
