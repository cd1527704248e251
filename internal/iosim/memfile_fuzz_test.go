package iosim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	iofs "io/fs"
	"math"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The model MemFS is checked against: a file is a flat byte slice that
// make zero-fills, a name refers to at most one file, and a handle keeps
// its file whatever happens to the name.
type modelFile struct{ data []byte }

type modelHandle struct {
	real   File
	file   *modelFile
	closed bool
}

// fuzzScript feeds a fuzz input to the interpreter one argument at a time;
// an exhausted script reads as zeros.
type fuzzScript struct {
	b []byte
	i int
}

func (s *fuzzScript) more() bool { return s.i < len(s.b) }

func (s *fuzzScript) byte() int {
	if !s.more() {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *fuzzScript) word() int { return s.byte()<<8 | s.byte() }

// FuzzMemFile drives a MemFS and the model with the same script — WriteAt,
// ReadAt, Truncate up and down, Close, Remove and re-Create over three
// names and up to eight handles, through the byte API and through an LAF's
// float view — and compares results, errors, sizes and full contents after
// every step. The arena runs checked, so storage a released file gave back
// arrives at the next one poisoned (0xDB): a byte the lazy zero-fill
// misses, or one recycled under an open handle, cannot read as the zero or
// the data the model holds. Written data never contains 0x00 or 0xDB.
func FuzzMemFile(f *testing.F) {
	f.Add([]byte{})
	// create, truncate up, write past a gap, truncate down, extend again,
	// read; then the same name removed and created afresh.
	f.Add([]byte{0, 0, 4, 0, 0x10, 0x00, 2, 0, 0x08, 0x00, 0x00, 0x40, 4, 0, 0x00, 0x64, 2, 0, 0x0b, 0xb8, 0x00, 0x01,
		3, 0, 0x00, 0x00, 0x02, 0xbc, 6, 0, 0, 0, 2, 1, 0x00, 0x10, 0x00, 0x20, 3, 0, 0, 0, 0x02, 0xbc})
	// two files alternately closed and removed so each inherits the other's
	// poisoned storage, written at ascending then skipping offsets.
	f.Add([]byte{0, 0, 2, 0, 0, 0, 0x02, 0x00, 0, 1, 5, 0, 6, 0, 2, 1, 0x03, 0x00, 0x01, 0x00, 4, 1, 0x13, 0x88,
		3, 1, 0, 0, 0x02, 0xbc, 5, 1, 6, 1, 0, 2, 4, 2, 0x10, 0x00, 7, 2, 3, 9, 8, 2, 1, 40})
	// a handle that outlives its name, and a second one opened before the
	// unlink; the name re-created between their closes.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 0, 0x01, 0x00, 6, 0, 0, 0, 2, 2, 0, 8, 0, 8, 3, 0, 0, 0, 1, 0, 5, 0, 3, 1, 0, 0, 1, 0,
		5, 1, 7, 2, 0, 1, 8, 2, 0, 1})
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)

	f.Fuzz(func(t *testing.T, input []byte) {
		bufpool.ResetStats()
		names := []string{"a.p0.laf", "b.p0.laf", "c.p1.laf"}
		fs := NewMemFS()
		disk := NewDisk(fs, sim.Delta(2), nil)
		linked := map[string]*modelFile{}
		var handles []*modelHandle
		stamp := 0 // distinguishes the data of successive writes

		pattern := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				stamp++
				p[i] = byte(1 + stamp%200)
			}
			return p
		}
		// checkAll compares every open handle's view with the model.
		checkAll := func(step int) {
			t.Helper()
			for hi, h := range handles {
				if h.closed {
					continue
				}
				want := h.file.data
				if n, ok := FileSize(h.real); !ok || n != int64(len(want)) {
					t.Fatalf("step %d: handle %d: FileSize = %d, %v, model %d", step, hi, n, ok, len(want))
				}
				got := make([]byte, len(want)+16)
				n, err := h.real.ReadAt(got, 0)
				if n != len(want) || err != io.EOF {
					t.Fatalf("step %d: handle %d: whole-file read = %d, %v, model holds %d bytes", step, hi, n, err, len(want))
				}
				if !bytes.Equal(got[:n], want) {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d: handle %d: byte %d of %d = %#x, model %#x", step, hi, i, len(want), got[i], want[i])
						}
					}
				}
			}
		}
		// closedAs checks that an operation through a closed handle failed
		// the way an *os.File's does.
		closedAs := func(step int, op string, err error) {
			t.Helper()
			if !errors.Is(err, iofs.ErrClosed) {
				t.Fatalf("step %d: %s through a closed handle: %v, want fs.ErrClosed", step, op, err)
			}
		}
		// lafOver wraps the handle as a local array file of the model's
		// current length, the way OpenLAF would.
		lafOver := func(h *modelHandle) *LAF {
			return &LAF{disk: disk, file: h.real, name: "fuzz", elems: int64(len(h.file.data) / elemBytes)}
		}
		chunksIn := func(s *fuzzScript, elems int) []Chunk {
			off := s.byte() % elems
			n := s.byte() % (elems - off + 1)
			if n < 2 {
				return []Chunk{{Off: int64(off), Len: n}}
			}
			// Split in two runs written back to front: a second WriteAt
			// below the first one's high-water mark.
			return []Chunk{{Off: int64(off + n/2), Len: n - n/2}, {Off: int64(off), Len: n / 2}}
		}

		s := &fuzzScript{b: input}
		for step := 0; s.more() && step < 256; step++ {
			op, target := s.byte()%9, s.byte()
			name := names[target%len(names)] // create, open, remove
			var h *modelHandle               // everything else
			if op >= 2 && op != 6 {
				if len(handles) == 0 {
					continue
				}
				h = handles[target%len(handles)]
			}
			switch op {
			case 0: // create
				if len(handles) == 8 {
					continue
				}
				real, err := fs.Create(name)
				if err != nil {
					t.Fatalf("step %d: create %s: %v", step, name, err)
				}
				m := &modelFile{}
				linked[name] = m
				handles = append(handles, &modelHandle{real: real, file: m})
			case 1: // open
				if len(handles) == 8 {
					continue
				}
				real, err := fs.Open(name)
				m := linked[name]
				if (err == nil) != (m != nil) || (err != nil && !errors.Is(err, iofs.ErrNotExist)) {
					t.Fatalf("step %d: open %s: %v, model has it: %v", step, name, err, m != nil)
				}
				if m != nil {
					handles = append(handles, &modelHandle{real: real, file: m})
				}
			case 2: // WriteAt
				off, p := s.word()%5000, pattern(s.word()%700)
				n, err := h.real.WriteAt(p, int64(off))
				if h.closed {
					closedAs(step, "WriteAt", err)
					break
				}
				if n != len(p) || err != nil {
					t.Fatalf("step %d: WriteAt(%d bytes @%d) = %d, %v", step, len(p), off, n, err)
				}
				if len(p) > 0 {
					if end := off + len(p); end > len(h.file.data) {
						h.file.data = append(h.file.data, make([]byte, end-len(h.file.data))...)
					}
					copy(h.file.data[off:], p)
				}
			case 3: // ReadAt
				off, p := s.word()%5000, make([]byte, s.word()%700)
				n, err := h.real.ReadAt(p, int64(off))
				if h.closed {
					closedAs(step, "ReadAt", err)
					break
				}
				wantN, wantErr := 0, error(nil)
				if off >= len(h.file.data) {
					wantErr = io.EOF
				} else if wantN = min(len(p), len(h.file.data)-off); wantN < len(p) {
					wantErr = io.EOF
				}
				if n != wantN || err != wantErr {
					t.Fatalf("step %d: ReadAt(%d bytes @%d of %d) = %d, %v, model %d, %v",
						step, len(p), off, len(h.file.data), n, err, wantN, wantErr)
				}
				if n > 0 && !bytes.Equal(p[:n], h.file.data[off:off+n]) {
					t.Fatalf("step %d: ReadAt(%d bytes @%d) differs from the model", step, len(p), off)
				}
			case 4: // Truncate, up or down
				size := s.word() % 6000
				err := h.real.Truncate(int64(size))
				if h.closed {
					closedAs(step, "Truncate", err)
					break
				}
				if err != nil {
					t.Fatalf("step %d: Truncate(%d): %v", step, size, err)
				}
				if size <= len(h.file.data) {
					h.file.data = h.file.data[:size:size]
				} else {
					h.file.data = append(h.file.data, make([]byte, size-len(h.file.data))...)
				}
			case 5: // Close, possibly again
				if err := h.real.Close(); err != nil {
					t.Fatalf("step %d: Close (closed before: %v): %v", step, h.closed, err)
				}
				h.closed = true
			case 6: // Remove
				err := fs.Remove(name)
				if (err == nil) != (linked[name] != nil) || (err != nil && !errors.Is(err, iofs.ErrNotExist)) {
					t.Fatalf("step %d: remove %s: %v, model has it: %v", step, name, err, linked[name] != nil)
				}
				delete(linked, name)
			case 7, 8: // LAF.WriteChunks, LAF.ReadChunks
				elems := len(h.file.data) / elemBytes
				if elems == 0 {
					continue
				}
				chunks := chunksIn(s, elems)
				total := TotalLen(chunks)
				vals := make([]float64, total)
				if op == 7 {
					img := pattern(total * elemBytes)
					for i := range vals {
						vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(img[i*elemBytes:]))
					}
					_, err := lafOver(h).WriteChunks(chunks, vals)
					if h.closed {
						if total > 0 {
							closedAs(step, "WriteChunks", err)
						}
						break
					}
					if err != nil {
						t.Fatalf("step %d: WriteChunks(%v): %v", step, chunks, err)
					}
					pos := 0
					for _, c := range chunks {
						copy(h.file.data[int(c.Off)*elemBytes:], img[pos*elemBytes:(pos+c.Len)*elemBytes])
						pos += c.Len
					}
					break
				}
				_, err := lafOver(h).ReadChunks(chunks, vals)
				if h.closed {
					if total > 0 {
						closedAs(step, "ReadChunks", err)
					}
					break
				}
				if err != nil {
					t.Fatalf("step %d: ReadChunks(%v): %v", step, chunks, err)
				}
				pos := 0
				for _, c := range chunks {
					for i := 0; i < c.Len; i++ {
						want := binary.LittleEndian.Uint64(h.file.data[(int(c.Off)+i)*elemBytes:])
						if got := math.Float64bits(vals[pos+i]); got != want {
							t.Fatalf("step %d: ReadChunks element %d = %#x, model bytes %#x", step, int(c.Off)+i, got, want)
						}
					}
					pos += c.Len
				}
			}
			checkAll(step)
		}

		// Everything closed and unlinked: every byte is back in the arena.
		for _, h := range handles {
			h.real.Close()
		}
		for name := range linked {
			if err := fs.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		if st := bufpool.Snapshot(); st.Gets != st.Puts+st.Drops {
			t.Fatalf("arena unbalanced after the last close and remove: %+v", st)
		}
	})
}
