package iosim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	iofs "io/fs"
	"math"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// The model MemFS is checked against: a file is a flat byte slice that
// make zero-fills, a name refers to at most one file, and a handle keeps
// its file whatever happens to the name. img is the image the real file
// was made sharing (nil: none).
type modelFile struct {
	data []byte
	img  []float64
}

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
// names and up to eight open handles, through the byte API and through an
// LAF's float view — and compares results, errors, sizes and full
// contents after every step. The arena runs checked, so storage a
// released file gave back arrives at the next one poisoned (0xDB): a byte
// the lazy zero-fill misses, or one recycled under an open handle, cannot
// read as the zero or the data the model holds. Written data never
// contains 0x00 or 0xDB.
//
// File records are recycled too (the free list behind Create), and one
// step forces it: close every handle of a name's file, remove it and
// create it again, which must hand the new file the old one's record.
// The new file reads as zeros, never the old bytes; every handle closed
// before the recycle fails every operation with fs.ErrClosed after it,
// checked after every step; and a handle that outlives its name keeps
// its own file, whatever record the name moves on to.
//
// A file can also be made sharing an image (LAF.Share) and written from
// the image's own bytes, through WriteAt or an LAF. The model knows
// nothing of sharing: every read must match it all the same. A write of
// the image's own bytes at or below the mark of a file that still shares
// must take nothing from the arena, and every image must be bitwise what
// it was after every step (the checked arena would poison one put back
// to it).
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
	// a written file held open through a second handle past its removal;
	// the name created afresh, written, and recycled twice while the held
	// handle still reads the first file, then let go.
	f.Add([]byte{0, 0, 4, 0, 0x00, 0x40, 2, 0, 0x00, 0x00, 0x00, 0x20, 1, 0, 6, 0, 0, 0, 2, 2, 0x00, 0x08, 0x00, 0x10, 5, 0,
		9, 0, 3, 1, 0x00, 0x00, 0x00, 0x40, 3, 3, 0x00, 0x00, 0x00, 0x10, 5, 1, 9, 0, 4, 4, 0x00, 0x20, 3, 4, 0x00, 0x00, 0x00, 0x20})
	// a shared file filled from its image in three writes, the last
	// through an LAF, then copied by a foreign write; a second shared
	// file written, and its file closed and removed.
	f.Add([]byte{10, 0, 40, 11, 0, 0, 0, 0, 0, 100, 11, 0, 0, 0, 0, 0, 100, 11, 0, 1, 0, 0, 0, 80,
		2, 0, 0, 10, 0, 20, 10, 1, 20, 11, 1, 0, 0, 0, 0, 50, 5, 1, 6, 1})
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
		// images are the images files were made sharing, each beside a
		// copy of its bytes.
		type keptImage struct{ img, orig []byte }
		var images []keptImage
		// checkAll compares every open handle's view with the model, holds
		// every closed handle to fs.ErrClosed and every image to its bytes.
		checkAll := func(step int) {
			t.Helper()
			for i, k := range images {
				if !bytes.Equal(k.img, k.orig) {
					t.Fatalf("step %d: image %d changed", step, i)
				}
			}
			for hi, h := range handles {
				if h.closed {
					p := []byte{0xAA}
					_, rerr := h.real.ReadAt(p, 0)
					_, werr := h.real.WriteAt(p, 0)
					if !errors.Is(rerr, iofs.ErrClosed) || !errors.Is(werr, iofs.ErrClosed) ||
						!errors.Is(h.real.Truncate(1), iofs.ErrClosed) {
						t.Fatalf("step %d: closed handle %d: read %v, write %v, want fs.ErrClosed", step, hi, rerr, werr)
					}
					if n, _ := FileSize(h.real); n != 0 {
						t.Fatalf("step %d: closed handle %d reports a size of %d", step, hi, n)
					}
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

		// full reports that no handle may be added: eight open, or 64 in
		// all (closed ones stay, to be checked after every step).
		full := func() bool {
			open := 0
			for _, h := range handles {
				if !h.closed {
					open++
				}
			}
			return open == 8 || len(handles) == 64
		}
		create := func(step int, name string) *modelHandle {
			t.Helper()
			real, err := fs.Create(name)
			if err != nil {
				t.Fatalf("step %d: create %s: %v", step, name, err)
			}
			m := &modelFile{}
			linked[name] = m
			h := &modelHandle{real: real, file: m}
			handles = append(handles, h)
			return h
		}

		s := &fuzzScript{b: input}
		for step := 0; s.more() && step < 256; step++ {
			op, target := s.byte()%12, s.byte()
			name := names[target%len(names)] // create, open, remove, recycle, share
			var h *modelHandle               // everything else
			if op >= 2 && op != 6 && op != 9 && op != 10 {
				if len(handles) == 0 {
					continue
				}
				h = handles[target%len(handles)]
			}
			switch op {
			case 0: // create
				if full() {
					continue
				}
				create(step, name)
			case 1: // open
				if full() {
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
			case 9: // close the name's file everywhere, remove it, create it again
				m := linked[name]
				if m == nil || full() {
					continue
				}
				var rec *memFile
				for _, h := range handles {
					if h.file == m {
						rec = h.real.(*memHandle).f
						if !h.closed {
							h.real.Close()
							h.closed = true
						}
					}
				}
				if err := fs.Remove(name); err != nil {
					t.Fatalf("step %d: remove %s: %v", step, name, err)
				}
				delete(linked, name)
				if got := create(step, name).real.(*memHandle).f; got != rec {
					t.Fatalf("step %d: %s created afresh on a new record, not the one its closed and removed file freed", step, name)
				}
			case 10: // create the name sharing an image
				if full() {
					continue
				}
				elems := 1 + s.byte()%80
				pat := pattern(elems * elemBytes)
				img := make([]float64, elems)
				copy(floatBytes(img), pat)
				h := create(step, name)
				if err := h.real.Truncate(int64(elems * elemBytes)); err != nil {
					t.Fatalf("step %d: Truncate: %v", step, err)
				}
				h.file.data = make([]byte, elems*elemBytes)
				l := lafOver(h)
				if !l.Share(img) {
					t.Fatalf("step %d: a fresh file of %d elements refused its image", step, elems)
				}
				h.file.img = img
				images = append(images, keptImage{floatBytes(img), slices.Clone(pat)})
			case 11: // write the image's own bytes at their own offset
				mode, off, n := s.byte(), s.word(), s.word()%700
				rf := h.real.(*memHandle).f
				if h.closed || h.file.img == nil {
					continue
				}
				img := floatBytes(h.file.img)
				off %= len(img) + 1
				if mode%2 == 0 {
					off = min(int(rf.written), len(img))
				}
				end := min(off+n, len(img))
				moves := rf.shared != nil && off <= int(rf.written) && end > off
				gets := bufpool.Snapshot().Gets
				if mode%2 == 0 {
					if n, err := h.real.WriteAt(img[off:end], int64(off)); n != end-off || err != nil {
						t.Fatalf("step %d: WriteAt of the image's bytes [%d, %d) = %d, %v", step, off, end, n, err)
					}
				} else {
					e0, e1 := off/elemBytes, end/elemBytes
					if e1 > len(h.file.data)/elemBytes {
						continue
					}
					off, end = e0*elemBytes, e1*elemBytes
					moves = moves && end > off
					chunk := []Chunk{{Off: int64(e0), Len: e1 - e0}}
					if _, err := lafOver(h).WriteChunks(chunk, h.file.img[e0:e1]); err != nil {
						t.Fatalf("step %d: WriteChunks of the image's elements %v: %v", step, chunk, err)
					}
				}
				if moves && bufpool.Snapshot().Gets != gets {
					t.Fatalf("step %d: a write of the image's own bytes [%d, %d) under the mark %d copied", step, off, end, rf.written)
				}
				if end > len(h.file.data) {
					h.file.data = append(h.file.data, make([]byte, end-len(h.file.data))...)
				}
				copy(h.file.data[off:end], img[off:end])
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
