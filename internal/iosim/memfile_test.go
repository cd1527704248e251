package iosim

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// f64 builds a float64 from its bits, so NaN payloads are spelled exactly.
func f64(bits uint64) float64 { return math.Float64frombits(bits) }

// goldenFloats covers what a reinterpreting codec could get wrong: signed
// zero, a denormal, infinities, and the checked arena's poison NaN.
var goldenFloats = []float64{
	1.5, -2.25, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	f64(0x0000000000000001), f64(0x7FF8DEADBEEF0001), math.MaxFloat64, 1e-300,
}

// goldenBytes is goldenFloats as it lies in a file: little-endian IEEE 754
// bits, element after element. Parity blocks, checksums and checkpoints
// are computed over these bytes, and directories written by earlier
// versions hold them, so they are spelled out here rather than derived.
const goldenBytes = "000000000000f83f" + "00000000000002c0" + "0000000000000080" + "0000000000000000" +
	"000000000000f07f" + "000000000000f0ff" + "0100000000000000" + "0100efbeaddef87f" +
	"ffffffffffffef7f" + "59f3f8c21f6ea501"

func goldenImage(t *testing.T) []byte {
	t.Helper()
	img, err := hex.DecodeString(goldenBytes)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// bothStores runs body over a MemFS and an OSFS: one on-file format, two
// stores.
func bothStores(t *testing.T, body func(t *testing.T, fs FS)) {
	t.Run("mem", func(t *testing.T) { body(t, NewMemFS()) })
	t.Run("os", func(t *testing.T) {
		fs, err := NewOSFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		body(t, fs)
	})
}

// bothCodecs runs body with the float view and with the element-by-element
// codec a big-endian host would use (which is correct on any host).
func bothCodecs(t *testing.T, body func(t *testing.T)) {
	t.Run("view", body)
	t.Run("loops", func(t *testing.T) {
		defer func(was bool) { littleEndianHost = was }(littleEndianHost)
		littleEndianHost = false
		body(t)
	})
}

// TestFloatsOnFileAreLittleEndianBytes: floats written as a slab read
// back through the byte API as their little-endian encoding, bit for bit,
// and bytes written through the byte API read back as those floats — on
// both stores, plain and resilient, with either codec.
func TestFloatsOnFileAreLittleEndianBytes(t *testing.T) {
	want := goldenImage(t)
	if enc := make([]byte, len(want)); true {
		for i, v := range goldenFloats {
			binary.LittleEndian.PutUint64(enc[i*8:], math.Float64bits(v))
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("golden bytes are not the little-endian encoding:\n%x\n%x", want, enc)
		}
	}
	n := len(goldenFloats)
	for _, resilient := range []bool{false, true} {
		t.Run(fmt.Sprintf("resilient=%v", resilient), func(t *testing.T) {
			bothCodecs(t, func(t *testing.T) {
				bothStores(t, func(t *testing.T, fs FS) {
					var res *Resilience
					if resilient {
						res = NewResilience(DefaultRetryPolicy())
					}
					d := NewResilientDisk(fs, sim.Delta(2), nil, res)
					laf, err := d.CreateLAF("g.p0.laf", int64(n))
					if err != nil {
						t.Fatal(err)
					}
					defer laf.Close()
					// Two chunks, so a run that starts inside the file is covered.
					chunks := []Chunk{{Off: 0, Len: 3}, {Off: 3, Len: n - 3}}
					if _, err := laf.WriteChunks(chunks, goldenFloats); err != nil {
						t.Fatal(err)
					}
					raw, err := fs.Open("g.p0.laf")
					if err != nil {
						t.Fatal(err)
					}
					defer raw.Close()
					got := make([]byte, len(want))
					if _, err := raw.ReadAt(got, 0); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("file bytes\n%x\nwant\n%x", got, want)
					}

					// The other direction: reversed bytes in, reversed floats out.
					rev := make([]byte, len(want))
					for i := 0; i < n; i++ {
						copy(rev[i*8:], want[(n-1-i)*8:(n-i)*8])
					}
					if res != nil {
						// Bytes that bypass the disk bypass its checksums too.
						res.dropFile("g.p0.laf")
					}
					if _, err := raw.WriteAt(rev, 0); err != nil {
						t.Fatal(err)
					}
					back := make([]float64, n)
					if _, err := laf.ReadChunks(chunks, back); err != nil {
						t.Fatal(err)
					}
					for i, v := range back {
						if w := goldenFloats[n-1-i]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("element %d = %#x, want %#x", i, math.Float64bits(v), math.Float64bits(w))
						}
					}
				})
			})
		})
	}
}

// TestStorageNotReusedUnderOpenHandle: removing a file (or replacing it by
// a Create of its name) while a handle is open leaves that handle a
// working, private file; the arena sees the storage only after the
// handle's Close. Checked mode would poison it on release, and a second
// file created meanwhile would be handed it.
func TestStorageNotReusedUnderOpenHandle(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	fs := NewMemFS()
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, 4096) }
	check := func(label string, f File, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: contents changed (first byte %#x, want %#x)", label, got[0], want[0])
		}
	}
	for _, unlink := range []string{"remove", "create"} {
		bufpool.ResetStats()
		first, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := first.WriteAt(fill(0x11), 0); err != nil {
			t.Fatal(err)
		}
		second, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		var other File
		if unlink == "remove" {
			if err := fs.Remove("f"); err != nil {
				t.Fatal(err)
			}
			other, err = fs.Create("g")
		} else {
			other, err = fs.Create("f")
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.WriteAt(fill(0x22), 0); err != nil {
			t.Fatal(err)
		}
		check(unlink+": unlinked file through its first handle", first, fill(0x11))
		if _, err := first.WriteAt(fill(0x33), 0); err != nil {
			t.Fatalf("%s: write through the surviving handle: %v", unlink, err)
		}
		check(unlink+": unlinked file through its second handle", second, fill(0x33))
		check(unlink+": the file created meanwhile", other, fill(0x22))
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		if s := bufpool.Snapshot(); s.Puts != 0 {
			t.Fatalf("%s: storage released with a handle still open: %+v", unlink, s)
		}
		check(unlink+": unlinked file after its first handle closed", second, fill(0x33))
		if err := second.Close(); err != nil {
			t.Fatal(err)
		}
		if s := bufpool.Snapshot(); s.Puts != 1 {
			t.Fatalf("%s: last close of an unlinked file released %d buffers, want 1", unlink, s.Puts)
		}
		check(unlink+": the file created meanwhile, after the release", other, fill(0x22))
		if again, err := fs.Open("f"); (err == nil) != (unlink == "create") {
			t.Fatalf("%s: open f: %v", unlink, err)
		} else if err == nil {
			again.Close()
		}
		other.Close()
		fs.Remove("f")
		fs.Remove("g")
		if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
			t.Fatalf("%s: unbalanced after everything was closed and removed: %+v", unlink, s)
		}
	}
}

// TestClosedHandleFailsLikeOSFile: every operation through a closed handle
// is fs.ErrClosed on both stores, a second Close of a MemFS handle is
// harmless, and other handles on the file are unaffected.
func TestClosedHandleFailsLikeOSFile(t *testing.T) {
	bothStores(t, func(t *testing.T, fs FS) {
		f, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
			t.Fatal(err)
		}
		other, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 3)
		if _, err := f.ReadAt(buf, 0); !errors.Is(err, iofs.ErrClosed) {
			t.Errorf("ReadAt after Close: %v", err)
		}
		if _, err := f.WriteAt(buf, 0); !errors.Is(err, iofs.ErrClosed) {
			t.Errorf("WriteAt after Close: %v", err)
		}
		if err := f.Truncate(1); !errors.Is(err, iofs.ErrClosed) {
			t.Errorf("Truncate after Close: %v", err)
		}
		if _, isMem := fs.(*MemFS); isMem {
			if err := f.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		}
		if n, err := other.ReadAt(buf, 0); n != 3 || string(buf) != "abc" {
			t.Errorf("the other handle reads %q, %v", buf[:n], err)
		}
		if n, ok := FileSize(other); !ok || n != 3 {
			t.Errorf("FileSize = %d, %v, want 3", n, ok)
		}
	})
}

// TestMemFSHandlesFromManyGoroutines: ranks open, use, close and remove
// files of one store at the same time, and the parity layer holds its own
// handles on files another rank owns. Handle counts, the unlink flag and
// the release all meet under the file's lock (run with -race): a shared
// file is replaced while readers hold it, and every goroutine's last
// close balances the arena.
func TestMemFSHandlesFromManyGoroutines(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	fs := NewMemFS()
	const workers, rounds = 8, 200
	block := bytes.Repeat([]byte{0x5A}, 1024)
	shared, err := fs.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.WriteAt(block, 0); err != nil {
		t.Fatal(err)
	}
	shared.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("own.p%d.laf", w)
			buf := make([]byte, len(block))
			for i := 0; i < rounds; i++ {
				f, err := fs.Create(own)
				if err != nil {
					t.Error(err)
					return
				}
				f.Truncate(4096)
				f.WriteAt(block, 2048)
				if h, err := fs.Open("shared"); err == nil {
					// Whichever generation of the file this is, it holds
					// the block from its first byte on or nothing yet.
					if n, _ := h.ReadAt(buf, 0); n > 0 && !bytes.Equal(buf[:n], block[:n]) {
						t.Errorf("shared file read %#x…", buf[0])
					}
					h.Close()
				}
				if w == 0 {
					g, err := fs.Create("shared")
					if err != nil {
						t.Error(err)
						return
					}
					g.WriteAt(block, 0)
					g.Close()
				}
				f.Close()
				f.Close()
				fs.Remove(own)
			}
		}()
	}
	wg.Wait()
	if err := fs.Remove("shared"); err != nil {
		t.Fatal(err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Fatalf("arena unbalanced after every handle was closed and every file removed: %+v", s)
	}
}

// TestTruncateCostsNothingPerByte: on a warm arena, creating a 64 MiB file
// allocates a handful of small objects and clears nothing; the file reads
// as zeros anywhere, and a write in the middle of it leaves zeros around
// it.
func TestTruncateCostsNothingPerByte(t *testing.T) {
	const size = 64 << 20
	fs := NewMemFS()
	probe := make([]byte, 4096)
	cycle := func() {
		f, err := fs.Create("big")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(size); err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, size / 2, size - int64(len(probe))} {
			probe[0], probe[len(probe)-1] = 0xAA, 0xAA
			if n, err := f.ReadAt(probe, off); n != len(probe) || err != nil {
				t.Fatalf("ReadAt %d: %d, %v", off, n, err)
			}
			if probe[0] != 0 || probe[len(probe)-1] != 0 {
				t.Fatalf("unwritten bytes at %d read %#x…%#x", off, probe[0], probe[len(probe)-1])
			}
		}
		if n, ok := FileSize(f); !ok || n != size {
			t.Fatalf("FileSize = %d, %v", n, ok)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("big"); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the arena now holds the one 64 MiB buffer its budget allows
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 4 {
		t.Fatalf("create + Truncate(64 MiB) + close + remove allocates %.0f objects, want a constant few", allocs)
	}

	// A write far into recycled storage: zeros before it, zeros after it.
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.PutBytes(bufpool.GetBytes(1 << 20)) // poisoned on release
	f, err := fs.Create("holes")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1, 2, 3}, 500_000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1<<20)
	if n, err := f.ReadAt(got, 0); n != len(got) || err != nil {
		t.Fatalf("ReadAt: %d, %v", n, err)
	}
	want := make([]byte, 1<<20)
	copy(want[500_000:], []byte{1, 2, 3})
	if !bytes.Equal(got, want) {
		t.Fatal("recycled storage shows through the unwritten parts of the file")
	}
}

// TestLAFChunksDoNotAllocate pins the plain MemFS path: a slab read or
// write, contiguous or strided, takes nothing from the heap — no bounce
// buffer, no encode loop's scratch, no closure.
func TestLAFChunksDoNotAllocate(t *testing.T) {
	for _, l := range lafLayouts {
		laf, chunks, buf := lafBenchSetup(t, NewMemFS(), l)
		if n := testing.AllocsPerRun(50, func() {
			if _, err := laf.WriteChunks(chunks, buf); err != nil {
				t.Fatal(err)
			}
			if _, err := laf.ReadChunks(chunks, buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: write + read allocate %.0f objects per call pair, want 0", l.name, n)
		}
		laf.Close()
	}
}

// lafLayouts are the two access shapes of the slab runtime: a column slab
// (one run) and a row slab (one run per column).
var lafLayouts = []struct {
	name   string
	chunks int
}{{"contiguous", 1}, {"strided-64", 64}}

const lafBenchElems = 1 << 17 // a 1 MiB local array file, transpose_real's

// lafBenchSetup makes a 1 MiB file and a chunk list covering half of it in
// the given number of equal, equally spaced runs.
func lafBenchSetup(tb testing.TB, fs FS, l struct {
	name   string
	chunks int
}) (*LAF, []Chunk, []float64) {
	tb.Helper()
	laf, err := NewDisk(fs, sim.Delta(8), nil).CreateLAF("bench.p0.laf", lafBenchElems)
	if err != nil {
		tb.Fatal(err)
	}
	run := lafBenchElems / 2 / l.chunks
	chunks := make([]Chunk, l.chunks)
	for i := range chunks {
		chunks[i] = Chunk{Off: int64(2 * i * run), Len: run}
	}
	if l.chunks == 1 {
		chunks[0].Off = 0
	}
	buf := make([]float64, lafBenchElems/2)
	for i := range buf {
		buf[i] = float64(i)
	}
	return laf, chunks, buf
}

// BenchmarkLAFChunks is the iosim layer on its own: half a 1 MiB local
// array file per op, read or written, as one run or as 64, in memory and
// on real files.
func BenchmarkLAFChunks(b *testing.B) {
	stores := []struct {
		name string
		make func() FS
	}{
		{"mem", func() FS { return NewMemFS() }},
		{"os", func() FS {
			fs, err := NewOSFS(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return fs
		}},
	}
	for _, st := range stores {
		for _, l := range lafLayouts {
			for _, dir := range []string{"write", "read"} {
				b.Run(st.name+"/"+l.name+"/"+dir, func(b *testing.B) {
					laf, chunks, buf := lafBenchSetup(b, st.make(), l)
					defer laf.Close()
					if _, err := laf.WriteChunks(chunks, buf); err != nil {
						b.Fatal(err)
					}
					op := laf.ReadChunks
					if dir == "write" {
						op = laf.WriteChunks
					}
					b.SetBytes(int64(len(buf)) * elemBytes)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := op(chunks, buf); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
