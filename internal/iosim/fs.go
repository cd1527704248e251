// Package iosim implements the parallel I/O subsystem of the simulated
// machine: per-processor logical disks holding Local Array Files (LAFs),
// backed either by real OS files or by memory, with the request/byte
// accounting and the simulated timing model of Section 4 of the paper.
//
// Accounting conventions: trace.IOStats byte counts use the cost model's
// element size (sim.Config.ElemSize, 4 bytes for the paper's real*4
// arrays) even though the Go implementation stores float64 values in the
// files. The number of physical requests equals the number of
// discontiguous file regions touched, unless data sieving coalesces them.
//
// On-file format: a local array file is its elements back to back, each
// the eight bytes of its IEEE 754 bits in little-endian order, whatever
// the store (MemFS, OSFS) and any wrapper around it.
// Parity blocks, block checksums and checkpoint snapshots are computed
// over those bytes.
//
// On a little-endian host that image is the slab's own memory, so the
// plain path moves every element once: ReadChunks hands File.ReadAt a
// byte view of the destination slab and WriteChunks hands File.WriteAt a
// view of the source (floatBytes) — one copy on MemFS, one pread or
// pwrite on OSFS, and still plain ReadAt/WriteAt to anything in between.
// Two paths keep a buffer of their own, because they need bytes the
// caller's slab has no room for: the resilient read widens a run to
// checksum-block boundaries and verifies the blocks before it copies the
// run out, and data sieving reads the span covering its chunks. A
// big-endian host converts element by element instead (decode in place
// after a read, encode into an arena buffer before a write).
package iosim

import (
	"encoding/binary"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"github.com/ooc-hpf/passion/internal/bufpool"
)

// File is the backing store of one local array file.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Close() error
}

// FS creates and opens files for logical disks.
type FS interface {
	// Create makes (or truncates) a file.
	Create(name string) (File, error)
	// Open opens an existing file.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
}

// ---------------------------------------------------------------------------
// In-memory file system

// MemFS is an in-memory FS used by tests and fast simulations. It is safe
// for concurrent use by multiple processors as long as each file is used
// by one processor at a time (the LAF ownership model of the paper).
//
// Its handles behave like *os.File: Create and Open return a distinct
// handle each, Close is per handle, and a closed handle fails every
// operation with an error wrapping fs.ErrClosed. File storage is borrowed
// from the bufpool arena and goes back when the file is unlinked (Remove,
// or replaced by a Create of the same name) and its last handle is
// closed, whichever comes second; never under an open handle. A handle
// that is dropped without Close keeps the storage until the garbage
// collector takes both. Borrowed storage is never cleared up front: the
// file knows how far it has been written, the rest of its length reads as
// zeros, and Truncate costs nothing per byte it adds. The record behind
// a released file goes on a bounded free list (memFiles) for the next
// Create, of this store or another, so a served job's files cost one
// handle each.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// memFile is the file behind a name; memHandle is what callers hold.
type memFile struct {
	mu sync.Mutex
	// data is arena storage with arbitrary contents beyond written.
	// len(data) is the capacity reserved, at least size.
	data []byte
	// size is the file length; written <= size is the high-water mark of
	// the bytes stored so far. Bytes in [written, size) read as zeros.
	size, written int64
	// handles counts open handles; unlinked is set once no name refers to
	// the file. Both at rest release data and the record.
	handles  int
	unlinked bool
}

// memHandle is one Create's or Open's handle. Handles are never reused,
// so a closed one stays closed when its record is recycled for another
// file: every operation through it still fails with fs.ErrClosed.
type memHandle struct {
	f      *memFile
	closed bool // under f.mu
}

// maxMemFiles bounds the record free list: a served job holds P x
// arrays files at once (scale_phantom's are 64 x 3).
const maxMemFiles = 1024

// memFiles is the free list of released file records, bounded and
// mutex-guarded like oocarray's chunk lists, not a sync.Pool, whose
// collection-timed drops would make allocation counts irreproducible.
// Unlike a slab header, a recycled record is out of reach of every
// handle that still points at it (they are all closed), so recycling
// stays on under bufpool's checker.
var memFiles struct {
	mu   sync.Mutex
	free []*memFile
}

// newMemFile returns an empty, linked file record with one handle open,
// recycled when the free list has one.
func newMemFile() *memFile {
	memFiles.mu.Lock()
	k := len(memFiles.free)
	if k == 0 {
		memFiles.mu.Unlock()
		return &memFile{handles: 1}
	}
	f := memFiles.free[k-1]
	memFiles.free[k-1] = nil
	memFiles.free = memFiles.free[:k-1]
	memFiles.mu.Unlock()
	// A closed handle of the record's last file may still lock it, so it
	// is re-armed field by field under its lock, never overwritten whole.
	f.mu.Lock()
	f.size, f.written, f.handles, f.unlinked = 0, 0, 1, false
	f.mu.Unlock()
	return f
}

// putMemFile offers a released record (no name, no handle, no data) to
// the free list.
func putMemFile(f *memFile) {
	memFiles.mu.Lock()
	if len(memFiles.free) < maxMemFiles {
		memFiles.free = append(memFiles.free, f)
	}
	memFiles.mu.Unlock()
}

// Create makes or truncates the named file.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if old := fs.files[name]; old != nil {
		old.unlink()
	}
	f := newMemFile()
	fs.files[name] = f
	return &memHandle{f: f}, nil
}

// Open opens an existing file.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("iosim: open %s: %w", name, iofs.ErrNotExist)
	}
	f.mu.Lock()
	f.handles++
	f.mu.Unlock()
	return &memHandle{f: f}, nil
}

// Names returns the names of all files currently in the file system, in
// unspecified order. Tests use it to assert that failed runs clean up.
func (fs *MemFS) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	return names
}

// Remove deletes the named file. Open handles keep working on the
// unlinked file, as they do on an OS file.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("iosim: remove %s: %w", name, iofs.ErrNotExist)
	}
	delete(fs.files, name)
	f.unlink()
	return nil
}

// unlink records that no name refers to the file anymore.
func (f *memFile) unlink() {
	f.mu.Lock()
	f.unlinked = true
	dead := f.releaseIfDead()
	f.mu.Unlock()
	if dead {
		putMemFile(f)
	}
}

// releaseIfDead returns the storage to the arena once the file can no
// longer be reached: no name and no open handle. It reports whether the
// record is free for another file, which the caller hands to putMemFile
// once it has unlocked f.mu. Called with f.mu held.
func (f *memFile) releaseIfDead() bool {
	if !f.unlinked || f.handles != 0 {
		return false
	}
	bufpool.PutBytes(f.data)
	f.data = nil
	return true
}

// reserve makes room for n bytes, moving the written prefix when the
// storage has to grow. Growth at least doubles, so an append-only file
// costs O(bytes appended) in copies and not O(bytes × writes). Called
// with f.mu held.
func (f *memFile) reserve(n int64) {
	if n <= int64(len(f.data)) {
		return
	}
	grown := bufpool.GetBytes(int(max(n, 2*int64(len(f.data)))))
	grown = grown[:cap(grown)]
	copy(grown, f.data[:f.written])
	bufpool.PutBytes(f.data)
	f.data = grown
}

// use locks the file for one operation through h, refusing a closed
// handle. The caller unlocks f.mu when err is nil.
func (h *memHandle) use(op string) (*memFile, error) {
	f := h.f
	f.mu.Lock()
	if h.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("iosim: %s: %w", op, iofs.ErrClosed)
	}
	return f, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	f, err := h.use("read")
	if err != nil {
		return 0, err
	}
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("iosim: negative offset %d", off)
	}
	if off >= f.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), f.size-off))
	stored := 0
	if off < f.written {
		stored = copy(p[:n], f.data[off:f.written])
	}
	clear(p[stored:n])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	f, err := h.use("write")
	if err != nil {
		return 0, err
	}
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("iosim: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil // like pwrite, an empty write does not extend the file
	}
	end := off + int64(len(p))
	f.reserve(end)
	if off > f.written {
		// The gap this write skips over must read as zeros.
		clear(f.data[f.written:off])
	}
	copy(f.data[off:end], p)
	f.written = max(f.written, end)
	f.size = max(f.size, end)
	return len(p), nil
}

func (h *memHandle) Truncate(size int64) error {
	f, err := h.use("truncate")
	if err != nil {
		return err
	}
	defer f.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("iosim: negative truncate size %d", size)
	}
	f.reserve(size)
	f.size = size
	f.written = min(f.written, size)
	return nil
}

// Size returns the file length (see FileSize); a closed handle's is 0.
func (h *memHandle) Size() int64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.closed {
		return 0
	}
	return h.f.size
}

// Close releases the handle; closing it again is harmless.
func (h *memHandle) Close() error {
	f := h.f
	f.mu.Lock()
	dead := false
	if !h.closed {
		h.closed = true
		f.handles--
		dead = f.releaseIfDead()
	}
	f.mu.Unlock()
	if dead {
		putMemFile(f)
	}
	return nil
}

// FileSize reports the current length of an open file when its handle
// can tell: MemFS handles and OS files.
// Wrappers that hide the method report false, and callers fall back to
// reading until EOF.
func FileSize(f File) (int64, bool) {
	switch f := f.(type) {
	case interface{ Size() int64 }:
		return f.Size(), true
	case *os.File:
		if st, err := f.Stat(); err == nil {
			return st.Size(), true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// OS file system

// OSFS stores local array files under a root directory on the real file
// system, making the out-of-core execution genuinely out of core.
type OSFS struct {
	root string
}

// NewOSFS returns an FS rooted at dir, creating it if necessary.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("iosim: %w", err)
	}
	return &OSFS{root: dir}, nil
}

func (fs *OSFS) path(name string) string {
	return filepath.Join(fs.root, filepath.Clean(name))
}

// Create makes or truncates the named file.
func (fs *OSFS) Create(name string) (File, error) {
	p := fs.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	return os.Create(p)
}

// Open opens an existing file.
func (fs *OSFS) Open(name string) (File, error) {
	return os.OpenFile(fs.path(name), os.O_RDWR, 0)
}

// Remove deletes the named file.
func (fs *OSFS) Remove(name string) error {
	return os.Remove(fs.path(name))
}

// Names returns the names (relative to the root, slash-separated) of all
// regular files currently in the file system, in unspecified order. The
// serving layer's journal and work stores enumerate their segments and
// leftover attempt files with it.
func (fs *OSFS) Names() []string {
	var names []string
	filepath.WalkDir(fs.root, func(p string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil //nolint:nilerr // enumeration is best-effort
		}
		if rel, err := filepath.Rel(fs.root, p); err == nil {
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	return names
}

// ---------------------------------------------------------------------------
// Element encoding

const elemBytes = 8 // on-file storage size of one float64

// FileElemBytes is the on-file storage size of one element, exported for
// the layers that reason about physical file bytes rather than cost-model
// bytes (the parity stripe geometry and its cost closed forms).
const FileElemBytes = elemBytes

// littleEndianHost is true when a float64 in memory already is its
// on-file image (little-endian IEEE 754 bits), so slabs move between
// memory and files as views and the codec below is a copy.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes returns the memory of fl as bytes, without copying. Every
// bit pattern survives, NaN payloads included: nothing is loaded as a
// float.
func floatBytes(fl []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fl))), len(fl)*elemBytes)
}

// encode stores the on-file image of src in dst, element by element: the
// big-endian half of fileImage.
func encode(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*elemBytes:], math.Float64bits(v))
	}
}

// decode loads dst from its on-file image src. src may be dst's own
// memory (floatBytes(dst)): element i is read whole before it is stored.
func decode(dst []float64, src []byte) {
	if littleEndianHost {
		copy(floatBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*elemBytes:]))
	}
}

// fileImage returns the on-file bytes of src: src's own memory on a
// little-endian host, an encoded arena buffer (pooled is true; return it
// with bufpool.PutBytes) otherwise.
func fileImage(src []float64) (img []byte, pooled bool) {
	if littleEndianHost {
		return floatBytes(src), false
	}
	img = bufpool.GetBytes(len(src) * elemBytes)
	encode(img, src)
	return img, true
}

// ---------------------------------------------------------------------------
// Chunks

// Chunk is one contiguous run of elements in a local array file.
type Chunk struct {
	// Off is the element offset within the file.
	Off int64
	// Len is the run length in elements.
	Len int
}

// TotalLen returns the number of elements covered by chunks.
func TotalLen(chunks []Chunk) int {
	n := 0
	for _, c := range chunks {
		n += c.Len
	}
	return n
}

// Span returns the single chunk covering everything from the first to the
// last element referenced by chunks.
func Span(chunks []Chunk) Chunk {
	if len(chunks) == 0 {
		return Chunk{}
	}
	lo := chunks[0].Off
	hi := chunks[0].Off + int64(chunks[0].Len)
	for _, c := range chunks[1:] {
		if c.Off < lo {
			lo = c.Off
		}
		if end := c.Off + int64(c.Len); end > hi {
			hi = end
		}
	}
	return Chunk{Off: lo, Len: int(hi - lo)}
}
