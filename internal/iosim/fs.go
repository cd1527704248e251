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
package iosim

import (
	"encoding/binary"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
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
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

type memFile struct {
	mu   sync.Mutex
	data []byte
}

// Create makes or truncates the named file.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{}
	fs.files[name] = f
	return f, nil
}

// Open opens an existing file.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("iosim: open %s: %w", name, iofs.ErrNotExist)
	}
	return f, nil
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

// Remove deletes the named file.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("iosim: remove %s: %w", name, iofs.ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("iosim: negative offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("iosim: negative offset %d", off)
	}
	end := off + int64(len(p))
	if size := int64(len(f.data)); end > size {
		if end <= int64(cap(f.data)) {
			// The capacity may hold bytes a shrinking Truncate cut off;
			// the gap this write skips over must read as zeros.
			f.data = f.data[:end]
			if off > size {
				clear(f.data[size:off])
			}
		} else {
			// Grow geometrically, so an append-only file costs O(bytes
			// appended) in copies and not O(bytes × writes).
			grown := make([]byte, end, max(end, 2*int64(cap(f.data))))
			copy(grown, f.data)
			f.data = grown
		}
	}
	copy(f.data[off:end], p)
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("iosim: negative truncate size %d", size)
	}
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, f.data)
	f.data = grown
	return nil
}

func (f *memFile) Close() error { return nil }

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

func encode(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*elemBytes:], math.Float64bits(v))
	}
}

func decode(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*elemBytes:]))
	}
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

// Coalesce merges adjacent or overlapping chunks (after sorting by offset)
// and returns the minimal equivalent chunk list. It does not modify its
// argument.
func Coalesce(chunks []Chunk) []Chunk {
	if len(chunks) == 0 {
		return nil
	}
	sorted := make([]Chunk, len(chunks))
	copy(sorted, chunks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	out := []Chunk{sorted[0]}
	for _, c := range sorted[1:] {
		last := &out[len(out)-1]
		if c.Off <= last.Off+int64(last.Len) {
			end := c.Off + int64(c.Len)
			if end > last.Off+int64(last.Len) {
				last.Len = int(end - last.Off)
			}
			continue
		}
		out = append(out, c)
	}
	return out
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
