// Package oocarray implements the out-of-core array runtime of the paper
// (the PASSION-style services the compiled node programs call): each
// processor's Out-of-core Local Array (OCLA) lives in a Local Array File,
// and computation proceeds over In-Core Local Array (ICLA) slabs that fit
// in node memory. The package provides slab geometry for strip-mining
// along either dimension, sectioned reads/writes, optional data sieving,
// a prefetching slab reader, and redistribution between distributions.
package oocarray

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/sim"
)

// Dim selects the strip-mining direction of a slab decomposition.
type Dim int

const (
	// ByColumn cuts the local array into slabs of whole columns
	// (Figure 11(I) of the paper).
	ByColumn Dim = iota
	// ByRow cuts the local array into slabs of whole rows
	// (Figure 11(II)).
	ByRow
)

// String returns the paper's name for the slab direction.
func (d Dim) String() string {
	switch d {
	case ByColumn:
		return "column-slab"
	case ByRow:
		return "row-slab"
	default:
		return fmt.Sprintf("Dim(%d)", int(d))
	}
}

// Options configures the runtime behaviour of an out-of-core array.
type Options struct {
	// Sieve enables PASSION-style data sieving: a discontiguous slab
	// transfer is performed as one request covering the whole span,
	// trading extra data volume for fewer requests.
	Sieve bool
	// Prefetch makes SlabReader overlap the fetch of the next slab with
	// the computation on the current one.
	Prefetch bool
	// WriteBehind makes output writes overlap computation through
	// SlabWriter (one outstanding write).
	WriteBehind bool
}

// Array is one processor's out-of-core local array: a column-major
// rows x cols local section of a distributed global array, stored in a
// local array file.
//
// An Array can be kept and made again: Create and Open (re)attach it to
// a processor's share of an array, so a caller that runs the same plan
// over and over (the executor's rank state) makes none of it after the
// first run, and keeps the spare headers and chunk list the array grew.
type Array struct {
	dmap  *dist.Array
	proc  int
	rows  int
	cols  int
	laf   iosim.LAF
	clock *sim.Clock
	opts  Options
	// chunkScratch backs sectionChunks between calls. Safe because the
	// array belongs to one rank goroutine and every caller consumes the
	// chunk list before issuing another sectioned transfer (the prefetch
	// overlap is simulated, not concurrent). It comes from chunkLists on
	// the first sectioned transfer and goes back on Close.
	chunkScratch []iosim.Chunk
	// spares holds recycled ICLA headers (Data nil) for the next section
	// read or slab to reuse, so a slab loop allocates no header per slab.
	spares  [MaxSpares]*ICLA
	nspares int
	// inflight is the buffer a sectioned read has taken from the arena
	// and not yet handed to its caller. A fail-stop kill that lands
	// inside the read unwinds past readSectionRaw without returning it;
	// Close gives it back.
	inflight []float64
}

// FileName is the name of processor proc's local array file of the global
// array named array: "<array>.p<proc>.laf", the one spelling every
// creator, reader and remover of the file uses (and the one package
// parity parses to group a file with its peers).
func FileName(array string, proc int) string {
	return array + ".p" + strconv.Itoa(proc) + ".laf"
}

// Share is one processor's share of a distributed two-dimensional array:
// the mapping, the rank, the local section's shape and the local array
// file's name. A caller that makes the same arrays run after run computes
// the shares once.
type Share struct {
	Map        *dist.Array
	Proc       int
	Rows, Cols int
	File       string
}

// ShareOf is processor proc's share of dmap, which must be
// two-dimensional.
func ShareOf(dmap *dist.Array, proc int) (Share, error) {
	if len(dmap.Dims) != 2 {
		return Share{}, fmt.Errorf("oocarray: %s is %d-dimensional; only 2-D arrays are supported", dmap.Name, len(dmap.Dims))
	}
	shape := dmap.LocalShape(proc)
	return Share{Map: dmap, Proc: proc, Rows: shape[0], Cols: shape[1], File: FileName(dmap.Name, proc)}, nil
}

// New creates the out-of-core local array of processor proc for the global
// mapping dmap, backed by a fresh local array file on disk. clock may be
// nil, in which case no simulated time is charged (statistics still
// accumulate through the disk). The mapping must be two-dimensional.
func New(disk *iosim.Disk, dmap *dist.Array, proc int, clock *sim.Clock, opts Options) (*Array, error) {
	return attach(disk, dmap, proc, clock, opts, (*Array).Create)
}

// Open attaches to the existing local array file of processor proc (the
// resume path): like New, but the file must already exist and its
// contents are preserved.
func Open(disk *iosim.Disk, dmap *dist.Array, proc int, clock *sim.Clock, opts Options) (*Array, error) {
	return attach(disk, dmap, proc, clock, opts, (*Array).Open)
}

func attach(disk *iosim.Disk, dmap *dist.Array, proc int, clock *sim.Clock, opts Options,
	how func(*Array, *iosim.Disk, Share, *sim.Clock, Options) error) (*Array, error) {
	sh, err := ShareOf(dmap, proc)
	if err != nil {
		return nil, err
	}
	a := new(Array)
	if err := how(a, disk, sh, clock, opts); err != nil {
		return nil, err
	}
	return a, nil
}

// Create makes a the local array of share sh, backed by a fresh local
// array file on disk: the one way New makes an array, and the way a kept
// array, closed, is made again. Its spare headers and chunk list carry
// over; nothing else of what it was does.
func (a *Array) Create(disk *iosim.Disk, sh Share, clock *sim.Clock, opts Options) error {
	a.arm(sh, clock, opts)
	return a.laf.Create(disk, sh.File, int64(sh.Rows)*int64(sh.Cols))
}

// Open is Create for an existing local array file, whose contents are
// preserved (the resume path).
func (a *Array) Open(disk *iosim.Disk, sh Share, clock *sim.Clock, opts Options) error {
	a.arm(sh, clock, opts)
	return a.laf.Open(disk, sh.File, int64(sh.Rows)*int64(sh.Cols))
}

func (a *Array) arm(sh Share, clock *sim.Clock, opts Options) {
	a.dmap, a.proc, a.rows, a.cols = sh.Map, sh.Proc, sh.Rows, sh.Cols
	a.clock, a.opts = clock, opts
}

// Close releases the local array file handle (the file itself remains),
// the buffer of a read that never returned and the chunk list.
func (a *Array) Close() error {
	bufpool.PutF64(a.inflight)
	a.inflight = nil
	putChunks(a.chunkScratch)
	a.chunkScratch = nil
	return a.laf.Close()
}

// maxChunkLists bounds the chunk-list free list (a served job holds
// P x arrays lists at once; scale_phantom's is 64 x 3), and
// maxChunkListCap the size of a list worth keeping.
const (
	maxChunkLists   = 256
	maxChunkListCap = 1 << 12
)

// chunkLists is the free list behind every Array's chunkScratch, so a
// job's arrays start from chunk lists an earlier job grew. It is bounded
// and mutex-guarded like bufpool's class lists, not a sync.Pool, whose
// collection-timed drops would make allocation counts irreproducible.
var chunkLists struct {
	mu   sync.Mutex
	free [][]iosim.Chunk
}

func getChunks() []iosim.Chunk {
	chunkLists.mu.Lock()
	defer chunkLists.mu.Unlock()
	k := len(chunkLists.free)
	if k == 0 {
		return nil
	}
	c := chunkLists.free[k-1]
	chunkLists.free[k-1] = nil
	chunkLists.free = chunkLists.free[:k-1]
	return c
}

func putChunks(c []iosim.Chunk) {
	if cap(c) == 0 || cap(c) > maxChunkListCap {
		return
	}
	chunkLists.mu.Lock()
	if len(chunkLists.free) < maxChunkLists {
		chunkLists.free = append(chunkLists.free, c[:0])
	}
	chunkLists.mu.Unlock()
}

// Name returns the global array name.
func (a *Array) Name() string { return a.dmap.Name }

// Dist returns the global mapping.
func (a *Array) Dist() *dist.Array { return a.dmap }

// Proc returns the owning processor's rank.
func (a *Array) Proc() int { return a.proc }

// LocalRows and LocalCols return the local section's shape.
func (a *Array) LocalRows() int { return a.rows }

// LocalCols returns the number of local columns.
func (a *Array) LocalCols() int { return a.cols }

// LocalElems returns the number of elements in the local section.
func (a *Array) LocalElems() int { return a.rows * a.cols }

// Options returns the configured runtime options.
func (a *Array) Options() Options { return a.opts }

// GlobalIndex translates local indices (li, lj) to global (gi, gj),
// honoring multi-dimensional processor grids.
func (a *Array) GlobalIndex(li, lj int) (gi, gj int) {
	gi = a.dmap.Dims[0].ToGlobal(a.dmap.ProcCoord(a.proc, 0), li)
	gj = a.dmap.Dims[1].ToGlobal(a.dmap.ProcCoord(a.proc, 1), lj)
	return gi, gj
}

// charge applies a simulated duration to the processor clock, if
// attached. Span recording happens at the disk layer (the slab span's
// interval is exactly the charge the caller applies here); kind is kept
// for the collective I/O layer's Charge callback signature.
func (a *Array) charge(kind string, seconds float64) {
	if a.clock == nil {
		return
	}
	a.clock.Advance(seconds)
}

// collioSide exposes the array to the collective I/O layer.
func (a *Array) collioSide() collio.Side {
	return collio.Side{
		Map:    a.dmap,
		LAF:    &a.laf,
		Rank:   a.proc,
		Rows:   a.rows,
		Cols:   a.cols,
		Charge: a.charge,
	}
}

// ---------------------------------------------------------------------------
// Slab geometry

// Slabbing describes a strip-mining of the local array: Count slabs of
// Width columns (ByColumn) or Width rows (ByRow); the final slab may be
// narrower.
type Slabbing struct {
	Dim   Dim
	Width int
	Count int
}

// Slabbing computes the slab decomposition of the local array along dim
// given a memory budget of memElems elements for this array's ICLA. The
// width is at least 1 even if a single column/row exceeds the budget.
func (a *Array) Slabbing(dim Dim, memElems int) Slabbing {
	extent, other := a.cols, a.rows
	if dim == ByRow {
		extent, other = a.rows, a.cols
	}
	if extent == 0 || other == 0 {
		return Slabbing{Dim: dim, Width: 1, Count: 0}
	}
	w := memElems / other
	if w < 1 {
		w = 1
	}
	if w > extent {
		w = extent
	}
	return Slabbing{Dim: dim, Width: w, Count: (extent + w - 1) / w}
}

// SlabRatio computes the decomposition whose slab is the given fraction of
// the OCLA (the paper's "slab ratio": ratio 1 means the whole local array
// in one slab, 1/8 means eight slabs).
func (a *Array) SlabRatio(dim Dim, ratio float64) Slabbing {
	if ratio <= 0 || ratio > 1 {
		panic(fmt.Sprintf("oocarray: slab ratio %g outside (0,1]", ratio))
	}
	mem := int(float64(a.LocalElems()) * ratio)
	return a.Slabbing(dim, mem)
}

// slabBounds returns the [start, start+size) extent of slab index in the
// strip-mined dimension.
func (s Slabbing) slabBounds(index, extent int) (start, size int) {
	start = index * s.Width
	size = s.Width
	if start+size > extent {
		size = extent - start
	}
	return start, size
}

// ---------------------------------------------------------------------------
// ICLA

// ICLA is an in-core local array: a column-major section of the local
// array, positioned at (RowOff, ColOff).
type ICLA struct {
	RowOff, ColOff int
	Rows, Cols     int
	Data           []float64
}

// At returns element (i, j) of the section (section-relative indices).
func (s *ICLA) At(i, j int) float64 { return s.Data[j*s.Rows+i] }

// Set assigns element (i, j) of the section.
func (s *ICLA) Set(i, j int, v float64) { s.Data[j*s.Rows+i] = v }

// Col returns column j of the section, aliasing its storage.
func (s *ICLA) Col(j int) []float64 { return s.Data[j*s.Rows : (j+1)*s.Rows] }

// ---------------------------------------------------------------------------
// Sectioned I/O

// sectionChunks maps a (r0, c0, h, w) section of the column-major local
// array to file chunks: one chunk per column, or a single chunk when the
// section spans all rows.
func (a *Array) sectionChunks(r0, c0, h, w int) ([]iosim.Chunk, error) {
	if r0 < 0 || c0 < 0 || h < 0 || w < 0 || r0+h > a.rows || c0+w > a.cols {
		return nil, fmt.Errorf("oocarray: %s.p%d: section (%d,%d)+%dx%d outside local %dx%d",
			a.Name(), a.proc, r0, c0, h, w, a.rows, a.cols)
	}
	if h == 0 || w == 0 {
		return nil, nil
	}
	if a.chunkScratch == nil {
		a.chunkScratch = getChunks()
	}
	chunks := a.chunkScratch[:0]
	if h == a.rows {
		chunks = append(chunks, iosim.Chunk{Off: int64(c0) * int64(a.rows), Len: h * w})
	} else {
		for j := 0; j < w; j++ {
			chunks = append(chunks, iosim.Chunk{Off: int64(c0+j)*int64(a.rows) + int64(r0), Len: h})
		}
	}
	a.chunkScratch = chunks
	return chunks, nil
}

// ReadSection fetches the h x w section at (r0, c0) from the local array
// file, charging the processor clock.
func (a *Array) ReadSection(r0, c0, h, w int) (*ICLA, error) {
	icla, sec, err := a.readSectionRaw(r0, c0, h, w)
	if err != nil {
		return nil, err
	}
	a.charge("io-read", sec)
	return icla, nil
}

// readSectionRaw fetches a section and returns the simulated duration
// without charging the clock (the prefetch pipeline applies it itself).
func (a *Array) readSectionRaw(r0, c0, h, w int) (*ICLA, float64, error) {
	chunks, err := a.sectionChunks(r0, c0, h, w)
	if err != nil {
		return nil, 0, err
	}
	icla := a.header(r0, c0, h, w)
	a.inflight = icla.Data
	// The pooled buffer must start out zeroed like the make it replaced:
	// phantom-mode reads leave it untouched, and sieved reads only touch
	// the chunked positions.
	clear(icla.Data)
	var sec float64
	if len(chunks) > 0 {
		if a.opts.Sieve {
			sec, err = collio.AggregateRead(&a.laf, chunks, icla.Data)
		} else {
			sec, err = a.laf.ReadChunks(chunks, icla.Data)
		}
	}
	a.inflight = nil
	if err != nil {
		a.Recycle(icla)
		return nil, 0, err
	}
	return icla, sec, nil
}

// WriteSection stores the section back to the local array file, charging
// the processor clock.
func (a *Array) WriteSection(s *ICLA) error {
	sec, err := a.writeSectionRaw(s)
	if err != nil {
		return err
	}
	a.charge("io-write", sec)
	return nil
}

// writeSectionRaw stores a section and returns the simulated duration
// without charging the clock (the write-behind pipeline applies it
// itself). The data reaches the file immediately; only the simulated
// completion is deferred. With sieving enabled, discontiguous sections
// use a read-modify-write cycle over the covering span (two requests).
func (a *Array) writeSectionRaw(s *ICLA) (float64, error) {
	chunks, err := a.sectionChunks(s.RowOff, s.ColOff, s.Rows, s.Cols)
	if err != nil {
		return 0, err
	}
	if len(chunks) == 0 {
		return 0, nil
	}
	if a.opts.Sieve {
		return collio.AggregateWrite(&a.laf, chunks, s.Data)
	}
	return a.laf.WriteChunks(chunks, s.Data)
}

// ReadSlab fetches slab index of the given decomposition.
func (a *Array) ReadSlab(s Slabbing, index int) (*ICLA, error) {
	icla, sec, err := a.readSlabRaw(s, index)
	if err != nil {
		return nil, err
	}
	a.charge("io-read", sec)
	return icla, nil
}

func (a *Array) readSlabRaw(s Slabbing, index int) (*ICLA, float64, error) {
	if index < 0 || index >= s.Count {
		return nil, 0, fmt.Errorf("oocarray: slab index %d outside [0,%d)", index, s.Count)
	}
	if s.Dim == ByColumn {
		start, size := s.slabBounds(index, a.cols)
		return a.readSectionRaw(0, start, a.rows, size)
	}
	start, size := s.slabBounds(index, a.rows)
	return a.readSectionRaw(start, 0, size, a.cols)
}

// ReadHalo fetches column slab index widened by left columns before it
// and right after it: the ones inside the local block in one section
// read, the ones beyond it from ghosts, which holds the left columns just
// below the block, then the right ones just above it, column-major.
func (a *Array) ReadHalo(s Slabbing, index, left, right int, ghosts []float64) (*ICLA, error) {
	if s.Dim != ByColumn || index < 0 || index >= s.Count || len(ghosts) != a.rows*(left+right) {
		return nil, fmt.Errorf("oocarray: %s.p%d: halo read of slab %d of %d needs column slabs and %dx%d ghosts",
			a.Name(), a.proc, index, s.Count, a.rows, left+right)
	}
	start, size := s.slabBounds(index, a.cols)
	c0, c1 := max(start-left, 0), min(start+size+right, a.cols)
	sec, err := a.ReadSection(0, c0, a.rows, c1-c0)
	if err != nil {
		return nil, err
	}
	h := a.header(0, start-left, a.rows, size+left+right)
	copy(h.Data, ghosts[(left-(c0-h.ColOff))*a.rows:left*a.rows])
	copy(h.Data[(c0-h.ColOff)*a.rows:], sec.Data)
	copy(h.Data[(c1-h.ColOff)*a.rows:], ghosts[left*a.rows:])
	a.Recycle(sec)
	return h, nil
}

// NewSlab allocates a zeroed in-core slab positioned like slab index of
// the decomposition, for computing results before WriteSection.
func (a *Array) NewSlab(s Slabbing, index int) (*ICLA, error) {
	if index < 0 || index >= s.Count {
		return nil, fmt.Errorf("oocarray: slab index %d outside [0,%d)", index, s.Count)
	}
	if s.Dim == ByColumn {
		start, size := s.slabBounds(index, a.cols)
		return a.NewSection(0, start, a.rows, size), nil
	}
	start, size := s.slabBounds(index, a.rows)
	return a.NewSection(start, 0, size, a.cols), nil
}

// NewSection returns a zeroed h x w in-core section at (r0, c0) with
// arena storage and, when the array has one, a recycled header; Recycle
// gives both back.
func (a *Array) NewSection(r0, c0, h, w int) *ICLA {
	icla := a.header(r0, c0, h, w)
	clear(icla.Data)
	return icla
}

// MaxSpares bounds an array's recycled headers: a slab loop holds at
// most a delivered slab, a prefetched one and a halo read's section at
// once.
const MaxSpares = 4

// header returns an h x w section header at (r0, c0) with arena storage
// of arbitrary contents, reusing a recycled header when there is one.
func (a *Array) header(r0, c0, h, w int) *ICLA {
	var s *ICLA
	if a.nspares > 0 {
		a.nspares--
		s = a.spares[a.nspares]
		a.spares[a.nspares] = nil
	} else {
		s = new(ICLA)
	}
	*s = ICLA{RowOff: r0, ColOff: c0, Rows: h, Cols: w, Data: bufpool.GetF64(h * w)}
	return s
}

// Recycle returns a slab's storage to the buffer arena once the caller
// is done with it (typically after WriteSection), and its header to the
// array for the next read to reuse. The slab must not be used afterwards;
// nil, and a slab already recycled, are no-ops. While bufpool's checker
// is on no header is reused, so a use after Recycle still fails on the
// nil Data rather than reading another slab.
func (a *Array) Recycle(s *ICLA) {
	if s == nil || s.Data == nil {
		return
	}
	bufpool.PutF64(s.Data)
	s.Data = nil
	if a.nspares < MaxSpares && !bufpool.Checked() {
		a.spares[a.nspares] = s
		a.nspares++
	}
}

// ---------------------------------------------------------------------------
// Initialization and verification (unaccounted I/O)

// FillGlobal initializes the local array file with f evaluated at global
// indices. This models the initial data distribution, whose cost the
// paper amortizes away; it is therefore not accounted.
func (a *Array) FillGlobal(f func(gi, gj int) float64) error {
	if a.rows == 0 || a.cols == 0 {
		return nil
	}
	quiet := a.laf.Quiet()
	// Every element is written before the column is: arena contents are fine.
	buf := bufpool.GetF64(a.rows)
	defer bufpool.PutF64(buf)
	// The local-to-global translation is separable: one shared table per
	// dimension instead of a GlobalIndex per element.
	rowG, colG := a.dmap.LocalGlobals(a.proc)
	for lj, gj := range colG {
		for li, gi := range rowG {
			buf[li] = f(int(gi), int(gj))
		}
		chunk := []iosim.Chunk{{Off: int64(lj) * int64(a.rows), Len: a.rows}}
		if _, err := quiet.WriteChunks(chunk, buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadLocal returns the whole local section as an in-core matrix without
// accounting (verification helper).
func (a *Array) ReadLocal() (*matrix.Matrix, error) {
	m := matrix.New(a.rows, a.cols)
	if a.rows*a.cols == 0 {
		return m, nil
	}
	chunk := []iosim.Chunk{{Off: 0, Len: a.rows * a.cols}}
	if _, err := a.laf.Quiet().ReadChunks(chunk, m.Data); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteLocal overwrites the whole local section from an in-core matrix
// without accounting (initialization helper).
func (a *Array) WriteLocal(m *matrix.Matrix) error {
	if m.Rows != a.rows || m.Cols != a.cols {
		return fmt.Errorf("oocarray: WriteLocal shape %dx%d into local %dx%d", m.Rows, m.Cols, a.rows, a.cols)
	}
	if a.rows*a.cols == 0 {
		return nil
	}
	chunk := []iosim.Chunk{{Off: 0, Len: a.rows * a.cols}}
	_, err := a.laf.Quiet().WriteChunks(chunk, m.Data)
	return err
}
