package iosim

import (
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"strconv"
	"strings"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// ParityHook maintains cross-disk redundancy for protected files and
// reconstructs them after permanent faults (implemented by the
// internal/parity package and attached per disk by the executor). The
// disk layer consults it on every file lifecycle event and write, and
// escalates to Recover when an operation fails with a non-transient
// error — a lost disk, an injected permanent fault, or an exhausted
// retry budget.
type ParityHook interface {
	// Created registers a freshly created (zero-filled) file of the
	// given physical byte length, created through d, its rank's disk.
	Created(d *Disk, name string, bytes int64)
	// Opened registers a pre-existing file of the given physical byte
	// length whose parity state is unknown (e.g. after a restart); the
	// hook marks its group for a parity resync.
	Opened(d *Disk, name string, bytes int64)
	// Removed unregisters a deleted file.
	Removed(name string)
	// Protects reports whether the named file is under parity.
	Protects(name string) bool
	// WriteThrough performs the data write via write() under the parity
	// layer's stripe lock and applies the read-modify-write parity
	// update for the buf bytes written at byteOff. In phantom mode buf
	// is nil: no data moves, but the parity traffic is still accounted.
	// It returns the simulated seconds of the data write plus the
	// parity maintenance. A file the layer never registered (Created or
	// Opened) is an error, and write is not called.
	WriteThrough(d *Disk, name string, byteOff int64, n int64, buf []byte, write func() (float64, error)) (float64, error)
	// Recover reconstructs the named file from the surviving disks
	// after cause (a non-transient failure), returning the simulated
	// seconds the reconstruction cost. The caller then reopens the
	// replacement file and retries the failed operation once.
	Recover(d *Disk, name string, cause error) (float64, error)
}

// Disk is one processor's logical disk: a view of the shared I/O subsystem
// holding that processor's local array files. All cost accounting happens
// here; the mapping of the logical disk onto physical disks is the
// machine's business (sim.Config's bandwidth model).
type Disk struct {
	fs  FS
	cfg sim.Config
	// bw is cfg.EffectiveDiskBandwidth(), evaluated once: cfg is fixed
	// when the disk is made, and every transfer divides by it.
	bw      float64
	stats   *trace.IOStats
	res     *Resilience
	parity  ParityHook
	phantom bool

	// tr, clock and label drive span tracing: every span Record folds
	// into stats is also emitted, stamped with the simulated time and
	// labelled with the sink's name, so spans and counters reconcile
	// exactly.
	tr    *trace.RankTracer
	clock *sim.Clock
	label string
	// deferred marks transfers issued by an overlap pipeline (prefetch,
	// write-behind) whose cost reaches the clock later as io-wait.
	deferred bool
	// opHook, when set, runs at the entry of every chunk operation. The
	// executor wires it to the processor's fail-stop operation counter so
	// injected kills can land between I/O requests, not only between
	// messages. Nil on plain runs: a single branch on the hot path.
	opHook func()
	// chaos, when set, is the rank's fault source (SetChaos). Nil on
	// plain runs: a single branch per file operation.
	chaos *Chaos
}

// NewDisk returns a logical disk for one processor. stats may be nil, in
// which case accounting is skipped.
func NewDisk(fs FS, cfg sim.Config, stats *trace.IOStats) *Disk {
	return NewResilientDisk(fs, cfg, stats, nil)
}

// NewResilientDisk returns a logical disk whose transfers retry transient
// faults with capped exponential backoff (charged to the simulated clock
// through the returned durations) and verify block checksums on reads.
// res may be nil, which degrades to NewDisk behaviour.
func NewResilientDisk(fs FS, cfg sim.Config, stats *trace.IOStats, res *Resilience) *Disk {
	d := new(Disk)
	d.Reset(fs, cfg, stats, res)
	return d
}

// Reset re-arms d as NewResilientDisk(fs, cfg, stats, res) makes it: no
// parity, tracer, operation hook or phantom mode, and nothing of what it
// served before. A caller that keeps its disks from run to run (the
// executor's rank state) re-arms them with it.
func (d *Disk) Reset(fs FS, cfg sim.Config, stats *trace.IOStats, res *Resilience) {
	*d = Disk{fs: fs, cfg: cfg, bw: cfg.EffectiveDiskBandwidth(), stats: stats, res: res}
}

// ioTime is cfg.IOTime with the bandwidth evaluated once: the same
// expression, so the same bits. The product is rounded on its own
// (float64(x*y)) so no architecture fuses it with the sum.
func (d *Disk) ioTime(requests int, bytes int64) float64 {
	return float64(float64(requests)*d.cfg.DiskRequestOverhead) + float64(bytes)/d.bw
}

// Resilience returns the attached retry/checksum layer, which may be nil.
func (d *Disk) Resilience() *Resilience { return d.res }

// SetParity attaches (or, with nil, detaches) the redundancy layer.
func (d *Disk) SetParity(h ParityHook) { d.parity = h }

// Parity returns the attached redundancy layer, which may be nil.
func (d *Disk) Parity() ParityHook { return d.parity }

// Config returns the disk's machine model (the parity layer uses it to
// charge its traffic with the same timing rules as everything else).
func (d *Disk) Config() sim.Config { return d.cfg }

// retryMeta runs a metadata operation (create/open/remove/truncate) under
// the retry policy. Metadata retries are counted but not charged to the
// simulated clock: the cost model only times data transfers.
func (d *Disk) retryMeta(op, name string, f func() error) error {
	_, err := d.Retry(op, name, false, f)
	return err
}

// Retry is the disk's one retry loop, which the parity layer's file
// operations go through too: it runs f until it succeeds, fails
// non-transiently, or exhausts the policy's budget, recording a retry
// span per transient failure and a give-up span when the budget is
// spent. A clocked loop (a data transfer) backs off with capped
// exponential waits, returned in simulated seconds, and records a fault
// span for a non-transient failure; an unclocked one (metadata) waits
// nothing and records no fault. A disk without a resilience layer runs
// f once.
func (d *Disk) Retry(op, name string, clocked bool, f func() error) (float64, error) {
	if d.res == nil {
		return 0, f()
	}
	pol := d.res.Policy
	var retrySec float64
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil {
			return retrySec, nil
		}
		if !IsTransient(err) {
			if clocked {
				d.Record(&trace.Span{Kind: trace.KindFault})
			}
			return retrySec, err
		}
		if attempt >= pol.MaxRetries {
			d.Record(&trace.Span{Kind: trace.KindGiveUp})
			return retrySec, &ExhaustedError{Op: op, File: name, Attempts: attempt + 1, Last: err}
		}
		var wait float64
		if clocked {
			wait = pol.Backoff(attempt)
			retrySec += wait
		}
		d.Record(&trace.Span{Kind: trace.KindRetry, Dur: wait})
	}
}

// SetChaos attaches (or, with nil, detaches) the rank's fault source:
// every file operation through d is numbered and decided on it. A rank
// gives all its disks the one source.
func (d *Disk) SetChaos(c *Chaos) { d.chaos = c }

// Create creates (or truncates) the named file on the disk's store.
// Create, Open, remove, ReadAt, WriteAt and Truncate are the disk's file
// operations, each one the file operation its fault source numbers; the
// parity layer and the checkpoint writer issue theirs through the acting
// rank's disk too.
//
// A created file is empty, so on a disk with a resilience layer Create
// forgets every checksum the name had.
func (d *Disk) Create(name string) (File, error) {
	if d.chaos != nil {
		if err := d.chaos.meta("create", name); err != nil {
			return nil, err
		}
	}
	f, err := d.fs.Create(name)
	if err == nil && d.res != nil {
		d.res.dropFile(name)
	}
	return f, err
}

// CreateZeros creates (or truncates) the named file and sizes it to
// bytes zero bytes, each step under the retry policy, and seeds the
// file's checksums so that every block verifies from the first read on:
// the one way a local array file or a parity file is made. In phantom
// mode the file is created empty and nothing is seeded.
func (d *Disk) CreateZeros(name string, bytes int64) (File, error) {
	var f File
	err := d.retryMeta("create", name, func() error {
		var err error
		f, err = d.Create(name)
		return err
	})
	if err != nil || d.phantom {
		return f, err
	}
	if err := d.retryMeta("truncate", name, func() error { return d.Truncate(f, name, bytes) }); err != nil {
		f.Close()
		return nil, err
	}
	if d.res != nil {
		d.res.seedZero(name, bytes)
	}
	return f, nil
}

// Open opens the named file on the disk's store.
func (d *Disk) Open(name string) (File, error) {
	if d.chaos != nil {
		if err := d.chaos.meta("open", name); err != nil {
			return nil, err
		}
	}
	return d.fs.Open(name)
}

// remove deletes the named file from the disk's store.
func (d *Disk) remove(name string) error {
	if d.chaos != nil {
		if err := d.chaos.meta("remove", name); err != nil {
			return err
		}
	}
	return d.fs.Remove(name)
}

// ReadAt reads f, the disk's file name, at off.
func (d *Disk) ReadAt(f File, name string, p []byte, off int64) (int, error) {
	if d.chaos != nil {
		return d.chaos.readAt(f, name, p, off)
	}
	return f.ReadAt(p, off)
}

// WriteAt writes f, the disk's file name, at off.
func (d *Disk) WriteAt(f File, name string, p []byte, off int64) (int, error) {
	if d.chaos != nil {
		return d.chaos.writeAt(f, name, p, off)
	}
	return f.WriteAt(p, off)
}

// Truncate sets the length of f, the disk's file name.
func (d *Disk) Truncate(f File, name string, size int64) error {
	if d.chaos != nil {
		if err := d.chaos.meta("truncate", name); err != nil {
			return err
		}
	}
	return f.Truncate(size)
}

// SetPhantom toggles accounting-only mode: operations count slab
// transfers, requests, bytes and simulated time exactly as usual but skip
// the actual movement of file data (buffers are left untouched). It makes
// paper-scale parameter sweeps cheap; correctness is established by
// real-mode runs at smaller scales.
func (d *Disk) SetPhantom(on bool) { d.phantom = on }

// SetOpHook installs (or, with nil, removes) the per-chunk-operation
// hook; see the field comment.
func (d *Disk) SetOpHook(h func()) { d.opHook = h }

// stepOp runs the per-operation hook, if any.
func (d *Disk) stepOp() {
	if d.opHook != nil {
		d.opHook()
	}
}

// Phantom reports whether accounting-only mode is active.
func (d *Disk) Phantom() bool { return d.phantom }

// SetTracer attaches the span sink for this disk's operations: spans are
// stamped against clock and labelled with the statistics sink's name
// (the array name in the executor). Either argument nil disables
// tracing.
func (d *Disk) SetTracer(rt *trace.RankTracer, clock *sim.Clock, label string) {
	if rt == nil || clock == nil {
		d.tr, d.clock, d.label = nil, nil, ""
		return
	}
	d.tr, d.clock, d.label = rt, clock, label
}

// SetDeferred marks subsequently emitted transfer spans as overlapped:
// issued now, but charged to the clock later by the caller's pipeline.
func (d *Disk) SetDeferred(on bool) { d.deferred = on }

// Record is the disk's one accounting call: it folds *s into the
// statistics sink and, with a tracer attached, emits it labelled with the
// sink's name and stamped with the current simulated time. A disk
// without a sink (Quiet views, verification I/O, checkpoint snapshots)
// neither counts nor traces. The parity layer records through the disk
// that carries the protected write.
func (d *Disk) Record(s *trace.Span) {
	if d.stats == nil {
		return
	}
	if d.tr != nil {
		s.Label, s.Start = d.label, d.clock.Seconds()
	}
	d.stats.Record(d.tr, s)
}

// RecordCross folds *s into the statistics of another rank (sink, which
// may be nil) and, when this disk also traces, emits it attributed to
// that rank: the parity layer's recovery traffic, charged to the rank
// whose file was rebuilt. A disk that does no accounting (a quiet view,
// a verification read) charges no one, so the traffic of a
// reconstruction it triggers is as unaccounted as its own transfers.
func (d *Disk) RecordCross(rank int, sink *trace.ProcStats, s *trace.Span) {
	if sink == nil || d.stats == nil {
		return
	}
	sink.Record(nil, s)
	if d.tr != nil {
		s.Start = d.clock.Seconds()
		d.tr.Cross(rank, *s)
	}
}

// IOWait records the stall of an overlap pipeline that waited, from
// start to the current simulated time, for a transfer issued earlier. It
// has no counter, and is gated like every other span of the disk.
func (d *Disk) IOWait(start float64) {
	if d.stats == nil || d.tr == nil {
		return
	}
	if now := d.clock.Seconds(); now > start {
		d.tr.Emit(trace.Span{Kind: trace.KindIOWait, Label: d.label, Start: start, Dur: now - start})
	}
}

// LAF is a Local Array File: the on-disk image of one processor's
// out-of-core local array, a flat sequence of float64 elements.
type LAF struct {
	disk *Disk
	file File
	name string
	// elems is the file length in elements.
	elems int64
}

// viewFile is what a quiet view's LAF holds (QuietView): its source
// LAF's handle, whatever that is when a transfer runs, so a handle a
// disk loss or a reconstruction swaps is swapped for the view too.
type viewFile struct{ src *LAF }

func (v viewFile) ReadAt(p []byte, off int64) (int, error)  { return v.src.file.ReadAt(p, off) }
func (v viewFile) WriteAt(p []byte, off int64) (int, error) { return v.src.file.WriteAt(p, off) }
func (v viewFile) Truncate(size int64) error                { return v.src.file.Truncate(size) }
func (v viewFile) Close() error                             { return nil }

// home is the LAF whose handle l's transfers go through: l, or the
// source of the quiet view l is.
func (l *LAF) home() *LAF {
	if v, ok := l.file.(viewFile); ok {
		return v.src
	}
	return l
}

// DiskOf extracts the logical disk (processor rank) from a file name
// following the repo's .p<d>. naming convention (LAFs, parity files,
// checkpoint manifests and snapshots, collective-I/O scratch). It returns
// -1 for names without a rank marker.
func DiskOf(name string) int {
	for rest := name; ; {
		i := strings.Index(rest, ".p")
		if i < 0 {
			return -1
		}
		rest = rest[i+2:]
		if j := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' }); j > 0 && rest[j] == '.' {
			d, _ := strconv.Atoi(rest[:j])
			return d
		}
	}
}

// CreateLAF creates a local array file holding elems zero elements.
func (d *Disk) CreateLAF(name string, elems int64) (*LAF, error) {
	l := new(LAF)
	if err := l.Create(d, name, elems); err != nil {
		return nil, err
	}
	return l, nil
}

// Create makes l a fresh local array file on d holding elems zero
// elements, as CreateLAF does: the one way a local array file is made,
// whether l is new or kept from an earlier run (and closed). On failure
// l holds no file.
func (l *LAF) Create(d *Disk, name string, elems int64) error {
	*l = LAF{disk: d, file: closedFile, name: name, elems: elems}
	if elems < 0 {
		return fmt.Errorf("iosim: CreateLAF %s: negative size %d", name, elems)
	}
	f, err := d.CreateZeros(name, elems*elemBytes)
	if err != nil {
		return err
	}
	if d.parity != nil {
		d.parity.Created(d, name, elems*elemBytes)
	}
	l.file = f
	return nil
}

// OpenLAF opens an existing local array file of the given length. When the
// file is parity-protected and the open fails permanently (the disk that
// held it is gone), the file is reconstructed from the surviving disks and
// the open is retried once; the reconstruction time is charged to the
// disk's statistics sink.
func (d *Disk) OpenLAF(name string, elems int64) (*LAF, error) {
	l := new(LAF)
	if err := l.Open(d, name, elems); err != nil {
		return nil, err
	}
	return l, nil
}

// Open attaches l to the existing local array file name on d, as OpenLAF
// does, whether l is new or kept from an earlier run (and closed). On
// failure l holds no file.
func (l *LAF) Open(d *Disk, name string, elems int64) error {
	*l = LAF{disk: d, file: closedFile, name: name, elems: elems}
	var f File
	open := func() error {
		return d.retryMeta("open", name, func() error {
			var err error
			f, err = d.Open(name)
			return err
		})
	}
	err := open()
	if err != nil && !IsTransient(err) && d.parity != nil && d.parity.Protects(name) {
		sec, rerr := d.parity.Recover(d, name, err)
		// Charged to IOStats.Seconds without a clock advance, so the span
		// is off the synchronous timeline (Deferred).
		d.Record(&trace.Span{Kind: trace.KindOpenRecover, Dur: sec, Deferred: true})
		if rerr != nil {
			return rerr
		}
		err = open()
	}
	if err != nil {
		return err
	}
	if d.parity != nil {
		d.parity.Opened(d, name, elems*elemBytes)
	}
	l.file = f
	return nil
}

// RemoveLAF deletes a local array file by name.
func (d *Disk) RemoveLAF(name string) error {
	err := d.retryMeta("remove", name, func() error { return d.remove(name) })
	if err == nil {
		if d.res != nil {
			d.res.dropFile(name)
		}
		if d.parity != nil {
			d.parity.Removed(name)
		}
	}
	return err
}

// Name returns the file name.
func (l *LAF) Name() string { return l.name }

// Disk returns the logical disk the file lives on. The collective I/O
// layer uses it to create scratch files that share the array's cost
// accounting.
func (l *LAF) Disk() *Disk { return l.disk }

// QuietView holds a quiet view of a local array file: the same file,
// through the same handle, on a copy of its disk that performs no
// statistics accounting and records no span (its returned durations
// should be discarded). Initialization and
// verification I/O, which the paper's measurements exclude, go through
// one. A caller that keeps a QuietView beside its LAF takes the view
// without allocating; its zero value is ready.
type QuietView struct {
	disk Disk
	laf  LAF
}

// Of re-arms v as a quiet view of l, as l's disk stands now, and returns
// it; the view is valid until the next Of.
func (v *QuietView) Of(l *LAF) *LAF {
	v.disk = *l.disk
	v.disk.stats = nil
	v.laf = LAF{disk: &v.disk, file: viewFile{l.home()}, name: l.name, elems: l.elems}
	return &v.laf
}

// Elems returns the file length in elements.
func (l *LAF) Elems() int64 { return l.elems }

// memHandle is the MemFS handle l's transfers go through, or nil when
// the file is of another store (or wrapped, lost or closed).
func (l *LAF) memHandle() *memHandle {
	h, _ := l.home().file.(*memHandle)
	return h
}

// Share makes l's file read img, the whole file's elements, instead of
// storage of its own, when l is a MemFS file with nothing written on a
// disk that moves data, on a host whose float64 memory is the file's
// image: the file gives its storage back to the arena and reads img
// below its written mark, so a transfer from img's own elements to their
// own offsets moves the mark and copies nothing, and any other write or
// a truncate first copies what the file has written into new storage.
// img must not change while a file shares it. Share reports whether the
// file took img; nothing else is changed when it did not.
func (l *LAF) Share(img []float64) bool {
	if int64(len(img)) != l.elems || !littleEndianHost || l.disk.phantom {
		return false
	}
	h := l.memHandle()
	return h != nil && h.share(floatBytes(img))
}

// Close releases the underlying file; closing it again, or closing an
// LAF whose Create or Open failed, does nothing. The LAF keeps no
// reference to the file: every transfer through it fails with
// fs.ErrClosed until Create or Open attaches it to a file again.
func (l *LAF) Close() error {
	f := l.file
	l.file = closedFile
	return f.Close()
}

// Lose models the loss of the logical disk holding l: the handle is
// closed, the backing file removed, and every transfer through l (and
// its quiet views) fails with ErrDiskLost until a reconstruction, Create
// or Open attaches l to a file again.
func (l *LAF) Lose() {
	l.file.Close()
	l.file = lostFile
	l.disk.fs.Remove(l.name) // best effort: the content is gone either way
}

// deadFile is what an LAF holds when it has no file to transfer
// through: every transfer fails with err.
type deadFile struct{ err error }

var (
	// closedFile is what an LAF holds when it holds no file.
	closedFile File = deadFile{fmt.Errorf("iosim: local array file: %w", iofs.ErrClosed)}
	// lostFile is what an LAF holds once its disk is lost (Lose).
	lostFile File = deadFile{fmt.Errorf("iosim: local array file: %w", ErrDiskLost)}
)

func (f deadFile) ReadAt([]byte, int64) (int, error)  { return 0, f.err }
func (f deadFile) WriteAt([]byte, int64) (int, error) { return 0, f.err }
func (f deadFile) Truncate(int64) error               { return f.err }
func (deadFile) Close() error                         { return nil }

// Discard stands in for a file of a lost disk that is still written to:
// the parity store gives a lost disk's parity files this handle until
// their host rebuilds them. Every transfer through it succeeds and moves
// nothing (a read delivers zeros, a write stores nothing), and the
// verified transfers neither check nor record a checksum through it. A
// transfer through it is still a file operation of the disk that issues
// it, numbered and drawn on its fault source and retried like any other,
// so the issuing rank's operations do not depend on whether the disk was
// lost before or after them in host time.
var Discard File = discardFile{}

type discardFile struct{}

func (discardFile) ReadAt(p []byte, _ int64) (int, error)  { clear(p); return len(p), nil }
func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Truncate(int64) error                   { return nil }
func (discardFile) Close() error                           { return nil }

// checkChunks validates that every chunk lies within the file.
func (l *LAF) checkChunks(chunks []Chunk, buf []float64) error {
	need := TotalLen(chunks)
	if need > len(buf) {
		return fmt.Errorf("iosim: %s: chunks cover %d elements, buffer holds %d", l.name, need, len(buf))
	}
	for _, c := range chunks {
		if c.Off < 0 || c.Len < 0 || c.Off+int64(c.Len) > l.elems {
			return fmt.Errorf("iosim: %s: chunk [%d,+%d) outside file of %d elements", l.name, c.Off, c.Len, l.elems)
		}
	}
	return nil
}

// modelBytes converts an element count into cost-model bytes.
func (l *LAF) modelBytes(elems int) int64 {
	return int64(elems) * int64(l.disk.cfg.ElemSize)
}

// ReadChunks reads the given chunks into dst (packed back to back, in
// chunk order) as one slab fetch. It returns the simulated duration of the
// operation; the caller decides how to apply it to the processor clock
// (immediately, or overlapped by a prefetch pipeline).
func (l *LAF) ReadChunks(chunks []Chunk, dst []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, dst); err != nil {
		return 0, err
	}
	pos := 0
	var retrySec float64
	for _, c := range chunks {
		sec, err := l.readRun(c, dst[pos:pos+c.Len])
		retrySec += sec
		if err != nil {
			return 0, err
		}
		pos += c.Len
	}
	elems := TotalLen(chunks)
	seconds := l.disk.ioTime(len(chunks), l.modelBytes(elems)) + retrySec
	for _, c := range chunks {
		l.disk.Record(&trace.Span{Kind: trace.KindReadReq, Bytes: l.modelBytes(c.Len)})
	}
	l.disk.Record(&trace.Span{Kind: trace.KindSlabRead, Dur: seconds,
		Deferred: l.disk.deferred, N: int64(len(chunks)), Bytes: l.modelBytes(elems)})
	return seconds, nil
}

// ReadChunksSieved reads the single contiguous span covering all chunks in
// one request (PASSION-style data sieving), then extracts the requested
// chunks into dst. It trades extra data volume for a single request.
func (l *LAF) ReadChunksSieved(chunks []Chunk, dst []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, dst); err != nil {
		return 0, err
	}
	if len(chunks) == 0 {
		return 0, nil
	}
	span := Span(chunks)
	if span.Off < 0 || span.Off+int64(span.Len) > l.elems {
		return 0, fmt.Errorf("iosim: %s: sieve span [%d,+%d) outside file", l.name, span.Off, span.Len)
	}
	buf := bufpool.GetF64(span.Len)
	defer bufpool.PutF64(buf)
	if l.disk.phantom {
		// The pooled buffer carries stale contents; phantom mode relied on
		// make's zeroing for the untouched span.
		clear(buf)
	}
	retrySec, err := l.readRun(span, buf)
	if err != nil {
		return 0, err
	}
	pos := 0
	for _, c := range chunks {
		copy(dst[pos:pos+c.Len], buf[c.Off-span.Off:])
		pos += c.Len
	}
	spanBytes := l.modelBytes(span.Len)
	seconds := l.disk.ioTime(1, spanBytes) + retrySec
	l.disk.Record(&trace.Span{Kind: trace.KindReadReq, Bytes: spanBytes})
	l.disk.Record(&trace.Span{Kind: trace.KindSlabRead, Dur: seconds,
		Deferred: l.disk.deferred, N: 1, Bytes: spanBytes})
	return seconds, nil
}

// WriteChunksSieved writes the chunks using PASSION-style write data
// sieving: the covering span is read, the chunks are scattered into it,
// and the span is written back — a read-modify-write cycle of exactly two
// requests regardless of how fragmented the chunks are, at the price of
// moving the whole span twice.
func (l *LAF) WriteChunksSieved(chunks []Chunk, src []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, src); err != nil {
		return 0, err
	}
	if len(chunks) == 0 {
		return 0, nil
	}
	span := Span(chunks)
	buf := bufpool.GetF64(span.Len)
	defer bufpool.PutF64(buf)
	if l.disk.phantom {
		clear(buf)
	}
	retrySec, err := l.readRun(span, buf)
	if err != nil {
		return 0, err
	}
	pos := 0
	for _, c := range chunks {
		copy(buf[c.Off-span.Off:c.Off-span.Off+int64(c.Len)], src[pos:pos+c.Len])
		pos += c.Len
	}
	wSec, err := l.writeRun(span, buf)
	retrySec += wSec
	if err != nil {
		return 0, err
	}
	spanBytes := l.modelBytes(span.Len)
	seconds := l.disk.ioTime(2, 2*spanBytes) + retrySec
	l.disk.Record(&trace.Span{Kind: trace.KindReadReq, Bytes: spanBytes})
	l.disk.Record(&trace.Span{Kind: trace.KindWriteReq, Bytes: spanBytes})
	l.disk.Record(&trace.Span{Kind: trace.KindSlabWrite, Dur: seconds,
		Deferred: l.disk.deferred, N: 2, Bytes: 2 * spanBytes})
	return seconds, nil
}

// WriteChunks writes src (packed in chunk order) to the given chunks as
// one slab store and returns the simulated duration.
func (l *LAF) WriteChunks(chunks []Chunk, src []float64) (float64, error) {
	l.disk.stepOp()
	if err := l.checkChunks(chunks, src); err != nil {
		return 0, err
	}
	pos := 0
	var retrySec float64
	for _, c := range chunks {
		sec, err := l.writeRun(c, src[pos:pos+c.Len])
		retrySec += sec
		if err != nil {
			return 0, err
		}
		pos += c.Len
	}
	elems := TotalLen(chunks)
	seconds := l.disk.ioTime(len(chunks), l.modelBytes(elems)) + retrySec
	for _, c := range chunks {
		l.disk.Record(&trace.Span{Kind: trace.KindWriteReq, Bytes: l.modelBytes(c.Len)})
	}
	l.disk.Record(&trace.Span{Kind: trace.KindSlabWrite, Dur: seconds,
		Deferred: l.disk.deferred, N: int64(len(chunks)), Bytes: l.modelBytes(elems)})
	return seconds, nil
}

// ReadAll reads the whole file into a new slice as a single request. It is
// a convenience for verification and redistribution.
func (l *LAF) ReadAll() ([]float64, float64, error) {
	dst := make([]float64, l.elems)
	sec, err := l.ReadChunks([]Chunk{{Off: 0, Len: int(l.elems)}}, dst)
	return dst, sec, err
}

// WriteAll overwrites the whole file from src as a single request.
func (l *LAF) WriteAll(src []float64) (float64, error) {
	if int64(len(src)) != l.elems {
		return 0, fmt.Errorf("iosim: %s: WriteAll with %d elements into file of %d", l.name, len(src), l.elems)
	}
	return l.WriteChunks([]Chunk{{Off: 0, Len: int(l.elems)}}, src)
}

// readRun fetches one contiguous run. It returns the simulated seconds
// spent in retry backoff and recovery (zero on the plain path); the caller
// folds them into the operation's duration so the clock is charged for
// recovery. When the run fails non-transiently on a parity-protected file
// (lost disk, permanent fault, exhausted retries), the file is
// reconstructed from the surviving disks and the run retried once.
func (l *LAF) readRun(c Chunk, dst []float64) (float64, error) {
	sec, err := l.readRunOnce(c, dst)
	if err == nil || IsTransient(err) || !l.protected() {
		return sec, err
	}
	rsec, rerr := l.escalate(err)
	sec += rsec
	if rerr != nil {
		return sec, rerr
	}
	sec2, err := l.readRunOnce(c, dst)
	return sec + sec2, err
}

// readRunOnce is one attempt at a contiguous run, without escalation.
func (l *LAF) readRunOnce(c Chunk, dst []float64) (float64, error) {
	if l.disk.phantom || c.Len == 0 {
		return 0, nil
	}
	if l.disk.res == nil {
		// The file's bytes land in dst itself; only a big-endian host has
		// anything left to do, in place.
		view := floatBytes(dst)
		err := l.disk.readExact(l.file, l.name, view, c.Off*elemBytes)
		if err == nil && !littleEndianHost {
			decode(dst, view)
		}
		return 0, err
	}
	return l.readRunResilient(c, dst)
}

// protected reports whether this file is under the parity layer.
func (l *LAF) protected() bool {
	return l.disk.parity != nil && l.disk.parity.Protects(l.name)
}

// escalate reconstructs the file from the surviving disks after cause (a
// non-transient failure) and swaps in a handle to the replacement file,
// closing the one it replaces. The returned seconds cover the
// reconstruction traffic; the caller folds them into the failed
// operation's duration.
func (l *LAF) escalate(cause error) (float64, error) {
	d := l.disk
	sec, err := d.parity.Recover(d, l.name, cause)
	if err != nil {
		return sec, err
	}
	var f File
	err = d.retryMeta("open", l.name, func() error {
		var err error
		f, err = d.Open(l.name)
		return err
	})
	if err != nil {
		return sec, fmt.Errorf("iosim: reopen %s after reconstruction: %w", l.name, err)
	}
	h := l.home()
	h.file.Close()
	h.file = f
	return sec, nil
}

// readRunResilient widens the run to checksum-block boundaries and
// reads it through the disk's verified read.
func (l *LAF) readRunResilient(c Chunk, dst []float64) (float64, error) {
	byteOff := c.Off * elemBytes
	byteLen := int64(c.Len) * elemBytes
	lo := byteOff / ChecksumBlockBytes * ChecksumBlockBytes
	hi := (byteOff + byteLen + ChecksumBlockBytes - 1) / ChecksumBlockBytes * ChecksumBlockBytes
	if max := l.elems * elemBytes; hi > max {
		hi = max
	}
	buf := bufpool.GetBytes(int(hi - lo))
	defer bufpool.PutBytes(buf)
	retrySec, err := l.disk.ReadVerified(l.file, l.name, buf, lo)
	if err == nil {
		decode(dst, buf[byteOff-lo:byteOff-lo+byteLen])
	}
	return retrySec, err
}

// writeRun stores one contiguous run, returning simulated retry backoff
// (plus parity-maintenance and recovery time) like readRun. Writes to
// parity-protected files are routed through the parity layer's
// WriteThrough so the parity update happens atomically with the data
// write; a non-transient failure triggers reconstruction and one retry of
// the whole protected write.
func (l *LAF) writeRun(c Chunk, src []float64) (float64, error) {
	if c.Len == 0 {
		return 0, nil
	}
	d := l.disk
	byteOff := c.Off * elemBytes
	byteLen := int64(c.Len) * elemBytes
	// In phantom mode buf stays nil: nothing is stored, and WriteThrough
	// accounts the parity traffic without moving data or calling write.
	var buf []byte
	if !d.phantom {
		var pooled bool
		if buf, pooled = fileImage(src[:c.Len]); pooled {
			defer bufpool.PutBytes(buf)
		}
	}
	if l.protected() {
		write := func() (float64, error) { return l.writeRunOnce(buf, byteOff) }
		sec, err := d.parity.WriteThrough(d, l.name, byteOff, byteLen, buf, write)
		if err == nil || IsTransient(err) {
			return sec, err
		}
		rsec, rerr := l.escalate(err)
		sec += rsec
		if rerr != nil {
			return sec, rerr
		}
		sec2, err := d.parity.WriteThrough(d, l.name, byteOff, byteLen, buf, write)
		return sec + sec2, err
	}
	if d.phantom {
		return 0, nil
	}
	return l.writeRunOnce(buf, byteOff)
}

// writeRunOnce is one attempt at storing a run's on-file bytes, without
// parity or escalation.
func (l *LAF) writeRunOnce(buf []byte, byteOff int64) (float64, error) {
	if l.disk.res == nil {
		if _, err := l.disk.WriteAt(l.file, l.name, buf, byteOff); err != nil {
			return 0, fmt.Errorf("iosim: write %s @%d: %w", l.name, byteOff/elemBytes, err)
		}
		return 0, nil
	}
	return l.writeRunResilient(buf, byteOff)
}

// writeRunResilient writes the encoded run through the disk's checked
// write.
func (l *LAF) writeRunResilient(buf []byte, byteOff int64) (float64, error) {
	return l.disk.WriteChecked(l.file, l.name, buf, byteOff, l.elems*elemBytes)
}

// ReadVerified is the disk's one verified read, which local array files
// and parity files share: it reads len(buf) bytes of f, the disk's file
// name, at off under the retry policy and checks every checksum block
// buf covers against the resilience layer's table. A mismatch is a
// transient *CorruptionError, recorded as a corruption span and retried
// like any other transient fault; corruption at rest exhausts the budget.
// off must be block-aligned, and buf must end on a block boundary or at
// the end of the file. A block with no checksum, a disk without a
// resilience layer and a read of Discard check nothing. It returns the
// simulated seconds spent in backoff.
func (d *Disk) ReadVerified(f File, name string, buf []byte, off int64) (float64, error) {
	return d.Retry("read", name, true, func() error {
		if err := d.readExact(f, name, buf, off); err != nil {
			return err
		}
		if d.res == nil || f == Discard {
			return nil
		}
		if block, ok := d.res.verifyBlocks(name, off, buf); !ok {
			d.Record(&trace.Span{Kind: trace.KindCorruption})
			return &CorruptionError{File: name, Block: block}
		}
		return nil
	})
}

// WriteChecked is the disk's one checksummed write, the counterpart of
// ReadVerified: it writes buf to f, the disk's file name, at off under
// the retry policy and records the checksum of every block the write
// covers. size is the file's length in bytes, where its last block ends.
// A block the write covers only in part keeps bytes the write does not
// bring, so it is first read through ReadVerified, and its new checksum
// is that of the bytes read with buf laid over them; a read that fails
// fails the write, and a block that has no checksum is neither read nor
// given one. A disk without a resilience layer and a write to Discard
// record nothing. It returns the simulated seconds spent in backoff.
func (d *Disk) WriteChecked(f File, name string, buf []byte, off, size int64) (float64, error) {
	write := func() error { return d.writeExact(f, name, buf, off) }
	if d.res == nil || f == Discard {
		return d.Retry("write", name, true, write)
	}
	end := off + int64(len(buf))
	edge := [2]int64{off / ChecksumBlockBytes, (end - 1) / ChecksumBlockBytes}
	n := 2
	if edge[0] == edge[1] {
		n = 1
	}
	// blockOf is the byte range of block b, cut at the end of the file.
	blockOf := func(b int64) (int64, int64) {
		return b * ChecksumBlockBytes, min(b*ChecksumBlockBytes+ChecksumBlockBytes, size)
	}
	// read[i] marks the first (0) or the last (1) block when the write
	// covers it only in part and it has a checksum: its old bytes are read
	// verified into old, side by side, before the write, and hashed with
	// buf laid over them after it.
	var read [2]bool
	for i, b := range edge[:n] {
		lo, hi := blockOf(b)
		if lo < off || hi > end {
			_, read[i] = d.res.get(name, b)
		}
	}
	var old []byte
	if read[0] || read[1] {
		old = bufpool.GetBytes(2 * ChecksumBlockBytes)
		defer bufpool.PutBytes(old)
	}
	var sec float64
	for i, b := range edge[:n] {
		if !read[i] {
			continue
		}
		lo, hi := blockOf(b)
		rs, err := d.ReadVerified(f, name, old[i*ChecksumBlockBytes:][:hi-lo], lo)
		sec += rs
		if err != nil {
			return sec, err
		}
	}
	ws, err := d.Retry("write", name, true, write)
	sec += ws
	if err != nil {
		return sec, err
	}
	for b := edge[0]; b <= edge[1]; b++ {
		lo, hi := blockOf(b)
		if lo >= off && hi <= end {
			d.res.set(name, b, crc32.ChecksumIEEE(buf[lo-off:hi-off]))
			continue
		}
		i := 0
		if b != edge[0] {
			i = 1
		}
		if !read[i] {
			continue
		}
		block := old[i*ChecksumBlockBytes:][:hi-lo]
		wLo, wHi := max(lo, off), min(hi, end)
		copy(block[wLo-lo:wHi-lo], buf[wLo-off:wHi-off])
		d.res.set(name, b, crc32.ChecksumIEEE(block))
	}
	return sec, nil
}

// readExact reads exactly len(buf) bytes of f at off.
func (d *Disk) readExact(f File, name string, buf []byte, off int64) error {
	n, err := d.ReadAt(f, name, buf, off)
	if err != nil && !(err == io.EOF && n == len(buf)) {
		return fmt.Errorf("iosim: read %s @%d: %w", name, off/elemBytes, err)
	}
	if n != len(buf) {
		return fmt.Errorf("iosim: short read on %s @%d: %d of %d bytes", name, off/elemBytes, n, len(buf))
	}
	return nil
}

// writeExact writes exactly len(buf) bytes to f at off.
func (d *Disk) writeExact(f File, name string, buf []byte, off int64) error {
	n, err := d.WriteAt(f, name, buf, off)
	if err != nil {
		return fmt.Errorf("iosim: write %s @%d: %w", name, off/elemBytes, err)
	}
	if n != len(buf) {
		return fmt.Errorf("iosim: short write on %s @%d: %d of %d bytes", name, off/elemBytes, n, len(buf))
	}
	return nil
}
