package iosim

import (
	"bytes"
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
	// given physical byte length.
	Created(name string, bytes int64)
	// Opened registers a pre-existing file of the given physical byte
	// length whose parity state is unknown (e.g. after a restart); the
	// hook marks its group for a parity resync.
	Opened(name string, bytes int64)
	// Removed unregisters a deleted file.
	Removed(name string)
	// Protects reports whether the named file is under parity.
	Protects(name string) bool
	// WriteThrough performs the data write via write() under the parity
	// layer's stripe lock and applies the read-modify-write parity
	// update for the buf bytes written at byteOff. In phantom mode buf
	// is nil: no data moves, but the parity traffic is still accounted.
	// It returns the simulated seconds of the data write plus the
	// parity maintenance.
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
// expression, so the same bits.
func (d *Disk) ioTime(requests int, bytes int64) float64 {
	return float64(requests)*d.cfg.DiskRequestOverhead + float64(bytes)/d.bw
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
	if d.res == nil {
		return f()
	}
	_, err := d.retry(op, name, false, f)
	return err
}

// retry is the disk's one retry loop: it runs f until it succeeds, fails
// non-transiently, or exhausts the policy's budget, recording a retry
// span per transient failure and a give-up span when the budget is
// spent. A clocked loop (a data transfer) backs off with capped
// exponential waits, returned in simulated seconds, and records a fault
// span for a non-transient failure; an unclocked one (metadata) waits
// nothing and records no fault.
func (d *Disk) retry(op, name string, clocked bool, f func() error) (float64, error) {
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
			wait = pol.backoff(attempt)
			retrySec += wait
		}
		d.Record(&trace.Span{Kind: trace.KindRetry, Dur: wait})
	}
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
	var f File
	err := d.retryMeta("create", name, func() error {
		var err error
		f, err = d.fs.Create(name)
		return err
	})
	if err != nil {
		return err
	}
	if !d.phantom {
		if err := d.retryMeta("truncate", name, func() error { return f.Truncate(elems * elemBytes) }); err != nil {
			f.Close()
			return err
		}
		if d.res != nil {
			// The file is all zeros now; seed its checksums so every block
			// verifies from the first read on.
			d.res.seedZero(name, elems*elemBytes)
		}
	}
	if d.parity != nil {
		d.parity.Created(name, elems*elemBytes)
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
			f, err = d.fs.Open(name)
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
		d.parity.Opened(name, elems*elemBytes)
	}
	l.file = f
	return nil
}

// RemoveLAF deletes a local array file by name.
func (d *Disk) RemoveLAF(name string) error {
	err := d.retryMeta("remove", name, func() error { return d.fs.Remove(name) })
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
		err := l.rawRead(view, c.Off*elemBytes)
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
	f, err := d.fs.Open(l.name)
	if err != nil {
		return sec, fmt.Errorf("iosim: reopen %s after reconstruction: %w", l.name, err)
	}
	h := l.home()
	h.file.Close()
	h.file = f
	return sec, nil
}

// rawRead reads exactly len(buf) bytes at off.
func (l *LAF) rawRead(buf []byte, off int64) error {
	n, err := l.file.ReadAt(buf, off)
	if err != nil && !(err == io.EOF && n == len(buf)) {
		return fmt.Errorf("iosim: read %s @%d: %w", l.name, off/elemBytes, err)
	}
	if n != len(buf) {
		return fmt.Errorf("iosim: short read on %s @%d: %d of %d bytes", l.name, off/elemBytes, n, len(buf))
	}
	return nil
}

// readRunResilient widens the run to checksum-block boundaries, reads it,
// verifies every touched block against the stored CRC32s, and retries
// transient failures and detected corruption with capped exponential
// backoff. The backoff is returned in simulated seconds.
func (l *LAF) readRunResilient(c Chunk, dst []float64) (float64, error) {
	res := l.disk.res
	byteOff := c.Off * elemBytes
	byteLen := int64(c.Len) * elemBytes
	lo := byteOff / ChecksumBlockBytes * ChecksumBlockBytes
	hi := (byteOff + byteLen + ChecksumBlockBytes - 1) / ChecksumBlockBytes * ChecksumBlockBytes
	if max := l.elems * elemBytes; hi > max {
		hi = max
	}
	buf := bufpool.GetBytes(int(hi - lo))
	defer bufpool.PutBytes(buf)
	retrySec, err := l.disk.retry("read", l.name, true, func() error {
		if err := l.rawRead(buf, lo); err != nil {
			return err
		}
		if block, ok := res.verifyBlocks(l.name, lo, buf); !ok {
			l.disk.Record(&trace.Span{Kind: trace.KindCorruption})
			return &CorruptionError{File: l.name, Block: block}
		}
		return nil
	})
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
		if _, err := l.file.WriteAt(buf, byteOff); err != nil {
			return 0, fmt.Errorf("iosim: write %s @%d: %w", l.name, byteOff/elemBytes, err)
		}
		return 0, nil
	}
	return l.writeRunResilient(buf, byteOff)
}

// writeRunResilient writes the encoded run with retries and refreshes the
// checksum store for every touched block.
func (l *LAF) writeRunResilient(buf []byte, byteOff int64) (float64, error) {
	return l.disk.retry("write", l.name, true, func() error {
		err := l.rawWrite(buf, byteOff)
		if err == nil {
			l.updateChecksums(byteOff, buf)
		}
		return err
	})
}

// rawWrite writes exactly len(buf) bytes at off.
func (l *LAF) rawWrite(buf []byte, off int64) error {
	n, err := l.file.WriteAt(buf, off)
	if err != nil {
		return fmt.Errorf("iosim: write %s @%d: %w", l.name, off/elemBytes, err)
	}
	if n != len(buf) {
		return fmt.Errorf("iosim: short write on %s @%d: %d of %d bytes", l.name, off/elemBytes, n, len(buf))
	}
	return nil
}

// updateChecksums refreshes the stored CRC32 of every block touched by a
// successful write of buf at byteOff. Interior blocks hash the written
// bytes directly; partially covered edge blocks are read back and
// double-read for stability, so a corrupted read-back cannot poison the
// store — at worst the block's checksum is dropped and that block goes
// unverified until its next full write.
func (l *LAF) updateChecksums(byteOff int64, buf []byte) {
	res := l.disk.res
	fileBytes := l.elems * elemBytes
	end := byteOff + int64(len(buf))
	first := byteOff / ChecksumBlockBytes
	last := (end - 1) / ChecksumBlockBytes
	for b := first; b <= last; b++ {
		bLo := b * ChecksumBlockBytes
		bHi := bLo + ChecksumBlockBytes
		if bHi > fileBytes {
			bHi = fileBytes
		}
		if bLo >= byteOff && bHi <= end {
			res.set(l.name, b, crc32.ChecksumIEEE(buf[bLo-byteOff:bHi-byteOff]))
			continue
		}
		crc, ok := l.stableEdgeCRC(bLo, bHi, byteOff, buf)
		if !ok {
			res.del(l.name, b)
			continue
		}
		res.set(l.name, b, crc)
	}
}

// stableEdgeCRC computes the checksum of a partially written block: the
// file bytes [bLo, bHi) with the freshly written range [wOff,
// wOff+len(wBuf)) taken from memory. The block is read twice and accepted
// only when the reads agree outside the written range (the written bytes
// come from memory, so their read-back stability is irrelevant) —
// defending the checksum store against transient read-path corruption.
// The CRC is built incrementally over stable head, written middle and
// stable tail, so no overlay copy is materialized; the two read-back
// buffers come from the arena.
func (l *LAF) stableEdgeCRC(bLo, bHi, wOff int64, wBuf []byte) (uint32, bool) {
	oLo, oHi := wOff, wOff+int64(len(wBuf))
	if oLo < bLo {
		oLo = bLo
	}
	if oHi > bHi {
		oHi = bHi
	}
	head, tail := oLo-bLo, oHi-bLo
	attempts := l.disk.res.Policy.MaxRetries + 1
	if attempts < 2 {
		attempts = 2
	}
	a := bufpool.GetBytes(int(bHi - bLo))
	b := bufpool.GetBytes(int(bHi - bLo))
	defer bufpool.PutBytes(a)
	defer bufpool.PutBytes(b)
	for i := 0; i < attempts; i++ {
		if l.rawRead(a, bLo) != nil || l.rawRead(b, bLo) != nil {
			continue
		}
		if !bytes.Equal(a[:head], b[:head]) || !bytes.Equal(a[tail:], b[tail:]) {
			continue
		}
		crc := crc32.Update(0, crc32.IEEETable, a[:head])
		crc = crc32.Update(crc, crc32.IEEETable, wBuf[oLo-wOff:oHi-wOff])
		crc = crc32.Update(crc, crc32.IEEETable, a[tail:])
		return crc, true
	}
	return 0, false
}
