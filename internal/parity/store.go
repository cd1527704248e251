package parity

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Store is the shared parity state of one execution: which files are
// protected, their sizes, and the open handles of data and parity files.
// It implements iosim.ParityHook, so the executor attaches one Store to
// every rank's disks. A single mutex serializes parity read-modify-write
// cycles across ranks; because XOR deltas commute, the serialization
// order does not affect the final parity content, which keeps runs
// deterministic.
type Store struct {
	fs    iosim.FS
	cfg   sim.Config
	procs int
	res   *iosim.Resilience

	mu      sync.Mutex
	phantom bool
	bases   map[string]bool      // protected group base names
	files   map[string]*fileInfo // data file name -> registration
	members map[string]int       // base -> registered member count
	// memberBases mirrors the keys of members in sorted order, so
	// rebuild sweeps iterate groups deterministically without building
	// and sorting a slice per call (the per-rank end-of-run sweep is on
	// the allocation-gated hot path). It is backed by baseArr so runs
	// with few groups never allocate for it.
	memberBases []string
	baseArr     [8]string
	handles     map[string]iosim.File
	// dirty marks groups whose parity content cannot be trusted until a
	// full rebuild: files opened with unknown history, or members
	// removed while the group was still live.
	dirty map[string]bool
	// lostParity marks individual parity files that failed and await a
	// rebuild by their hosting rank.
	lostParity map[string]bool
	// lostDisks marks the ranks whose disk was lost (LoseDisk): the
	// parity files it hosts take no writes (degraded) until the rank's
	// own RebuildRank, the only other writer of its entry.
	lostDisks map[int]bool
	comm      map[int]*trace.ProcStats
	degraded  bool
}

type fileInfo struct {
	base  string
	rank  int
	bytes int64
}

// NewStore returns an empty parity store over the shared file system.
// res may be nil; when present, reconstructed file content is re-recorded
// in the checksum store so degraded reads keep verifying. Parity is only
// meaningful for procs >= 2 (with one disk there are no survivors); a
// store for procs < 2 protects nothing.
func NewStore(fs iosim.FS, cfg sim.Config, procs int, res *iosim.Resilience) *Store {
	return &Store{
		fs:         fs,
		cfg:        cfg,
		procs:      procs,
		res:        res,
		bases:      make(map[string]bool),
		files:      make(map[string]*fileInfo),
		members:    make(map[string]int),
		handles:    make(map[string]iosim.File),
		dirty:      make(map[string]bool),
		lostParity: make(map[string]bool),
		lostDisks:  make(map[int]bool),
		comm:       make(map[int]*trace.ProcStats),
	}
}

// SetPhantom switches the store to accounting-only mode: parity traffic
// is counted and timed but no parity files are created or written.
func (st *Store) SetPhantom(on bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.phantom = on
}

// Protect marks a group base name (a global array name) as
// parity-protected. Files named "<base>.p<rank>.laf" created or opened
// after this call are covered.
func (st *Store) Protect(base string) {
	if st.procs < 2 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bases[base] = true
}

// SetCommSink registers the statistics of one rank so the gather traffic
// of reconstructions of that rank's files is accounted in its
// communication counters.
func (st *Store) SetCommSink(rank int, c *trace.ProcStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.comm[rank] = c
}

// Degraded reports whether any recovery action ran (reconstruction,
// inline parity rebuild, or a parity write failure that left a parity
// file pending rebuild).
func (st *Store) Degraded() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.degraded
}

// NeedsRebuild reports whether rank must run RebuildRank in a parity
// sync: a group or parity file is out of sync, or the rank's own disk
// (not a peer's) was lost.
func (st *Store) NeedsRebuild(rank int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.dirty) > 0 || len(st.lostParity) > 0 || st.lostDisks[rank]
}

// LoseDisk records the loss of rank's logical disk: the store closes its
// handles on the disk's files, and every parity file the disk hosts is
// lost (see lostDisks) until RebuildRank(rank). The caller, rank itself,
// removes the files and fails its own handles (iosim.LAF.Lose).
func (st *Store) LoseDisk(rank int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, h := range st.handles {
		if iosim.DiskOf(name) == rank {
			h.Close()
			delete(st.handles, name)
		}
	}
	st.lostDisks[rank] = true
}

// MarkDirty flags a group's parity as out of sync, forcing a rebuild
// before reconstruction is allowed again.
func (st *Store) MarkDirty(base string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dirty[base] = true
	st.degraded = true
}

// ClearDirty marks every group and every failed parity file as back in
// sync. The executor calls it after a barrier that follows RebuildRank
// on every rank, so each rank saw the same NeedsRebuild answer before
// it.
func (st *Store) ClearDirty() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dirty = make(map[string]bool)
	clear(st.lostParity)
}

// Close releases every cached handle and removes the parity files of all
// still-registered groups from the backing store (end-of-run cleanup; the
// data files are the executor's to remove).
func (st *Store) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, h := range st.handles {
		h.Close()
		delete(st.handles, name)
	}
	if st.phantom {
		return
	}
	for base := range st.members {
		for p := 0; p < st.procs; p++ {
			st.fs.Remove(ParityFileName(base, p)) // best effort
		}
	}
}

// Attach registers a pre-existing protected file as a trusted member of
// its group without flagging the group dirty. The executor's offline
// rank-recovery pre-pass uses it: the failed attempt maintained parity
// write-through for every surviving file, so re-registering them under a
// fresh Store must not force a resync — a dirty group would refuse the
// very reconstruction the pre-pass exists to run. Unlike Opened, which
// must presume unknown history, Attach is only correct when the caller
// knows the parity on the backing store matches the file content.
func (st *Store) Attach(name string, bytes int64) {
	base, rank, ok := parseLAF(name)
	if !ok {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.bases[base] {
		return
	}
	if _, known := st.files[name]; !known {
		st.members[base]++
		st.noteBase(base)
		st.files[name] = &fileInfo{base: base, rank: rank, bytes: bytes}
	}
}

// Detach releases every cached handle but, unlike Close, leaves the
// parity files on the backing store. Transient stores (the recovery
// pre-pass) detach so the parity a later pass or the resumed attempt
// still needs survives them.
func (st *Store) Detach() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, h := range st.handles {
		h.Close()
		delete(st.handles, name)
	}
}

// Protects implements iosim.ParityHook.
func (st *Store) Protects(name string) bool {
	base, _, ok := parseLAF(name)
	if !ok {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bases[base]
}

// Created implements iosim.ParityHook: a protected file was freshly
// created, so its content is all zeros. The first member of a group also
// resets the group's parity files to empty (all-zero parity), which both
// initializes them and discards any stale parity a previous execution
// left on the shared file system.
func (st *Store) Created(name string, bytes int64) {
	base, rank, ok := parseLAF(name)
	if !ok {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.bases[base] {
		return
	}
	if _, reRegistered := st.files[name]; reRegistered {
		// The file was truncated under a live group: its old content is
		// still folded into the parity. Flag the group for a rebuild.
		st.dirty[base] = true
		st.degraded = true
	} else {
		st.members[base]++
		st.noteBase(base)
	}
	st.files[name] = &fileInfo{base: base, rank: rank, bytes: bytes}
	if st.members[base] == 1 {
		st.resetParityFiles(base)
	}
}

// Opened implements iosim.ParityHook: a pre-existing protected file
// appeared with unknown parity state, so the group needs a resync before
// its parity can be trusted.
func (st *Store) Opened(name string, bytes int64) {
	base, rank, ok := parseLAF(name)
	if !ok {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.bases[base] {
		return
	}
	if _, known := st.files[name]; !known {
		st.members[base]++
		st.noteBase(base)
		st.files[name] = &fileInfo{base: base, rank: rank, bytes: bytes}
		st.dirty[base] = true
	}
}

// Removed implements iosim.ParityHook. Removing a member of a live group
// leaves its old content folded into the parity, so the group goes dirty;
// removing the last member retires the group and its parity files.
func (st *Store) Removed(name string) {
	fi, haveIt := st.lookup(name)
	if !haveIt {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.files, name)
	if h := st.handles[name]; h != nil {
		h.Close()
		delete(st.handles, name)
	}
	st.members[fi.base]--
	if st.members[fi.base] > 0 {
		st.dirty[fi.base] = true
		return
	}
	delete(st.members, fi.base)
	st.forgetBase(fi.base)
	delete(st.dirty, fi.base)
	for p := 0; p < st.procs; p++ {
		pname := ParityFileName(fi.base, p)
		if h := st.handles[pname]; h != nil {
			h.Close()
			delete(st.handles, pname)
		}
		delete(st.lostParity, pname)
		if !st.phantom {
			st.fs.Remove(pname) // best effort: the run is over
		}
	}
}

// noteBase records a group whose first member just registered, keeping
// memberBases sorted. Called with st.mu held.
func (st *Store) noteBase(base string) {
	if st.memberBases == nil {
		st.memberBases = st.baseArr[:0]
	}
	i := sort.SearchStrings(st.memberBases, base)
	if i < len(st.memberBases) && st.memberBases[i] == base {
		return
	}
	st.memberBases = append(st.memberBases, "")
	copy(st.memberBases[i+1:], st.memberBases[i:])
	st.memberBases[i] = base
}

// forgetBase drops a retired group from memberBases. Called with st.mu
// held.
func (st *Store) forgetBase(base string) {
	i := sort.SearchStrings(st.memberBases, base)
	if i < len(st.memberBases) && st.memberBases[i] == base {
		st.memberBases = append(st.memberBases[:i], st.memberBases[i+1:]...)
	}
}

func (st *Store) lookup(name string) (fileInfo, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fi := st.files[name]
	if fi == nil {
		return fileInfo{}, false
	}
	return *fi, true
}

// resetParityFiles creates (truncating) the P parity files of a group.
// Zero-length parity files are correct for freshly created data files:
// reads past the end yield zero blocks, the XOR identity. Called with
// st.mu held.
func (st *Store) resetParityFiles(base string) {
	if st.phantom {
		return
	}
	for p := 0; p < st.procs; p++ {
		pname := ParityFileName(base, p)
		if old := st.handles[pname]; old != nil {
			old.Close()
		}
		f, err := st.createRetry(pname)
		if err != nil {
			delete(st.handles, pname)
			st.lostParity[pname] = true
			st.degraded = true
			continue
		}
		st.handles[pname] = f
		delete(st.lostParity, pname)
	}
}

// policy returns the retry policy governing the store's own I/O.
func (st *Store) policy() iosim.RetryPolicy {
	if st.res != nil {
		return st.res.Policy
	}
	return iosim.DefaultRetryPolicy()
}

// retry runs op under the retry policy, returning the simulated backoff
// seconds spent. Transient failures that outlive the budget come back as
// a permanent ExhaustedError.
func (st *Store) retry(op, name string, f func() error) (float64, error) {
	pol := st.policy()
	var sec float64
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil || !iosim.IsTransient(err) {
			return sec, err
		}
		if attempt >= pol.MaxRetries {
			return sec, &iosim.ExhaustedError{Op: op, File: name, Attempts: attempt + 1, Last: err}
		}
		sec += pol.Backoff(attempt)
	}
}

func (st *Store) createRetry(name string) (iosim.File, error) {
	var f iosim.File
	_, err := st.retry("parity-create", name, func() error {
		var err error
		f, err = st.fs.Create(name)
		return err
	})
	return f, err
}

// dataHandle returns the store's own handle to a registered data file,
// opening it on first use. Called with st.mu held.
func (st *Store) dataHandle(name string) (iosim.File, float64, error) {
	if h := st.handles[name]; h != nil {
		return h, 0, nil
	}
	var f iosim.File
	sec, err := st.retry("parity-open", name, func() error {
		var err error
		f, err = st.fs.Open(name)
		return err
	})
	if err != nil {
		return nil, sec, err
	}
	st.handles[name] = f
	return f, sec, nil
}

// readFull reads len(buf) bytes at off, zero-filling whatever lies past
// the end of the file (parity files grow lazily; short data files
// zero-pad their last stripe). Retries transient faults.
func (st *Store) readFull(f iosim.File, name string, buf []byte, off int64) (float64, error) {
	return st.retry("parity-read", name, func() error {
		clear(buf)
		n, err := f.ReadAt(buf, off)
		if err == io.EOF {
			for i := n; i < len(buf); i++ {
				buf[i] = 0
			}
			return nil
		}
		return err
	})
}

// writeFull writes buf at off with transient retries.
func (st *Store) writeFull(f iosim.File, name string, buf []byte, off int64) (float64, error) {
	return st.retry("parity-write", name, func() error {
		n, err := f.WriteAt(buf, off)
		if err != nil {
			return err
		}
		if n != len(buf) {
			return fmt.Errorf("parity: short write on %s: %d of %d bytes", name, n, len(buf))
		}
		return nil
	})
}

// modelBytes converts physical file bytes into cost-model bytes so parity
// traffic is charged on the same scale as every other transfer.
func (st *Store) modelBytes(fileBytes int64) int64 {
	return fileBytes * int64(st.cfg.ElemSize) / iosim.FileElemBytes
}

// span describes the block-aligned window of one protected write.
type span struct {
	lo, hi     int64 // widened byte range, clamped to the file
	firstBlock int64
	nb         int64 // blocks covered
}

func (st *Store) spanOf(fi fileInfo, byteOff, n int64) span {
	lo := byteOff / BlockBytes * BlockBytes
	hi := (byteOff + n + BlockBytes - 1) / BlockBytes * BlockBytes
	if hi > fi.bytes {
		hi = fi.bytes
	}
	return span{
		lo:         lo,
		hi:         hi,
		firstBlock: lo / BlockBytes,
		nb:         (hi - lo + BlockBytes - 1) / BlockBytes,
	}
}

// parityRuns groups the parity blocks touched by a span into one
// contiguous run per parity rank (the rotation maps consecutive data
// blocks of one rank to consecutive parity indices of each parity rank).
type parityRun struct {
	rank       int
	qLo, qHi   int64 // parity block index range, inclusive
	dataBlocks []int64
}

func (st *Store) parityRunsOf(rank int, sp span) []parityRun {
	byRank := make(map[int]*parityRun)
	var order []int
	for k := sp.firstBlock; k < sp.firstBlock+sp.nb; k++ {
		s := StripeOf(st.procs, rank, k)
		p := ParityRankOf(st.procs, s)
		q := ParityIndexOf(st.procs, s)
		run := byRank[p]
		if run == nil {
			run = &parityRun{rank: p, qLo: q, qHi: q}
			byRank[p] = run
			order = append(order, p)
		}
		if q < run.qLo {
			run.qLo = q
		}
		if q > run.qHi {
			run.qHi = q
		}
		run.dataBlocks = append(run.dataBlocks, k)
	}
	runs := make([]parityRun, 0, len(order))
	for _, p := range order {
		runs = append(runs, *byRank[p])
	}
	return runs
}

// WriteThrough implements iosim.ParityHook: it performs one protected
// data write and the read-modify-write parity update atomically with
// respect to other ranks' protected writes.
//
// The accounting is deliberately closed-form so measured counters can be
// checked against the cost model exactly: a write covering nb parity
// blocks touching R = min(nb, P-1) parity ranks charges 1+R parity reads
// (the old data over the widened span, plus one coalesced parity read per
// rank), R parity writes, and moves widened+nb*BlockBytes bytes inward
// and nb*BlockBytes bytes outward, timed with the machine's IOTime rule.
// Retry backoff and inline parity rebuilds come on top and are folded
// into the returned seconds.
func (st *Store) WriteThrough(d *iosim.Disk, name string, byteOff, n int64, buf []byte, write func() (float64, error)) (float64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fi := st.files[name]
	if fi == nil {
		// Registration raced away (never happens in normal execution);
		// fall back to the bare data write.
		if buf == nil {
			return 0, nil
		}
		return write()
	}
	sp := st.spanOf(*fi, byteOff, n)
	runs := st.parityRunsOf(fi.rank, sp)

	var sec float64
	if buf != nil {
		// Old data over the widened span, for the XOR delta. readFull
		// zero-fills the pooled buffer before every attempt.
		old := bufpool.GetBytes(int(sp.hi - sp.lo))
		defer bufpool.PutBytes(old)
		h, hs, err := st.dataHandle(name)
		sec += hs
		if err != nil {
			return sec, err
		}
		rs, err := st.readFull(h, name, old, sp.lo)
		sec += rs
		if err != nil {
			return sec, err
		}

		ws, err := write()
		sec += ws
		if err != nil {
			return sec, err
		}

		// delta = old XOR new over the written range, zero elsewhere (the
		// pooled buffer must be cleared explicitly where make zeroed).
		delta := bufpool.GetBytes(int(sp.nb * BlockBytes))
		defer bufpool.PutBytes(delta)
		clear(delta)
		w := byteOff - sp.lo
		xorBytes(delta[w:w+n], old[w:w+n], buf[:n])
		for _, run := range runs {
			ps, err := st.applyParityRun(d, *fi, run, sp, delta)
			sec += ps
			if err != nil {
				// Parity maintenance failed permanently. The data write
				// itself succeeded; leave the parity file flagged for a
				// rebuild rather than failing the computation.
				st.lostParity[ParityFileName(fi.base, run.rank)] = true
				st.degraded = true
			}
		}
	}

	// Uniform accounting, identical in real, degraded and phantom runs.
	r := int64(len(runs))
	widened := st.modelBytes(sp.hi - sp.lo)
	pbytes := st.modelBytes(sp.nb * BlockBytes)
	d.Record(&trace.Span{Kind: trace.KindParityRMW, N: 1 + r, M: r, Bytes: widened + pbytes, Bytes2: pbytes})
	sec += st.cfg.IOTime(int(1+2*r), widened+2*pbytes)
	return sec, nil
}

// applyParityRun folds the delta blocks of one parity rank into its
// parity file as a single coalesced read-modify-write. A parity file on
// a lost disk takes none; one lost or failing on its own is rebuilt in
// place from the data files (which already hold the new content). Called
// with st.mu held.
func (st *Store) applyParityRun(d *iosim.Disk, fi fileInfo, run parityRun, sp span, delta []byte) (float64, error) {
	if st.lostDisks[run.rank] {
		return 0, nil
	}
	pname := ParityFileName(fi.base, run.rank)
	if st.lostParity[pname] {
		return st.rebuildInline(d, fi.base, run.rank)
	}
	h := st.handles[pname]
	if h == nil {
		var err error
		h, err = st.createRetry(pname)
		if err != nil {
			return 0, err
		}
		st.handles[pname] = h
	}
	span := bufpool.GetBytes(int((run.qHi - run.qLo + 1) * BlockBytes))
	defer bufpool.PutBytes(span)
	sec, err := st.readFull(h, pname, span, run.qLo*BlockBytes)
	if err == nil {
		for _, k := range run.dataBlocks {
			s := StripeOf(st.procs, fi.rank, k)
			q := ParityIndexOf(st.procs, s)
			dOff := (k - sp.firstBlock) * BlockBytes
			pOff := (q - run.qLo) * BlockBytes
			xorInto(span[pOff:pOff+BlockBytes], delta[dOff:dOff+BlockBytes])
		}
		var ws float64
		ws, err = st.writeFull(h, pname, span, run.qLo*BlockBytes)
		sec += ws
	}
	if err != nil {
		// The parity file itself is failing: rebuild it wholesale from
		// the data files, which are intact and already hold the new
		// content.
		rs, rerr := st.rebuildInline(d, fi.base, run.rank)
		return sec + rs, rerr
	}
	return sec, nil
}

// rebuildInline rebuilds a parity file mid-write and clears its flag.
// Called with st.mu held.
func (st *Store) rebuildInline(d *iosim.Disk, base string, p int) (float64, error) {
	sec, err := st.rebuildParityFileLocked(d, base, p)
	if err == nil {
		delete(st.lostParity, ParityFileName(base, p))
	}
	return sec, err
}
