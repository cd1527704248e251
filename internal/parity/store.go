package parity

import (
	"fmt"
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
// deterministic. Every file operation the store performs goes through
// the disk of the rank that acts (its retries, and its faults), and none
// depends on which rank took the mutex first: a file's owner opens the
// store's handle on it, a parity file's host creates it at its full size,
// and a parity update that fails is repaired by the rank whose write it
// was (applyParityRun). Every transfer the store makes is the acting
// disk's verified read or checksummed write, so parity blocks carry
// checksums in the same table as data blocks.
type Store struct {
	fs    iosim.FS
	cfg   sim.Config
	procs int

	mu      sync.Mutex
	phantom bool
	// bases holds the protected group base names, each with its
	// members' file sizes when Protect was given them.
	bases   map[string][]int64
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
	// lostParity marks individual parity files that failed and could
	// not be repaired: a reconstruction that needs one is a double
	// fault until its host's RebuildRank.
	lostParity map[string]bool
	// lostDisks marks the ranks whose disk was lost (LoseDisk): the
	// parity files it hosts take their updates on iosim.Discard until the
	// rank's own RebuildRank, the only other writer of its entry.
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
// Parity is only meaningful for procs >= 2 (with one disk there are no
// survivors); a store for procs < 2 protects nothing.
func NewStore(fs iosim.FS, cfg sim.Config, procs int) *Store {
	return &Store{
		fs:         fs,
		cfg:        cfg,
		procs:      procs,
		bases:      make(map[string][]int64),
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
// after this call are covered. memberBytes holds every rank's member
// file size, by which each host sizes its parity file when it creates it
// (a parity transfer never reads past the end of the file). A store that
// creates no member, only attaching files an earlier store made to
// reconstruct and rebuild them, may leave them out.
func (st *Store) Protect(base string, memberBytes ...int64) {
	if st.procs < 2 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bases[base] = memberBytes
}

// hostedBytes is the full size of rank p's parity file of a group whose
// member sizes Protect was given (zero otherwise): up to the last parity
// block any other member's data reaches. Called with st.mu held.
func (st *Store) hostedBytes(base string, p int) int64 {
	var blocks int64
	for r, b := range st.bases[base] {
		if r == p || b <= 0 {
			continue
		}
		// Member r's last block k sits in row k/(P-1) at slot t = k mod
		// (P-1); p hosts a block of that row when its slot (t skips r)
		// is not past t, and otherwise only of the rows before.
		k := (b - 1) / BlockBytes
		row, t := k/int64(st.procs-1), k%int64(st.procs-1)
		slot := int64(p)
		if p > r {
			slot--
		}
		if slot <= t {
			row++
		}
		blocks = max(blocks, row)
	}
	return blocks * BlockBytes
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
// a parity rebuild, or a parity file failure that left it pending
// rebuild).
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
// removes the files and fails its own handles (iosim.LAF.Lose). A lost
// parity file keeps iosim.Discard as its handle, so a write it covers
// still makes its parity read and write, and only the bytes are dropped;
// its checksums, which nothing reads through Discard, go when the rebuild
// creates the file afresh.
func (st *Store) LoseDisk(rank int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for name, h := range st.handles {
		if iosim.DiskOf(name) == rank {
			h.Close()
			delete(st.handles, name)
		}
	}
	for _, base := range st.memberBases {
		st.handles[ParityFileName(base, rank)] = iosim.Discard
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
	if _, ok := st.bases[base]; !ok {
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
	_, ok = st.bases[base]
	return ok
}

// Created implements iosim.ParityHook: a protected file was freshly
// created through d, so its content is all zeros. On a member's first
// registration its rank, through d, opens the store's handle on it and
// creates (truncating) the group's parity file its disk hosts at the
// size Protect's member sizes give it, with its checksums seeded
// (iosim.Disk.CreateZeros): all-zero parity, which both initializes it
// and discards any stale parity a previous execution left on the shared
// file system. A parity file that cannot be made is lost until its
// host's rebuild. Every member is created before any is written (the
// executor's create/fill rendezvous), so no update reaches a parity file
// before its host has made it.
func (st *Store) Created(d *iosim.Disk, name string, bytes int64) {
	base, rank, ok := parseLAF(name)
	if !ok {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.bases[base]; !ok {
		return
	}
	if _, reRegistered := st.files[name]; reRegistered {
		// The file was truncated under a live group: its old content is
		// still folded into the parity. Flag the group for a rebuild.
		st.dirty[base] = true
		st.degraded = true
		st.files[name] = &fileInfo{base: base, rank: rank, bytes: bytes}
		return
	}
	st.members[base]++
	st.noteBase(base)
	st.files[name] = &fileInfo{base: base, rank: rank, bytes: bytes}
	if st.phantom {
		return
	}
	st.openOwn(d, name)
	pname := ParityFileName(base, rank)
	if old := st.handles[pname]; old != nil {
		old.Close()
	}
	f, err := d.CreateZeros(pname, st.hostedBytes(base, rank))
	if err != nil {
		delete(st.handles, pname)
		st.lostParity[pname] = true
		st.degraded = true
		return
	}
	st.handles[pname] = f
	delete(st.lostParity, pname)
}

// openOwn opens the store's handle on a member file its owner just
// registered through d, so no other rank's operation ever opens it
// (which one would get there first is the host's business). A failed
// open leaves the handle to be opened where it is needed. Called with
// st.mu held.
func (st *Store) openOwn(d *iosim.Disk, name string) {
	if old := st.handles[name]; old != nil {
		old.Close()
		delete(st.handles, name)
	}
	st.dataHandle(d, name)
}

// Opened implements iosim.ParityHook: a pre-existing protected file
// appeared with unknown parity state, so the group needs a resync before
// its parity can be trusted. Its owner opens the store's handle on it
// through d, as Created does.
func (st *Store) Opened(d *iosim.Disk, name string, bytes int64) {
	base, rank, ok := parseLAF(name)
	if !ok {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.bases[base]; !ok {
		return
	}
	if _, known := st.files[name]; !known {
		st.members[base]++
		st.noteBase(base)
		st.files[name] = &fileInfo{base: base, rank: rank, bytes: bytes}
		st.dirty[base] = true
		if !st.phantom {
			st.openOwn(d, name)
		}
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

// dataHandle returns the store's own handle to a registered file,
// opening it through d on first use. Called with st.mu held.
func (st *Store) dataHandle(d *iosim.Disk, name string) (iosim.File, error) {
	if h := st.handles[name]; h != nil {
		return h, nil
	}
	var f iosim.File
	_, err := d.Retry("parity-open", name, false, func() error {
		var err error
		f, err = d.Open(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.handles[name] = f
	return f, nil
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
// Retry backoff and the repair of a parity file whose update failed come
// on top and are folded into the returned seconds.
func (st *Store) WriteThrough(d *iosim.Disk, name string, byteOff, n int64, buf []byte, write func() (float64, error)) (float64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fi := st.files[name]
	if fi == nil {
		return 0, fmt.Errorf("parity: write to %s, which is protected but was never created or opened", name)
	}
	sp := st.spanOf(*fi, byteOff, n)
	runs := st.parityRunsOf(fi.rank, sp)

	var sec float64
	if buf != nil {
		// Old data over the widened span, for the XOR delta.
		old := bufpool.GetBytes(int(sp.hi - sp.lo))
		defer bufpool.PutBytes(old)
		h, err := st.dataHandle(d, name)
		if err != nil {
			return sec, err
		}
		rs, err := d.ReadVerified(h, name, old, sp.lo)
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
				// Parity maintenance failed permanently, its repair too.
				// The data write itself succeeded; the parity file is
				// lost until its host's rebuild rather than failing the
				// computation.
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
// parity file as a single coalesced read-modify-write, whose read is
// verified against the file's checksums and whose write records them. A
// parity file on a lost disk takes the same read and write on
// iosim.Discard. An update that fails (a checksum mismatch that outlasts
// the retries among the causes) leaves the file without its delta, so
// this rank rebuilds the file at once from the data files (which already
// hold the new content), inside the write's hold of the store: no other
// rank ever reads it stale, and no reconstruction's fate depends on host
// order. A file whose rebuild fails too is lost until its host's
// rebuild; it keeps taking updates, which cannot repair it, because
// skipping them would make the writer's file operations depend on when
// the failure happened. A failed update of a lost disk's file is not
// repaired: the file is its host's to rebuild. Called with st.mu held.
func (st *Store) applyParityRun(d *iosim.Disk, fi fileInfo, run parityRun, sp span, delta []byte) (float64, error) {
	pname := ParityFileName(fi.base, run.rank)
	h := st.handles[pname]
	if h == nil {
		return 0, fmt.Errorf("parity: %s could not be created", pname)
	}
	span := bufpool.GetBytes(int((run.qHi - run.qLo + 1) * BlockBytes))
	defer bufpool.PutBytes(span)
	off := run.qLo * BlockBytes
	sec, err := d.ReadVerified(h, pname, span, off)
	if err == nil {
		for _, k := range run.dataBlocks {
			s := StripeOf(st.procs, fi.rank, k)
			q := ParityIndexOf(st.procs, s)
			dOff := (k - sp.firstBlock) * BlockBytes
			pOff := (q - run.qLo) * BlockBytes
			xorInto(span[pOff:pOff+BlockBytes], delta[dOff:dOff+BlockBytes])
		}
		// Whole blocks: the write's own end stands for the file's.
		var ws float64
		ws, err = d.WriteChecked(h, pname, span, off, off+int64(len(span)))
		sec += ws
	}
	if err == nil || h == iosim.Discard {
		return sec, nil
	}
	rs, rerr := st.rebuildParityFileLocked(d, fi.base, run.rank)
	return sec + rs, rerr
}
