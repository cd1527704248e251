package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"
)

// The write-ahead job journal makes the queue and the in-flight set
// durable: every state transition of a job — submitted, dispatched,
// completed, cancelled — is appended as a checksummed record and fsynced
// before the transition takes effect, so a restarted server can rebuild
// exactly the work it owed at crash time (DESIGN §14). Appends that
// arrive together share one write and one fsync (group commit).
//
// Format: segment files named wal-%08d.seg, each starting with the magic
// "OOCWAL1\n" followed by length-prefixed records:
//
//	[4B big-endian payload length][4B big-endian CRC32(payload)][JSON payload]
//
// Appends go to the newest segment only. Replay scans segments in index
// order and stops a segment at the first frame that is torn (short) or
// fails its checksum — everything after a corrupt record is untrusted,
// and the startup compaction rewrites the surviving state into a fresh
// segment, so a torn tail is truncated exactly once and never reparsed.
// Startup and rotation both compact: the full live state is written as
// one snapshot record into a brand-new segment and the old segments are
// deleted, which keeps the journal bounded by the live job set (completed
// jobs survive only as bounded idempotency outcomes). Rotation is
// proportional — it fires when the records appended since the snapshot
// weigh as much as the snapshot, RotateBytes at least — so the journal
// stays within twice its snapshot plus RotateBytes and writes at most
// two bytes per byte appended, whatever the retained state weighs.

// walMagic heads every journal segment.
const walMagic = "OOCWAL1\n"

// walFrameHead is the bytes of one record's length+checksum header.
const walFrameHead = 8

// record kinds.
const (
	recSubmit   = "submit"
	recDispatch = "dispatch"
	recComplete = "complete"
	recCancel   = "cancel"
	recCompact  = "compact"
)

// walRec is one journal record. Kind selects which fields are
// meaningful.
type walRec struct {
	Kind   string `json:"kind"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Key is the client's idempotency key (submit; echoed on complete).
	Key string `json:"key,omitempty"`
	// Weight is the tenant's fair-share weight as of this submit.
	Weight int `json:"weight,omitempty"`
	// Spec is the canonical (defaults-resolved) job spec.
	Spec *Request `json:"spec,omitempty"`
	// Fingerprint is the compiled plan's identity; a restart re-admits
	// the job only into the same plan.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Attempt is the execution attempt namespace (dispatch).
	Attempt int `json:"attempt,omitempty"`
	// OK, Outcome and Error report completion: a successful outcome is
	// the response body, kept for idempotent replay to retried
	// submitters.
	OK      bool            `json:"ok,omitempty"`
	Outcome json.RawMessage `json:"outcome,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Snapshot resets the replay state (compact records).
	Snapshot *walSnapshot `json:"snapshot,omitempty"`
}

// walJob is one live (queued or running) job in the replay state.
type walJob struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Key         string  `json:"key,omitempty"`
	Spec        Request `json:"spec"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	// Attempt is 0 until the job is dispatched; a nonzero attempt at
	// replay time means the job was RUNNING when the server died.
	Attempt int `json:"attempt,omitempty"`
}

// walOutcome is one retained completed outcome, keyed for idempotent
// submit replay.
type walOutcome struct {
	Key      string          `json:"key"`
	Response json.RawMessage `json:"response"`
}

// walSnapshot is the full replay state a compact record carries.
type walSnapshot struct {
	JobNum   int64          `json:"job_num"`
	Jobs     []*walJob      `json:"jobs,omitempty"`
	Outcomes []*walOutcome  `json:"outcomes,omitempty"`
	Weights  map[string]int `json:"weights,omitempty"`
}

// walState is the incrementally maintained replay state: the same apply
// step consumes live appends and replayed records, so compaction always
// has an up-to-date snapshot at hand.
type walState struct {
	jobNum       int64
	jobs         []*walJob // arrival order
	byID         map[string]*walJob
	outcomes     map[string]json.RawMessage
	outcomeOrder []string
	maxOutcomes  int
	weights      map[string]int
}

func newWALState(maxOutcomes int) *walState {
	return &walState{
		byID:        make(map[string]*walJob),
		outcomes:    make(map[string]json.RawMessage),
		maxOutcomes: maxOutcomes,
		weights:     make(map[string]int),
	}
}

// jobNumOf extracts the sequence number from a "job-%d" id (0 if the id
// has another shape).
func jobNumOf(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

func (st *walState) apply(rec *walRec) {
	switch rec.Kind {
	case recSubmit:
		if rec.Job == "" || st.byID[rec.Job] != nil {
			return
		}
		jb := &walJob{ID: rec.Job, Tenant: rec.Tenant, Key: rec.Key, Fingerprint: rec.Fingerprint}
		if rec.Spec != nil {
			jb.Spec = *rec.Spec
		}
		st.jobs = append(st.jobs, jb)
		st.byID[jb.ID] = jb
		if n := jobNumOf(jb.ID); n > st.jobNum {
			st.jobNum = n
		}
		if rec.Weight > 0 {
			st.weights[rec.Tenant] = rec.Weight
		}
	case recDispatch:
		if jb := st.byID[rec.Job]; jb != nil {
			jb.Attempt = rec.Attempt
		}
	case recComplete:
		st.remove(rec.Job)
		if rec.OK && rec.Key != "" && rec.Outcome != nil {
			st.addOutcome(rec.Key, rec.Outcome)
		}
	case recCancel:
		st.remove(rec.Job)
	case recCompact:
		if rec.Snapshot == nil {
			return
		}
		fresh := newWALState(st.maxOutcomes)
		fresh.jobNum = rec.Snapshot.JobNum
		// A checksummed snapshot can still hold null entries, or outcomes
		// without a response, if something other than this journal wrote
		// it; skip them rather than panic or answer a submit with nothing.
		for _, jb := range rec.Snapshot.Jobs {
			if jb != nil {
				fresh.jobs = append(fresh.jobs, jb)
				fresh.byID[jb.ID] = jb
			}
		}
		for _, o := range rec.Snapshot.Outcomes {
			if o != nil && o.Response != nil {
				fresh.addOutcome(o.Key, o.Response)
			}
		}
		for t, w := range rec.Snapshot.Weights {
			fresh.weights[t] = w
		}
		*st = *fresh
	}
}

func (st *walState) remove(id string) {
	if st.byID[id] == nil {
		return
	}
	delete(st.byID, id)
	for i, jb := range st.jobs {
		if jb.ID == id {
			st.jobs = append(st.jobs[:i], st.jobs[i+1:]...)
			break
		}
	}
}

func (st *walState) addOutcome(key string, resp json.RawMessage) {
	if _, ok := st.outcomes[key]; !ok {
		st.outcomeOrder = append(st.outcomeOrder, key)
	}
	st.outcomes[key] = resp
	for len(st.outcomeOrder) > st.maxOutcomes {
		evict := st.outcomeOrder[0]
		st.outcomeOrder = st.outcomeOrder[1:]
		delete(st.outcomes, evict)
	}
}

func (st *walState) snapshot() *walSnapshot {
	snap := &walSnapshot{JobNum: st.jobNum}
	for _, jb := range st.jobs {
		cp := *jb
		snap.Jobs = append(snap.Jobs, &cp)
	}
	for _, key := range st.outcomeOrder {
		snap.Outcomes = append(snap.Outcomes, &walOutcome{Key: key, Response: st.outcomes[key]})
	}
	if len(st.weights) > 0 {
		snap.Weights = make(map[string]int, len(st.weights))
		for t, w := range st.weights {
			snap.Weights[t] = w
		}
	}
	return snap
}

// JournalStats are the journal's observable counters, exposed under
// /metrics as Metrics.Journal.
type JournalStats struct {
	// RecordsAppended counts records durably appended this process
	// lifetime; Fsyncs counts the sync calls that made them durable
	// (zero on backing stores without a sync primitive, e.g. MemFS).
	RecordsAppended int64 `json:"records_appended"`
	Fsyncs          int64 `json:"fsyncs"`
	// ReplayedJobs counts jobs re-admitted from the journal at startup;
	// ResumedJobs counts the subset that resumed from an exec
	// checkpoint instead of rerunning from scratch.
	ReplayedJobs int64 `json:"replayed_jobs"`
	ResumedJobs  int64 `json:"resumed_jobs"`
	// TruncatedTails counts torn or corrupt segment tails dropped at
	// replay (at most one per segment: nothing after a bad frame is
	// trusted).
	TruncatedTails int64 `json:"truncated_tail_records"`
	// Bytes is the current size of the live segment; Compactions counts
	// snapshot rewrites (startup replay and size-triggered rotation).
	Bytes        int64 `json:"journal_bytes"`
	Compactions  int64 `json:"compactions"`
	AppendErrors int64 `json:"append_errors"`
	// Degraded reports that the journal gave up on a faulty disk: the
	// server serves reads but refuses new writes with 503.
	Degraded bool `json:"degraded"`
}

// journal is the write-ahead log. All methods are safe for concurrent
// use. mu guards the fields below it but is never held across a write or
// an fsync: the segment, its end offset and the replay state are moved
// only by the one appender holding the flusher role (flushing), so the
// readers — outcome, statsSnapshot, degraded — wait for a map lookup at
// most.
type journal struct {
	fs       iosim.FS
	rotateAt int64
	retry    iosim.RetryPolicy
	// snapBuf holds the last snapshot's segment bytes, for the next
	// compaction to encode over; only the compacting flusher touches it.
	snapBuf []byte

	mu      sync.Mutex
	seg     iosim.File
	segIdx  int
	segOff  int64 // end of the durable records
	snapEnd int64 // end of the segment's snapshot frame
	dead    bool  // no further appends (degraded, killed or closed)
	// Group commit: appends join the open batch; the append that opened
	// it flushes it as soon as the flush before it is over.
	open     *walBatch
	flushing bool
	turn     sync.Cond // signalled when flushing clears
	stats    JournalStats
	state    *walState
}

// walBatch is the records one write and one fsync make durable together.
type walBatch struct {
	buf  []byte // the records' frames, back to back
	recs []*walRec
	done chan struct{} // closed once err is set
	err  error
}

func (b *walBatch) add(rec *walRec, frame []byte) {
	b.buf = append(b.buf, frame...)
	b.recs = append(b.recs, rec)
}

func (b *walBatch) finish(err error) {
	b.err = err
	close(b.done)
}

func segName(idx int) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// segIdxOf parses a segment index from a name; ok is false for
// non-segment files.
func segIdxOf(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &idx); err != nil || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	return idx, true
}

// namer is the FS enumeration capability the journal requires.
type namer interface{ Names() []string }

// openJournal replays any existing journal under fs, then compacts the
// surviving state into a fresh segment (old segments, including any torn
// tails, are deleted). The journal never appends to a reopened file: the
// compaction rewrite is the only way records cross a restart.
func openJournal(fs iosim.FS, rotateAt int64, retry iosim.RetryPolicy, maxOutcomes int) (*journal, error) {
	nm, ok := fs.(namer)
	if !ok {
		return nil, fmt.Errorf("serve: journal store %T cannot enumerate segments", fs)
	}
	if rotateAt <= 0 {
		rotateAt = 1 << 20
	}
	if maxOutcomes <= 0 {
		maxOutcomes = 256
	}
	j := &journal{fs: fs, rotateAt: rotateAt, retry: retry, state: newWALState(maxOutcomes)}
	j.turn.L = &j.mu

	var segs []int
	for _, name := range nm.Names() {
		if idx, ok := segIdxOf(name); ok {
			segs = append(segs, idx)
		}
	}
	sort.Ints(segs)
	for _, idx := range segs {
		j.scanSegment(segName(idx))
	}
	if len(segs) > 0 {
		j.segIdx = segs[len(segs)-1]
	}
	j.mu.Lock()
	err := j.compact()
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// The old segments' state now lives in the fresh segment's snapshot.
	for _, idx := range segs {
		fs.Remove(segName(idx))
	}
	return j, nil
}

// scanSegment replays one segment into the state, stopping at the first
// torn or corrupt frame (counted as one truncated tail). It never
// returns an error: an unreadable segment simply contributes nothing.
func (j *journal) scanSegment(name string) {
	if !j.replaySegment(name) {
		j.stats.TruncatedTails++
	}
}

// replaySegment reports whether the segment was whole. It reads what the
// file holds once and frames from memory, so a length field read from
// disk is bounded by the bytes present before anything is sized by it.
func (j *journal) replaySegment(name string) bool {
	f, err := j.fs.Open(name)
	if err != nil {
		return false
	}
	defer f.Close()
	data, rerr := readWhole(f)
	if !bytes.HasPrefix(data, []byte(walMagic)) {
		return false
	}
	for data = data[len(walMagic):]; len(data) > 0; {
		if len(data) < walFrameHead {
			return false
		}
		plen := binary.BigEndian.Uint32(data)
		want := binary.BigEndian.Uint32(data[4:])
		data = data[walFrameHead:]
		if uint64(plen) > uint64(len(data)) {
			return false // torn, or the length bytes are corrupt
		}
		payload := data[:plen]
		if crc32.ChecksumIEEE(payload) != want {
			return false
		}
		var rec walRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			// Checksummed but unparsable — treat like any other torn
			// tail rather than surfacing a parse error.
			return false
		}
		j.state.apply(&rec)
		data = data[plen:]
	}
	return rerr == nil // a read fault hides whatever followed
}

// readWhole returns what the file holds: one exactly sized read when the
// handle can say how long the file is, a read until EOF — growing as it
// goes — when a wrapper hides that.
func readWhole(f iosim.File) ([]byte, error) {
	size, ok := iosim.FileSize(f)
	if !ok {
		return io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
	}
	data := make([]byte, size)
	n, err := f.ReadAt(data, 0)
	if err == io.EOF {
		err = nil // the file ends where it ends, as for io.ReadAll
	}
	return data[:n], err
}

// appendFrame appends rec's frame — length, checksum, payload — to dst,
// encoding the payload in place after the head it then fills in.
func appendFrame(dst []byte, rec *walRec) ([]byte, error) {
	at := len(dst)
	dst, err := appendRecord(append(dst, make([]byte, walFrameHead)...), rec)
	if err != nil {
		return dst[:at], err
	}
	sealFrame(dst[at:])
	return dst, nil
}

// sealFrame fills in the head of frame, whose payload follows the head's
// walFrameHead bytes.
func sealFrame(frame []byte) {
	payload := frame[walFrameHead:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// appendRecord appends rec's payload to dst, the one encoder of every
// record kind: the bytes json.Marshal(rec) makes, but with every outcome
// — the complete record's and each one a snapshot retains — copied
// verbatim where json.Marshal would scan and re-compact it. An outcome
// came out of appendResponse, compact and escaped as json.Marshal
// escapes, so the copy is what json.Marshal would write; one replayed
// from a segment is carried forward as it was read. The other fields go
// through json.Marshal.
func appendRecord(dst []byte, rec *walRec) ([]byte, error) {
	head := *rec
	head.Outcome, head.Error, head.Snapshot = nil, "", nil
	b, err := json.Marshal(&head)
	if err != nil {
		return dst, err
	}
	// The fields after ok go after the head's, in walRec's order.
	dst = append(slices.Grow(dst, len(b)+len(`,"outcome":`)+len(rec.Outcome)), b[:len(b)-1]...)
	if len(rec.Outcome) > 0 {
		dst = append(append(dst, `,"outcome":`...), rec.Outcome...)
	}
	if rec.Error != "" {
		if dst, err = appendJSON(append(dst, `,"error":`...), rec.Error); err != nil {
			return dst, err
		}
	}
	if snap := rec.Snapshot; snap != nil {
		if dst, err = appendSnapshot(append(dst, `,"snapshot":`...), snap); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendSnapshot appends json.Marshal(snap) to dst, retained outcomes
// verbatim. Every outcome of a snapshot the journal takes holds a
// response: replay retains none without one.
func appendSnapshot(dst []byte, snap *walSnapshot) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"job_num":`...), snap.JobNum, 10)
	var err error
	if len(snap.Jobs) > 0 {
		if dst, err = appendJSON(append(dst, `,"jobs":`...), snap.Jobs); err != nil {
			return dst, err
		}
	}
	if len(snap.Outcomes) > 0 {
		dst = append(dst, `,"outcomes":[`...)
		for i, o := range snap.Outcomes {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendJSON(append(dst, `{"key":`...), o.Key); err != nil {
				return dst, err
			}
			dst = append(append(append(dst, `,"response":`...), o.Response...), '}')
		}
		dst = append(dst, ']')
	}
	if len(snap.Weights) > 0 {
		if dst, err = appendJSON(append(dst, `,"weights":`...), snap.Weights); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendJSON appends json.Marshal(v) to dst.
func appendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// append durably adds one record and returns once it is on disk, fsynced
// and applied to the replay state — or has failed, in which case it was
// not applied. Appends that arrive while a flush is in flight share the
// next one (group commit): the first of them opens a batch and becomes
// its flusher, the rest add their frames and wait for its result. A
// batch that cannot be made durable fails every member with ErrDegraded
// and degrades the journal — sticky.
func (j *journal) append(rec *walRec) error {
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return fmt.Errorf("serve: encode journal record: %w", err)
	}
	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		return ErrDegraded
	}
	if b := j.open; b != nil {
		b.add(rec, frame)
		j.mu.Unlock()
		<-b.done
		return b.err
	}
	b := &walBatch{buf: frame, recs: []*walRec{rec}, done: make(chan struct{})}
	j.open = b
	for j.flushing {
		j.turn.Wait()
	}
	j.open = nil
	err = j.flush(b)
	j.mu.Unlock()
	return err
}

// flush makes b durable with one write and one fsync, applies its
// records in arrival order and releases its members, then — still in
// the flusher role, so between batches — compacts if the tail has
// outgrown the snapshot under it. Callers hold j.mu; it is released
// around the I/O. The returned error is the batch's, or the failed
// compaction's: the flusher is the append that triggered it.
func (j *journal) flush(b *walBatch) error {
	if j.dead {
		// Killed, closed or degraded while the batch waited its turn.
		b.finish(ErrDegraded)
		return ErrDegraded
	}
	j.flushing = true
	seg, off := j.seg, j.segOff
	j.mu.Unlock()
	err := j.writeSync(seg, b.buf, off)
	j.mu.Lock()
	if err != nil {
		err = j.degrade(err)
	} else {
		j.segOff += int64(len(b.buf))
		j.stats.Bytes = j.segOff
		j.stats.RecordsAppended += int64(len(b.recs))
		j.countSync(seg)
		for _, rec := range b.recs {
			j.state.apply(rec)
		}
	}
	b.finish(err)
	// Proportional rotation: rewrite the snapshot when the records
	// appended since the last one weigh as much as it does (RotateBytes
	// at least), so the bytes written stay within twice the bytes
	// appended however large the retained state is.
	if err == nil && !j.dead && j.segOff-j.snapEnd >= max(j.rotateAt, j.snapEnd) {
		if cerr := j.compact(); cerr != nil {
			err = j.degrade(cerr)
		}
	}
	j.flushing = false
	j.turn.Broadcast()
	return err
}

// degrade marks the journal as having given up on its disk — sticky —
// and wraps cause as ErrDegraded for the admission path. Callers hold
// j.mu.
func (j *journal) degrade(cause error) error {
	j.dead = true
	j.stats.AppendErrors++
	j.stats.Degraded = true
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// syncer is the fsync primitive of the backing stores that have one (OS
// files do; MemFS is always "durable").
type syncer interface{ Sync() error }

// countSync counts the fsync that made a write to f durable, if f has
// one. Callers hold j.mu.
func (j *journal) countSync(f iosim.File) {
	if _, ok := f.(syncer); ok {
		j.stats.Fsyncs++
	}
}

// writeSync makes buf durable at off on f: one write, then one fsync,
// whose error is a write error like any other. Transient faults are
// retried with capped wall-clock backoff by writing buf at off again —
// which heals a torn short write and re-dirties the pages a failed fsync
// may have dropped. Callers do not hold j.mu.
func (j *journal) writeSync(f iosim.File, buf []byte, off int64) error {
	for attempt := 0; ; attempt++ {
		n, err := f.WriteAt(buf, off)
		if err == nil && n != len(buf) {
			err = io.ErrShortWrite
		}
		if sf, ok := f.(syncer); ok && err == nil {
			err = sf.Sync()
		}
		if err == nil {
			return nil
		}
		if attempt >= j.retry.MaxRetries || !iosim.IsTransient(err) {
			return err
		}
		time.Sleep(time.Duration(j.retry.Backoff(attempt) * float64(time.Second)))
	}
}

// compact rewrites the live state as one snapshot record in a brand-new
// segment and switches appends to it. The predecessor segment is deleted
// only after the snapshot is durable, so a crash anywhere in between
// leaves at least one self-contained lineage to replay; on failure the
// predecessor stays the live segment. Callers hold j.mu and the flusher
// role (or are alone, at open); the lock is released around the I/O.
func (j *journal) compact() error {
	snap := j.state.snapshot()
	old, oldIdx := j.seg, j.segIdx
	name := segName(oldIdx + 1)
	j.mu.Unlock()
	f, size, err := j.writeSnapshot(name, snap)
	if err == nil && old != nil {
		old.Close()
		j.fs.Remove(segName(oldIdx))
	}
	j.mu.Lock()
	if err != nil {
		return err
	}
	j.seg, j.segIdx = f, oldIdx+1
	j.segOff, j.snapEnd = size, size
	j.stats.Bytes = size
	j.stats.Compactions++
	j.countSync(f)
	return nil
}

// writeSnapshot creates the named segment holding the magic and snap's
// frame, durably; a segment it cannot finish is removed again.
func (j *journal) writeSnapshot(name string, snap *walSnapshot) (iosim.File, int64, error) {
	buf, err := appendFrame(append(j.snapBuf[:0], walMagic...), &walRec{Kind: recCompact, Snapshot: snap})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: encode journal snapshot: %w", err)
	}
	j.snapBuf = buf
	f, err := j.fs.Create(name)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: create journal segment: %w", err)
	}
	if err := j.writeSync(f, buf, 0); err != nil {
		f.Close()
		j.fs.Remove(name)
		return nil, 0, fmt.Errorf("serve: write journal snapshot: %w", err)
	}
	return f, int64(len(buf)), nil
}

// kill simulates the process dying mid-flight: the batch being flushed
// finishes or fails, no other starts — its members get ErrDegraded when
// their flusher's turn comes — and the journal is not marked degraded
// (the "disk" is fine, the process is gone). Crash-harness only.
func (j *journal) kill() {
	j.mu.Lock()
	j.dead = true
	j.mu.Unlock()
}

// degraded reports whether the journal has given up on its disk.
func (j *journal) degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats.Degraded
}

// close stops the journal: the batch being flushed finishes first, then
// the segment is closed; a batch still waiting its turn fails.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dead = true
	for j.flushing {
		j.turn.Wait()
	}
	if j.seg != nil {
		j.seg.Close()
		j.seg = nil
	}
}

func (j *journal) statsSnapshot() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// liveJobs returns the replayed live set in arrival order (openJournal
// callers consume it before concurrent appends start).
func (j *journal) liveJobs() []*walJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*walJob, len(j.state.jobs))
	copy(out, j.state.jobs)
	return out
}

func (j *journal) outcome(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp, ok := j.state.outcomes[key]
	return resp, ok
}

func (j *journal) jobNum() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.jobNum
}

func (j *journal) tenantWeights() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int, len(j.state.weights))
	for t, w := range j.state.weights {
		out[t] = w
	}
	return out
}

// workPrefix names a job attempt's namespace on the durable work store.
func workPrefix(id string, attempt int) string { return fmt.Sprintf("%s.a%d/", id, attempt) }

// prefixFS scopes one job attempt's files under workPrefix on the
// durable work store, so concurrent jobs and successive attempts never
// collide and a restart finds the attempt's checkpoints by name.
type prefixFS struct {
	base   iosim.FS
	prefix string
}

func (p *prefixFS) Create(name string) (iosim.File, error) { return p.base.Create(p.prefix + name) }
func (p *prefixFS) Open(name string) (iosim.File, error)   { return p.base.Open(p.prefix + name) }
func (p *prefixFS) Remove(name string) error               { return p.base.Remove(p.prefix + name) }

func (p *prefixFS) Names() []string {
	nm, ok := p.base.(namer)
	if !ok {
		return nil
	}
	var out []string
	for _, name := range nm.Names() {
		if strings.HasPrefix(name, p.prefix) {
			out = append(out, strings.TrimPrefix(name, p.prefix))
		}
	}
	return out
}

// addReplayed/addResumed feed the startup recovery counters.
func (j *journal) addReplayed(n int64) {
	j.mu.Lock()
	j.stats.ReplayedJobs += n
	j.mu.Unlock()
}

func (j *journal) addResumed(n int64) {
	j.mu.Lock()
	j.stats.ResumedJobs += n
	j.mu.Unlock()
}
