package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
)

func testJournal(t *testing.T, fs iosim.FS, rotateAt int64, maxOutcomes int) *journal {
	t.Helper()
	j, err := openJournal(fs, rotateAt, iosim.DefaultRetryPolicy(), maxOutcomes)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	return j
}

func mustAppend(t *testing.T, j *journal, rec *walRec) {
	t.Helper()
	if err := j.append(rec); err != nil {
		t.Fatalf("append %s %s: %v", rec.Kind, rec.Job, err)
	}
}

func submitRec(id, tenant, key string) *walRec {
	return &walRec{Kind: recSubmit, Job: id, Tenant: tenant, Key: key,
		Spec: &Request{Tenant: tenant, N: 32, Procs: 4, MemElems: 300}}
}

// segNames returns the journal segment files currently on fs.
func segNames(fs iosim.FS) []string {
	var out []string
	for _, name := range fs.(namer).Names() {
		if _, ok := segIdxOf(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// scriptFS gives the files of a store an fsync the test scripts, and
// counts what the journal hands to the disk: onSync receives the 1-based
// index of every Sync call on the store and returns its result (nil: all
// succeed). faults scripts the operations on one file (create, open,
// remove, read, write, truncate; its create is op 0): op k fails as
// faults[k] says, a torn write (mp.IOShortWrite) after half its bytes
// reach the file. The journal is the server's, not a rank's: no fault
// source of a run reaches it.
type scriptFS struct {
	iosim.FS
	onSync func(n int64) error
	syncs  atomic.Int64
	wrote  atomic.Int64 // bytes handed to WriteAt

	file   string
	faults map[int64]mp.FaultKind
	ops    atomic.Int64 // operations on file so far
	torn   atomic.Int64 // torn writes injected
}

func (s *scriptFS) Names() []string { return s.FS.(namer).Names() }

// fault numbers one operation on name and returns its scripted fault.
func (s *scriptFS) fault(name string) (mp.FaultKind, bool) {
	if name != s.file || s.faults == nil {
		return 0, false
	}
	k, ok := s.faults[s.ops.Add(1)-1]
	return k, ok
}

func scriptedErr(k mp.FaultKind, verb, name string) error {
	if k == mp.IOPermanent {
		return fmt.Errorf("scripted %s %s: %w", verb, name, iosim.ErrInjected)
	}
	return iosim.MarkTransient(fmt.Errorf("scripted %v fault: %s %s", k, verb, name))
}

func (s *scriptFS) Create(name string) (iosim.File, error) {
	if k, ok := s.fault(name); ok {
		return nil, scriptedErr(k, "create", name)
	}
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &scriptFile{File: f, fs: s, name: name}, nil
}

func (s *scriptFS) Open(name string) (iosim.File, error) {
	if k, ok := s.fault(name); ok {
		return nil, scriptedErr(k, "open", name)
	}
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &scriptFile{File: f, fs: s, name: name}, nil
}

func (s *scriptFS) Remove(name string) error {
	if k, ok := s.fault(name); ok {
		return scriptedErr(k, "remove", name)
	}
	return s.FS.Remove(name)
}

type scriptFile struct {
	iosim.File
	fs   *scriptFS
	name string
}

func (f *scriptFile) ReadAt(p []byte, off int64) (int, error) {
	if k, ok := f.fs.fault(f.name); ok {
		return 0, scriptedErr(k, "read", f.name)
	}
	return f.File.ReadAt(p, off)
}

func (f *scriptFile) WriteAt(p []byte, off int64) (int, error) {
	if k, ok := f.fs.fault(f.name); ok {
		if k != mp.IOShortWrite {
			return 0, scriptedErr(k, "write", f.name)
		}
		f.fs.torn.Add(1)
		n, _ := f.File.WriteAt(p[:len(p)/2], off)
		f.fs.wrote.Add(int64(n))
		return n, scriptedErr(k, "write", f.name)
	}
	f.fs.wrote.Add(int64(len(p)))
	return f.File.WriteAt(p, off)
}

func (f *scriptFile) Truncate(size int64) error {
	if k, ok := f.fs.fault(f.name); ok {
		return scriptedErr(k, "truncate", f.name)
	}
	return f.File.Truncate(size)
}

// Size reports the length of the file behind the wrapper.
func (f *scriptFile) Size() int64 {
	n, _ := iosim.FileSize(f.File)
	return n
}

func (f *scriptFile) Sync() error {
	n := f.fs.syncs.Add(1)
	if f.fs.onSync == nil {
		return nil
	}
	return f.fs.onSync(n)
}

// faultFS is a store whose file name suffers the scripted faults.
func faultFS(fs iosim.FS, name string, faults map[int64]mp.FaultKind) *scriptFS {
	return &scriptFS{FS: fs, file: name, faults: faults}
}

// heldAppend opens a journal on fs and starts appending job-0, returning
// once that append's fsync (the store's second: the first is the startup
// snapshot's) is in flight and held. Closing release lets it return;
// first then delivers the append's result.
func heldAppend(t *testing.T, fs *scriptFS) (j *journal, first <-chan error, release chan struct{}) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	fs.onSync = func(n int64) error {
		if n == 2 {
			close(entered)
			<-release
		}
		return nil
	}
	j = testJournal(t, fs, 0, 0)
	result := make(chan error, 1)
	go func() { result <- j.append(submitRec("job-0", "a", "")) }()
	<-entered
	return j, result, release
}

// queued is the number of records waiting in the open batch.
func (j *journal) queued() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.open == nil {
		return 0
	}
	return len(j.open.recs)
}

// appendBehind starts one appender per id, each only after the one
// before it has joined the open batch, so the batch's arrival order is
// ids' order. It must be called while a flush is held. The returned
// function waits for all of them and returns their errors.
func appendBehind(j *journal, ids []string) (wait func() []error) {
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = j.append(submitRec(id, "a", ""))
		}()
		for j.queued() != i+1 {
			runtime.Gosched()
		}
	}
	return func() []error { wg.Wait(); return errs }
}

func liveIDs(j *journal) []string {
	var ids []string
	for _, jb := range j.liveJobs() {
		ids = append(ids, jb.ID)
	}
	return ids
}

// TestJournalReplayRoundTrip: submits, a dispatch, completions and a
// cancel survive a reopen — the live set comes back in arrival order
// with its attempt numbers, completed jobs are gone, and a keyed
// outcome is retrievable.
func TestJournalReplayRoundTrip(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs, 0, 0)
	mustAppend(t, j, submitRec("job-1", "a", "k1"))
	mustAppend(t, j, submitRec("job-2", "b", ""))
	mustAppend(t, j, submitRec("job-3", "a", ""))
	mustAppend(t, j, &walRec{Kind: recDispatch, Job: "job-2", Attempt: 1})
	mustAppend(t, j, &walRec{Kind: recComplete, Job: "job-1", OK: true, Key: "k1",
		Outcome: json.RawMessage(`{"job_id":"job-1"}`)})
	mustAppend(t, j, submitRec("job-4", "c", ""))
	mustAppend(t, j, &walRec{Kind: recCancel, Job: "job-4"})
	j.close()

	re := testJournal(t, fs, 0, 0)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 2 || live[0].ID != "job-2" || live[1].ID != "job-3" {
		t.Fatalf("live jobs = %+v, want job-2, job-3 in order", live)
	}
	if live[0].Attempt != 1 || live[1].Attempt != 0 {
		t.Fatalf("attempts = %d,%d want 1,0", live[0].Attempt, live[1].Attempt)
	}
	if live[0].Spec.Tenant != "b" || live[0].Spec.N != 32 {
		t.Fatalf("job-2 spec not preserved: %+v", live[0].Spec)
	}
	if n := re.jobNum(); n != 4 {
		t.Fatalf("jobNum = %d, want 4", n)
	}
	raw, ok := re.outcome("k1")
	if !ok || !strings.Contains(string(raw), "job-1") {
		t.Fatalf("outcome(k1) = %q, %v", raw, ok)
	}
	if got := re.statsSnapshot(); got.TruncatedTails != 0 {
		t.Fatalf("clean journal reported %d truncated tails", got.TruncatedTails)
	}
}

// corruptTail locates the single live segment and mangles it with f.
func corruptTail(t *testing.T, fs *iosim.MemFS, f func(name string)) {
	t.Helper()
	segs := segNames(fs)
	if len(segs) != 1 {
		t.Fatalf("want exactly one live segment, have %v", segs)
	}
	f(segs[0])
}

// TestJournalTornTailTruncated: garbage appended after the last valid
// record — a torn final write — is dropped at the last valid record,
// counted once, and never surfaces as a parse error.
func TestJournalTornTailTruncated(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs, 0, 0)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	mustAppend(t, j, submitRec("job-2", "a", ""))
	off := j.segOff
	j.close()

	corruptTail(t, fs, func(name string) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		// A frame head that promises more payload than the file holds.
		f.WriteAt([]byte{0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 'x'}, off)
	})

	re := testJournal(t, fs, 0, 0)
	defer re.close()
	if live := re.liveJobs(); len(live) != 2 {
		t.Fatalf("live jobs = %d, want 2 (valid prefix preserved)", len(live))
	}
	if got := re.statsSnapshot().TruncatedTails; got != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", got)
	}
}

// TestJournalCorruptRecordDropsSuffix: a byte flip inside an earlier
// record fails its checksum; that record and everything after it are
// untrusted and dropped, while the prefix survives.
func TestJournalCorruptRecordDropsSuffix(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs, 0, 0)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	boundary := j.segOff // start of job-2's frame
	mustAppend(t, j, submitRec("job-2", "a", ""))
	mustAppend(t, j, submitRec("job-3", "a", ""))
	j.close()

	corruptTail(t, fs, func(name string) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one payload byte of job-2's record.
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, boundary+walFrameHead); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		f.WriteAt(b, boundary+walFrameHead)
	})

	re := testJournal(t, fs, 0, 0)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 1 || live[0].ID != "job-1" {
		t.Fatalf("live jobs = %+v, want only job-1", live)
	}
	if got := re.statsSnapshot().TruncatedTails; got != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", got)
	}
}

// TestJournalRotationCompacts: the journal compacts when the records
// appended since the last snapshot weigh as much as that snapshot, and
// never before RotateBytes of them — so with every job staying live the
// snapshot doubles between rewrites and the rewrites are logarithmic in
// the appends, where comparing the segment's absolute size to the
// threshold rewrote it on every append once the snapshot outgrew it.
func TestJournalRotationCompacts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rotateAt int64
		want     int64 // compactions over 40 submits, startup's included
	}{
		{"snapshot-bound", 1, 7},
		{"floor-bound", 2048, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := iosim.NewMemFS()
			j := testJournal(t, fs, tc.rotateAt, 0)
			// The rule, restated: tail is the bytes appended since the
			// snapshot, snap that snapshot's size (the segment's size
			// right after a compaction).
			snap, tail, want := j.statsSnapshot().Bytes, int64(0), int64(1)
			var ids []string
			for i := 1; i <= 40; i++ {
				rec := submitRec(fmt.Sprintf("job-%d", i), "a", "")
				ids = append(ids, rec.Job)
				mustAppend(t, j, rec)
				payload, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				tail += walFrameHead + int64(len(payload))
				st := j.statsSnapshot()
				if tail >= max(tc.rotateAt, snap) {
					want, tail, snap = want+1, 0, st.Bytes
				}
				if st.Compactions != want {
					t.Fatalf("after append %d: Compactions = %d, the rule gives %d", i, st.Compactions, want)
				}
				if st.Bytes != snap+tail {
					t.Fatalf("after append %d: segment is %d bytes, want snapshot %d + tail %d", i, st.Bytes, snap, tail)
				}
			}
			if want != tc.want {
				t.Fatalf("Compactions = %d over 40 appends, want %d", want, tc.want)
			}
			if segs := segNames(fs); len(segs) != 1 {
				t.Fatalf("segments after rotation = %v, want exactly one", segs)
			}
			j.close()

			re := testJournal(t, fs, 0, 0)
			defer re.close()
			if got := liveIDs(re); !slices.Equal(got, ids) {
				t.Fatalf("live after compaction = %v, want %v", got, ids)
			}
		})
	}
}

// TestJournalSteadyStateWriteAmplification: with the retained outcomes
// full (256 of ~4 KB, a ~1 MB snapshot — the state in which the old
// absolute-size trigger rewrote the snapshot on every append), every
// snapshot but the last is paid for by the tail that follows it, so the
// bytes written stay within twice the bytes appended plus one snapshot,
// and the segment within twice its snapshot plus RotateBytes.
func TestJournalSteadyStateWriteAmplification(t *testing.T) {
	fs := &scriptFS{FS: iosim.NewMemFS()}
	j := testJournal(t, fs, 0, 256)
	defer j.close()
	wrote0 := fs.wrote.Load()
	var appended, maxFrame int64
	for i := 0; i < 1000; i++ {
		rec := &walRec{Kind: recComplete, Job: fmt.Sprintf("job-%d", i), OK: true,
			Key: fmt.Sprintf("key-%d", i), Outcome: outcome4K}
		mustAppend(t, j, rec)
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frame := walFrameHead + int64(len(payload))
		appended, maxFrame = appended+frame, max(maxFrame, frame)
		if size := j.statsSnapshot().Bytes; size > 2*j.snapEnd+j.rotateAt+maxFrame {
			t.Fatalf("after append %d: segment is %d bytes over a %d-byte snapshot", i, size, j.snapEnd)
		}
	}
	wrote := fs.wrote.Load() - wrote0
	if wrote > 2*appended+j.snapEnd {
		t.Fatalf("wrote %d bytes for %d appended over a %d-byte snapshot: amplification above 2", wrote, appended, j.snapEnd)
	}
	if st := j.statsSnapshot(); st.Compactions < 2 || st.Compactions > 5 {
		t.Fatalf("Compactions = %d over 1000 appends (~4 MB) at a ~1 MB snapshot, want a handful", st.Compactions)
	}
	t.Logf("appended %d B, wrote %d B (x%.2f), %d compactions, snapshot %d B",
		appended, wrote, float64(wrote)/float64(appended), j.statsSnapshot().Compactions, j.snapEnd)
}

// TestJournalFailedCompactionSurfaces: a compaction that cannot create
// or write its new segment degrades the journal and is returned by the
// append that triggered it; that append's record is durable all the
// same, in the old segment, which is left in place and still replays.
func TestJournalFailedCompactionSurfaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   int64 // on the new segment: 0 is its create, 1 its snapshot write
	}{{"create", 0}, {"write", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			mem := iosim.NewMemFS()
			chaos := faultFS(mem, segName(2), map[int64]mp.FaultKind{tc.op: mp.IOPermanent})
			// With a 1-byte floor the first record outweighs the empty
			// startup snapshot, so the first append compacts.
			j := testJournal(t, chaos, 1, 0)
			err := j.append(submitRec("job-1", "a", ""))
			if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "journal s") {
				t.Fatalf("append whose compaction failed = %v, want ErrDegraded naming the segment step", err)
			}
			st := j.statsSnapshot()
			if !st.Degraded || st.AppendErrors != 1 || st.RecordsAppended != 1 || st.Compactions != 1 {
				t.Fatalf("stats after failed compaction = %+v", st)
			}
			if err := j.append(submitRec("job-2", "a", "")); !errors.Is(err, ErrDegraded) {
				t.Fatalf("append after failed compaction = %v, want ErrDegraded", err)
			}
			j.close()
			if segs := segNames(mem); len(segs) != 1 || segs[0] != segName(1) {
				t.Fatalf("segments after failed compaction = %v, want only %s", segs, segName(1))
			}
			re := testJournal(t, mem, 0, 0)
			defer re.close()
			if got := liveIDs(re); !slices.Equal(got, []string{"job-1"}) {
				t.Fatalf("live after failed compaction = %v, want job-1", got)
			}
		})
	}
}

// TestJournalTornWriteHealedByRetry: a chaos-torn append (half the
// frame reaches the file, transient error) is healed by the retry
// rewriting the same offset; the record is durable and replays.
func TestJournalTornWriteHealedByRetry(t *testing.T) {
	mem := iosim.NewMemFS()
	seg1 := segName(1)
	// Op 0 is the segment create, op 1 the snapshot write; op 2 is the
	// first append.
	chaos := faultFS(mem, seg1, map[int64]mp.FaultKind{2: mp.IOShortWrite})
	j := testJournal(t, chaos, 0, 0)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	if got := chaos.torn.Load(); got != 1 {
		t.Fatalf("short writes injected = %d, want 1", got)
	}
	if st := j.statsSnapshot(); st.Degraded || st.RecordsAppended != 1 {
		t.Fatalf("stats after healed tear = %+v", st)
	}
	j.close()

	re := testJournal(t, mem, 0, 0)
	defer re.close()
	if live := re.liveJobs(); len(live) != 1 || live[0].ID != "job-1" {
		t.Fatalf("live jobs = %+v, want job-1", live)
	}
}

// TestJournalDegradedOnPersistentFault: a permanent write fault marks
// the journal degraded — sticky — and every later append fails with
// ErrDegraded without touching the disk.
func TestJournalDegradedOnPersistentFault(t *testing.T) {
	mem := iosim.NewMemFS()
	chaos := faultFS(mem, segName(1), map[int64]mp.FaultKind{2: mp.IOPermanent})
	j := testJournal(t, chaos, 0, 0)
	err := j.append(submitRec("job-1", "a", ""))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append under permanent fault = %v, want ErrDegraded", err)
	}
	if !j.degraded() {
		t.Fatal("journal not marked degraded")
	}
	if err := j.append(submitRec("job-2", "a", "")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degradation = %v, want ErrDegraded", err)
	}
	st := j.statsSnapshot()
	if st.AppendErrors != 1 || st.RecordsAppended != 0 {
		t.Fatalf("stats after degradation = %+v", st)
	}
	j.close()

	// The failed record never became durable: a restart owes nothing.
	re := testJournal(t, mem, 0, 0)
	defer re.close()
	if live := re.liveJobs(); len(live) != 0 {
		t.Fatalf("live jobs after degraded append = %+v, want none", live)
	}
}

// TestJournalTransientFaultRetried: a transient write fault is retried
// under the policy and the append succeeds.
func TestJournalTransientFaultRetried(t *testing.T) {
	mem := iosim.NewMemFS()
	chaos := faultFS(mem, segName(1), map[int64]mp.FaultKind{2: mp.IOTransient, 3: mp.IOTransient})
	j := testJournal(t, chaos, 0, 0)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	defer j.close()
	if st := j.statsSnapshot(); st.Degraded || st.RecordsAppended != 1 {
		t.Fatalf("stats after retried transients = %+v", st)
	}
}

// TestJournalFsyncsOnOSFS: on a real file system every durable write is
// fsynced and counted.
func TestJournalFsyncsOnOSFS(t *testing.T) {
	fs, err := iosim.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJournal(t, fs, 0, 0)
	defer j.close()
	mustAppend(t, j, submitRec("job-1", "a", ""))
	st := j.statsSnapshot()
	if st.Fsyncs < 2 { // snapshot + append
		t.Fatalf("Fsyncs = %d, want >= 2", st.Fsyncs)
	}
}

// TestJournalCrashMidCompactionReplaysCleanly: a crash between writing
// the fresh compaction snapshot and deleting the predecessor segment
// leaves both generations on disk. Replaying both is harmless — the
// compact record resets the state — and the live set is not duplicated.
func TestJournalCrashMidCompactionReplaysCleanly(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs, 0, 0)
	mustAppend(t, j, submitRec("job-1", "a", ""))
	mustAppend(t, j, submitRec("job-2", "a", ""))
	j.close()

	// Save the pre-compaction segment's bytes.
	stale := segNames(fs)[0]
	f, err := fs.Open(stale)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _ := f.ReadAt(buf, 0)
	content := buf[:n]

	// Reopen compacts into the next segment and deletes the old one;
	// resurrect the old segment as if that deletion never happened.
	j2 := testJournal(t, fs, 0, 0)
	j2.close()
	g, err := fs.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	g.WriteAt(content, 0)

	re := testJournal(t, fs, 0, 0)
	defer re.close()
	live := re.liveJobs()
	if len(live) != 2 || live[0].ID != "job-1" || live[1].ID != "job-2" {
		t.Fatalf("live after dual-lineage replay = %+v, want job-1, job-2", live)
	}
	if got := re.statsSnapshot().TruncatedTails; got != 0 {
		t.Fatalf("TruncatedTails = %d, want 0", got)
	}
}

// TestJournalOutcomeRetentionBounded: the keyed-outcome store is a
// bounded FIFO; old outcomes are evicted, and the bound survives
// compaction.
func TestJournalOutcomeRetentionBounded(t *testing.T) {
	fs := iosim.NewMemFS()
	j := testJournal(t, fs, 0, 2)
	for i, key := range []string{"k1", "k2", "k3"} {
		id := string(rune('1' + i))
		mustAppend(t, j, submitRec("job-"+id, "a", key))
		mustAppend(t, j, &walRec{Kind: recComplete, Job: "job-" + id, OK: true, Key: key,
			Outcome: json.RawMessage(`{"job_id":"job-` + id + `"}`)})
	}
	if _, ok := j.outcome("k1"); ok {
		t.Fatal("k1 survived past the retention bound")
	}
	for _, key := range []string{"k2", "k3"} {
		if _, ok := j.outcome(key); !ok {
			t.Fatalf("%s missing from retained outcomes", key)
		}
	}
	j.close()

	re := testJournal(t, fs, 0, 2)
	defer re.close()
	if _, ok := re.outcome("k3"); !ok {
		t.Fatal("retained outcome lost across restart")
	}
}

// TestJournalSyncFailureDegrades: an fsync that fails for good is a
// write that failed — the record is refused with ErrDegraded, counted
// neither as appended nor as synced, and not visible in the replay
// state — where the error used to be dropped and the record acknowledged.
func TestJournalSyncFailureDegrades(t *testing.T) {
	fs := &scriptFS{FS: iosim.NewMemFS()}
	fs.onSync = func(n int64) error {
		if n >= 3 { // 1 is the startup snapshot, 2 the first append
			return errors.New("fsync: input/output error")
		}
		return nil
	}
	j := testJournal(t, fs, 0, 0)
	defer j.close()
	mustAppend(t, j, submitRec("job-1", "a", "k1"))
	before := j.statsSnapshot()

	err := j.append(&walRec{Kind: recComplete, Job: "job-1", OK: true, Key: "k1",
		Outcome: json.RawMessage(`{"job_id":"job-1"}`)})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append whose fsync failed = %v, want ErrDegraded", err)
	}
	st := j.statsSnapshot()
	if st.Fsyncs != before.Fsyncs || st.RecordsAppended != before.RecordsAppended {
		t.Fatalf("failed fsync counted: before %+v, after %+v", before, st)
	}
	if !st.Degraded || st.AppendErrors != 1 || !j.degraded() {
		t.Fatalf("journal not degraded after a failed fsync: %+v", st)
	}
	if _, ok := j.outcome("k1"); ok {
		t.Fatal("outcome of an unsynced completion is visible")
	}
	if got := liveIDs(j); !slices.Equal(got, []string{"job-1"}) {
		t.Fatalf("live = %v, want job-1 still live (its completion was refused)", got)
	}
	if got := fs.syncs.Load(); got != 3 {
		t.Fatalf("Sync calls = %d, want 3 (a persistent error is not retried)", got)
	}
}

// TestJournalSyncFailureTransientRetried: a transient fsync error is
// healed the way a torn write is — the batch is written and synced again
// — and the record is appended once and replays.
func TestJournalSyncFailureTransientRetried(t *testing.T) {
	mem := iosim.NewMemFS()
	fs := &scriptFS{FS: mem}
	fs.onSync = func(n int64) error {
		if n == 2 {
			return iosim.MarkTransient(errors.New("fsync: interrupted"))
		}
		return nil
	}
	j, err := openJournal(fs, 0, iosim.RetryPolicy{MaxRetries: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrote := fs.wrote.Load()
	mustAppend(t, j, submitRec("job-1", "a", ""))
	st := j.statsSnapshot()
	if st.Degraded || st.RecordsAppended != 1 || st.Fsyncs != 2 || fs.syncs.Load() != 3 {
		t.Fatalf("stats after a retried fsync = %+v with %d Sync calls, want 1 record, 2 counted fsyncs, 3 calls", st, fs.syncs.Load())
	}
	if got := fs.wrote.Load() - wrote; got != 2*(st.Bytes-j.snapEnd) {
		t.Fatalf("wrote %d bytes for a %d-byte record: the retry must rewrite the batch, not only sync again", got, st.Bytes-j.snapEnd)
	}
	j.close()

	re := testJournal(t, mem, 0, 0)
	defer re.close()
	if got := liveIDs(re); !slices.Equal(got, []string{"job-1"}) {
		t.Fatalf("live after reopen = %v, want job-1 exactly once", got)
	}
}

// TestJournalGroupCommit: appends that arrive while an fsync is in
// flight share the next one — k+1 records cost two fsyncs — replay in
// arrival order, and the readers do not wait behind the held fsync.
func TestJournalGroupCommit(t *testing.T) {
	mem := iosim.NewMemFS()
	fs := &scriptFS{FS: mem}
	j, first, release := heldAppend(t, fs)
	ids := []string{"job-1", "job-2", "job-3", "job-4", "job-5"}
	wait := appendBehind(j, ids)

	// Nothing is acknowledged or visible yet, and asking does not block.
	if st := j.statsSnapshot(); st.RecordsAppended != 0 || st.Fsyncs != 1 {
		t.Fatalf("stats while the first fsync is held = %+v", st)
	}
	if _, ok := j.outcome("none"); ok || j.degraded() || len(j.liveJobs()) != 0 {
		t.Fatal("replay state moved before the fsync returned")
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first append: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("append %s: %v", ids[i], err)
		}
	}
	st := j.statsSnapshot()
	if got := fs.syncs.Load(); got != 3 || st.Fsyncs != 3 || st.RecordsAppended != 6 {
		t.Fatalf("%d Sync calls, stats %+v; want the startup snapshot's fsync plus 2 for 6 records", got, st)
	}
	j.close()

	re := testJournal(t, mem, 0, 0)
	defer re.close()
	if got, want := liveIDs(re), append([]string{"job-0"}, ids...); !slices.Equal(got, want) {
		t.Fatalf("replay order = %v, want arrival order %v", got, want)
	}
}

// TestJournalFailedBatchFailsEveryMember: a batch whose write fails is
// refused whole — every member gets ErrDegraded and none of its records
// is applied.
func TestJournalFailedBatchFailsEveryMember(t *testing.T) {
	// Ops 0-1 are the segment's create and snapshot write, 2 the first
	// batch, 3 the second.
	j, first, release := heldAppend(t, faultFS(iosim.NewMemFS(), segName(1), map[int64]mp.FaultKind{3: mp.IOPermanent}))
	defer j.close()
	ids := []string{"job-1", "job-2", "job-3"}
	wait := appendBehind(j, ids)
	close(release)

	if err := <-first; err != nil {
		t.Fatalf("first append: %v", err)
	}
	for i, err := range wait() {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("append %s in the failed batch = %v, want ErrDegraded", ids[i], err)
		}
	}
	if got := liveIDs(j); !slices.Equal(got, []string{"job-0"}) {
		t.Fatalf("live = %v, want only job-0: a failed batch applies nothing", got)
	}
	if st := j.statsSnapshot(); st.RecordsAppended != 1 || st.AppendErrors != 1 || !st.Degraded {
		t.Fatalf("stats after the failed batch = %+v", st)
	}
}

// TestJournalKillAndCloseDuringFlush: kill and close arriving while a
// flush is held let it finish — its record is acknowledged and replays —
// and start no other: the batch queued behind it fails with ErrDegraded,
// and nothing deadlocks.
func TestJournalKillAndCloseDuringFlush(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(j *journal) (stopped chan struct{})
	}{
		{"kill", func(j *journal) chan struct{} {
			j.kill() // does not wait for the flush
			return nil
		}},
		{"close", func(j *journal) chan struct{} {
			stopped := make(chan struct{})
			go func() { j.close(); close(stopped) }()
			for dead := false; !dead; runtime.Gosched() {
				j.mu.Lock()
				dead = j.dead
				j.mu.Unlock()
			}
			return stopped
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := iosim.NewMemFS()
			j, first, release := heldAppend(t, &scriptFS{FS: mem})
			ids := []string{"job-1", "job-2"}
			wait := appendBehind(j, ids)
			stopped := tc.stop(j)
			close(release)

			if err := <-first; err != nil {
				t.Fatalf("the append in flight = %v, want it acknowledged", err)
			}
			for i, err := range wait() {
				if !errors.Is(err, ErrDegraded) {
					t.Fatalf("append %s queued behind the stop = %v, want ErrDegraded", ids[i], err)
				}
			}
			if stopped != nil {
				<-stopped
			}
			if st := j.statsSnapshot(); st.Degraded || st.RecordsAppended != 1 {
				t.Fatalf("stats after %s = %+v: the disk is fine, one record landed", tc.name, st)
			}
			j.close()

			re := testJournal(t, mem, 0, 0)
			defer re.close()
			if got := liveIDs(re); !slices.Equal(got, []string{"job-0"}) {
				t.Fatalf("live after reopen = %v, want the acknowledged job-0 only", got)
			}
		})
	}
}

// outcome4K is a retained outcome of about 4 KB, the size served
// responses have.
var outcome4K = func() json.RawMessage {
	raw, err := json.Marshal(map[string]string{"pad": strings.Repeat("x", 4000)})
	if err != nil {
		panic(err)
	}
	return raw
}()

// benchJournal opens a journal on fs whose 256 retained outcomes are
// already full, so every measured append sees the steady state.
func benchJournal(b *testing.B, fs *scriptFS) *journal {
	b.Helper()
	j, err := openJournal(fs, 0, iosim.DefaultRetryPolicy(), 256)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := j.append(benchRec(-1 - int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	return j
}

func benchRec(n int64) *walRec {
	id := fmt.Sprintf("job-%d", n)
	return &walRec{Kind: recComplete, Job: id, OK: true, Key: id, Outcome: outcome4K}
}

// reportJournal reports what the measured appends cost the disk.
func reportJournal(b *testing.B, fs *scriptFS, syncs0, wrote0 int64) {
	b.ReportMetric(float64(fs.syncs.Load()-syncs0)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(fs.wrote.Load()-wrote0)/float64(b.N), "B-written/op")
}

// BenchmarkJournalAppend is the per-record cost of a durable append in
// the steady state (256 retained ~4 KB outcomes, MemFS, compactions
// included): serial, and from parallel appenders over an fsync that
// costs a fixed 50 µs, where group commit shows as fsyncs/op below 1.
func BenchmarkJournalAppend(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		fs := &scriptFS{FS: iosim.NewMemFS()}
		j := benchJournal(b, fs)
		defer j.close()
		syncs0, wrote0 := fs.syncs.Load(), fs.wrote.Load()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := j.append(benchRec(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportJournal(b, fs, syncs0, wrote0)
	})
	b.Run("parallel", func(b *testing.B) {
		fs := &scriptFS{FS: iosim.NewMemFS()}
		fs.onSync = func(int64) error {
			for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
			}
			return nil
		}
		j := benchJournal(b, fs)
		defer j.close()
		syncs0, wrote0 := fs.syncs.Load(), fs.wrote.Load()
		var seq atomic.Int64
		b.ReportAllocs()
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := j.append(benchRec(seq.Add(1))); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		reportJournal(b, fs, syncs0, wrote0)
	})
}

// readCounter counts ReadAt calls; sized additionally forwards the
// length of the file under it, which embedding alone hides.
type readCounter struct {
	iosim.File
	reads int
}

func (r *readCounter) ReadAt(p []byte, off int64) (int, error) {
	r.reads++
	return r.File.ReadAt(p, off)
}

type sizedCounter struct{ readCounter }

func (s *sizedCounter) Size() int64 {
	n, _ := iosim.FileSize(s.File)
	return n
}

// TestReadWholeSizedAndFallback: replay reads a segment with one exactly
// sized request when the handle knows its length — in memory, on an OS
// file, through a wrapper that reports it — and by growing until EOF when
// a wrapper hides it (bench's countFile does); both see the same bytes.
func TestReadWholeSizedAndFallback(t *testing.T) {
	want := bytes.Repeat([]byte("segment "), 5000) // 40 kB: several ReadAll growth steps
	osfs, err := iosim.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]iosim.FS{
		"mem":     iosim.NewMemFS(),
		"os":      osfs,
		"wrapper": &scriptFS{FS: iosim.NewMemFS()},
	}
	for name, fs := range stores {
		f, err := fs.Create("seg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		if n, ok := iosim.FileSize(f); !ok || n != int64(len(want)) {
			t.Fatalf("%s: FileSize = %d, %v, want %d", name, n, ok, len(want))
		}
		sized := &sizedCounter{readCounter{File: f}}
		if got, err := readWhole(sized); err != nil || !bytes.Equal(got, want) || sized.reads != 1 {
			t.Fatalf("%s, sized: %d bytes in %d reads, err %v; want %d in 1", name, len(got), sized.reads, err, len(want))
		}
		hidden := &readCounter{File: f}
		if _, ok := iosim.FileSize(hidden); ok {
			t.Fatalf("%s: an embedding wrapper still reports a size", name)
		}
		if got, err := readWhole(hidden); err != nil || !bytes.Equal(got, want) || hidden.reads < 2 {
			t.Fatalf("%s, hidden: %d bytes in %d reads, err %v", name, len(got), hidden.reads, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendRecordMatchesMarshal: every record's payload is the bytes
// json.Marshal makes of it, appended after what dst held, and its frame
// carries the payload's length and checksum. The records are of every
// kind and hold what json.Marshal escapes — HTML-special characters,
// U+2028 and U+2029, quotes, backslashes, invalid UTF-8 — in values and
// in keys; the snapshots go with and without each of their lists.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	outcome := func(r Response) json.RawMessage {
		raw, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	three := 3
	spec := Request{Tenant: "<a&b>", Source: "PROGRAM x\n\tEND", N: 64, Procs: 4, Chaos: 0.02,
		Retries: &three, LoseDisk: "1@40", IdempotencyKey: "k\u2028", TenantWeight: 2}
	special := outcome(Response{JobID: "job-1", Tenant: "<a&b>", Program: "x\u2028y\u2029z", SimSeconds: 1.5e-7})
	jobs := []*walJob{{ID: "job-7", Tenant: "<t>", Key: `k"&\`, Spec: spec, Fingerprint: "fp", Attempt: 1}, nil}
	outcomes := []*walOutcome{{Key: "k<1>\u2029", Response: special}, {Key: "k2", Response: json.RawMessage(`{}`)}}
	weights := map[string]int{"<b>": 2, "a": 1, "\u2028": 5}
	for name, rec := range map[string]*walRec{
		"submit": {Kind: recSubmit, Job: "job-1", Tenant: "<a&b>", Key: "k\"\\<\u2028", Weight: 3,
			Spec: &spec, Fingerprint: "fp&"},
		"dispatch":         {Kind: recDispatch, Job: "job-1", Attempt: 2},
		"complete":         {Kind: recComplete, Job: "job-1", Tenant: "<a&b>", OK: true, Key: "k>\u2029", Outcome: special},
		"complete unkeyed": {Kind: recComplete, Job: "job-1", Tenant: "t", OK: true},
		"complete failed":  {Kind: recComplete, Job: "job-1", Tenant: "t", Error: "boom <&> \u2028 \xff"},
		"cancel":           {Kind: recCancel, Job: "job-1", Error: "context canceled"},
		"every field": {Kind: "x", Job: "j", Tenant: "t", Key: "k", Weight: 1, Spec: &spec, Fingerprint: "f",
			Attempt: 1, OK: true, Outcome: special, Error: "e", Snapshot: &walSnapshot{JobNum: 1}},
		"empty":                    {},
		"empty snapshot":           {Kind: recCompact, Snapshot: &walSnapshot{}},
		"snapshot":                 {Kind: recCompact, Snapshot: &walSnapshot{JobNum: 7, Jobs: jobs, Outcomes: outcomes, Weights: weights}},
		"snapshot outcomes only":   {Kind: recCompact, Snapshot: &walSnapshot{JobNum: 9, Outcomes: outcomes[:1]}},
		"snapshot without outcome": {Kind: recCompact, Snapshot: &walSnapshot{JobNum: -1, Jobs: jobs, Weights: weights}},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := appendRecord([]byte("head"), rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(got, []byte("head")) || !bytes.Equal(got[4:], want) {
			t.Errorf("%s:\n got %s\nwant head%s", name, got, want)
		}
		frame, err := appendFrame(nil, rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := appendPayload(nil, want); !bytes.Equal(frame, want) {
			t.Errorf("%s: frame %x, want %x", name, frame, want)
		}
	}
}

// TestAppendRecordFailsLikeMarshal: a record json.Marshal cannot encode
// fails here too, and leaves dst as it was.
func TestAppendRecordFailsLikeMarshal(t *testing.T) {
	bad := Request{Chaos: math.NaN()}
	for name, rec := range map[string]*walRec{
		"submit":   {Kind: recSubmit, Spec: &bad},
		"snapshot": {Kind: recCompact, Snapshot: &walSnapshot{Jobs: []*walJob{{Spec: bad}}}},
	} {
		if _, err := json.Marshal(rec); err == nil {
			t.Fatalf("%s: json.Marshal accepted the record", name)
		}
		got, err := appendFrame([]byte("dst"), rec)
		if err == nil || string(got) != "dst" {
			t.Errorf("%s: appendFrame = %q, %v; want dst unchanged and an error", name, got, err)
		}
	}
}

// keepFS is a MemFS that keeps the bytes of every file it removes.
type keepFS struct {
	*iosim.MemFS
	removed map[string][]byte
}

func (k *keepFS) Remove(name string) error {
	if f, err := k.MemFS.Open(name); err == nil {
		k.removed[name], _ = readWhole(f)
		f.Close()
	}
	return k.MemFS.Remove(name)
}

// TestServedJournalMatchesMarshal drives a server with keyed jobs —
// completed, failed and deduplicated, under tenants and keys that need
// escaping — through several compactions, then checks every frame of
// every segment it wrote, the removed ones included: its payload is the
// bytes json.Marshal makes of the record it decodes to.
func TestServedJournalMatchesMarshal(t *testing.T) {
	fs := &keepFS{MemFS: iosim.NewMemFS(), removed: make(map[string][]byte)}
	s, err := Open(Config{Workers: 1, Journal: &JournalConfig{FS: fs, RotateBytes: 1, MaxOutcomes: 3}})
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[string]int)
	var kept []walOutcome // the outcomes to retain, oldest first
	for i := 0; i < 10; i++ {
		req := Request{Tenant: fmt.Sprintf("<t&%d>", i%2), N: 32, Procs: 4, MemElems: 300,
			IdempotencyKey: fmt.Sprintf("k<%d>\u2028", i), TenantWeight: 1 + i%3}
		if i%4 == 3 {
			req.LoseDisk = "bogus"
		}
		weights[req.Tenant] = req.TenantWeight
		resp, err := s.Submit(context.Background(), req)
		if (err != nil) != (i%4 == 3) {
			t.Fatalf("job %d: %v", i, err)
		}
		if err == nil {
			raw, err := appendResponse(nil, resp)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, walOutcome{Key: req.IdempotencyKey, Response: raw})
		}
	}
	if resp, err := s.Submit(context.Background(), Request{Tenant: "<t&0>", N: 32, Procs: 4, MemElems: 300,
		IdempotencyKey: "k<8>\u2028"}); err != nil || !resp.Deduplicated {
		t.Fatalf("retried submit: deduplicated %v, %v", resp != nil && resp.Deduplicated, err)
	}
	if c := s.MetricsSnapshot().Journal.Compactions; c < 3 {
		t.Fatalf("%d compactions, want the startup one and at least two more", c)
	}
	s.Close()

	segs := fs.removed
	for _, name := range segNames(fs) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		segs[name], _ = readWhole(f)
		f.Close()
	}
	kinds := make(map[string]int)
	for name, data := range segs {
		if !bytes.HasPrefix(data, []byte(walMagic)) {
			t.Fatalf("%s: no magic", name)
		}
		for data = data[len(walMagic):]; len(data) > 0; {
			n := int(binary.BigEndian.Uint32(data))
			payload := data[walFrameHead : walFrameHead+n]
			data = data[walFrameHead+n:]
			var rec walRec
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, want) {
				t.Fatalf("%s: %s record\n got %s\nwant %s", name, rec.Kind, payload, want)
			}
			switch {
			case rec.Kind == recComplete && rec.Outcome != nil:
				kinds["complete with outcome"]++
			case rec.Kind == recComplete && rec.Error != "":
				kinds["complete failed"]++
			case rec.Kind == recCompact && len(rec.Snapshot.Outcomes) > 0:
				kinds["compact with outcomes"]++
			default:
				kinds[rec.Kind]++
			}
		}
	}
	for _, kind := range []string{recSubmit, recDispatch, "complete with outcome", "complete failed", "compact with outcomes"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s record among %v", kind, kinds)
		}
	}

	// What the segments hold is what the session did: the last three
	// outcomes, each the bytes of the reply its submitter got, and
	// every tenant's last weight.
	re := testJournal(t, fs, 0, 3)
	defer re.close()
	got := viewOf(re.state)
	if got.JobNum != 10 || len(got.Jobs) != 0 || !reflect.DeepEqual(got.Weights, weights) {
		t.Fatalf("replayed job number %d, live jobs %v, weights %v; want 10, none, %v", got.JobNum, got.Jobs, got.Weights, weights)
	}
	kept = kept[len(kept)-3:]
	for i := range max(len(got.Outcomes), len(kept)) {
		if i >= len(got.Outcomes) || i >= len(kept) || got.Outcomes[i].Key != kept[i].Key ||
			!bytes.Equal(got.Outcomes[i].Response, kept[i].Response) {
			t.Fatalf("replayed outcomes %s\nwant %s", mustJSON(t, got.Outcomes), mustJSON(t, kept))
		}
	}
}
