package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/iosim"
)

// lockedBuffer is a log sink safe for the workers' concurrent writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// journalRecords reads every record still in fs's journal segments, in
// segment order, skipping snapshots.
func journalRecords(t *testing.T, fs iosim.FS) []*walRec {
	t.Helper()
	names := segNames(fs)
	sort.Strings(names)
	var out []*walRec
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := readWhole(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		data = data[len(walMagic):]
		for len(data) >= walFrameHead {
			n := int(binary.BigEndian.Uint32(data))
			var rec walRec
			if err := json.Unmarshal(data[walFrameHead:walFrameHead+n], &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Kind != recCompact {
				out = append(out, &rec)
			}
			data = data[walFrameHead+n:]
		}
	}
	return out
}

// waitFor polls cond until it holds or the test has waited too long.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// footprintOf is the admission reservation of req on a default server.
func footprintOf(t *testing.T, req Request) int64 {
	t.Helper()
	s, err := open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := &job{req: req.withDefaults()}
	if err := s.build(j); err != nil {
		t.Fatal(err)
	}
	return j.footprint
}

// TestCloseKeepsReplayedJobWaitingForMemory: a replayed job that a
// worker already took and that waits for memory when Close arrives is
// an orphan like a queued one. It has no submitter, so it writes no
// record and replays on the next Open; it is not failed.
func TestCloseKeepsReplayedJobWaitingForMemory(t *testing.T) {
	fs := iosim.NewMemFS()
	seedLiveJobs(t, fs, 2)
	s, err := open(Config{Workers: 2, MemoryBudget: footprintOf(t, *submitRec("", "a", "").Spec),
		Journal: &JournalConfig{FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	// Whichever job reserves first holds the whole budget at the gate;
	// the other worker's job waits for memory.
	held, release := make(chan string, 1), make(chan struct{})
	var once sync.Once
	s.pickupGate = func(j *job) {
		once.Do(func() {
			held <- j.id
			<-release
		})
	}
	s.start()
	holder := <-held
	waitFor(t, "both replayed jobs taken", func() bool { return s.MetricsSnapshot().Inflight == 2 })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "the waiting job orphaned", func() bool { return s.MetricsSnapshot().Orphaned == 1 })
	close(release)
	<-closed

	if m := s.MetricsSnapshot(); m.Completed != 1 || m.Failed != 0 || m.Orphaned != 1 {
		t.Errorf("completed=%d failed=%d orphaned=%d, want 1, 0 and 1", m.Completed, m.Failed, m.Orphaned)
	}
	j := testJournal(t, fs, 0, 0)
	defer j.close()
	waiter := "job-1"
	if holder == waiter {
		waiter = "job-2"
	}
	if got := liveIDs(j); !slices.Equal(got, []string{waiter}) {
		t.Errorf("live set after Close = %v, want [%s]", got, waiter)
	}
}

// TestSurfacesAgree runs one mix of jobs — complete, execution failure,
// timeout, busy, oversize, invalid and draining rejections, an
// idempotent dedup, a replay, and a Close with jobs still queued and
// jobs waiting for memory — and reads it back from four surfaces: the
// log, the journal, MetricsSnapshot and the Prometheus text. They must
// tell one story.
func TestSurfacesAgree(t *testing.T) {
	fs := iosim.NewMemFS()
	seedLiveJobs(t, fs, 1) // replayed as job-1, tenant a
	// One big job fills the budget; small ones finish in milliseconds.
	small := Request{N: 32, Procs: 4, MemElems: 300}
	big := func(r *Request) { r.N = 128 }
	bigReq := small
	big(&bigReq)
	var logs lockedBuffer
	s, err := Open(Config{Workers: 2, QueueLimit: 1, MemoryBudget: footprintOf(t, bigReq),
		Journal: &JournalConfig{FS: fs},
		Logger:  slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	waitFor(t, "the replayed job", func() bool { return s.MetricsSnapshot().Completed == 1 })

	with := func(tenant string, edit func(*Request)) Request {
		r := small
		r.Tenant = tenant
		if edit != nil {
			edit(&r)
		}
		return r
	}
	submit := func(req Request) error {
		_, err := s.Submit(ctx, req)
		return err
	}
	if err := submit(with("a", nil)); err != nil {
		t.Fatal(err)
	}
	if err := submit(with("b", func(r *Request) { r.LoseDisk = "bogus" })); err == nil {
		t.Fatal("execution failure reported success")
	}
	if err := submit(with("b", func(r *Request) { big(r); r.TimeoutMS = 1 })); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := submit(with("c", func(r *Request) { r.IdempotencyKey = "k" })); err != nil {
			t.Fatal(err)
		}
	}
	if err := submit(with("c", func(r *Request) { r.N, r.MemElems = 256, 1<<14 })); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize: %v", err)
	}
	if err := submit(with("c", func(r *Request) { r.Machine = "cray" })); err == nil {
		t.Fatal("bad machine accepted")
	}

	// The gate is set while both workers idle, after the replayed job
	// passed it.
	held, release := make(chan struct{}), make(chan struct{})
	s.pickupGate = func(j *job) {
		if j.req.Tenant == "hold" {
			close(held)
			<-release
		}
	}
	errs := make(chan error, 3)
	go func() { errs <- submit(with("hold", big)) }()
	<-held
	go func() { errs <- submit(with("a", big)) }() // waits for memory
	waitFor(t, "a job waiting for memory", func() bool { return s.MetricsSnapshot().Inflight == 2 })
	go func() { errs <- submit(with("b", nil)) }() // queued
	waitFor(t, "a queued job", func() bool { return s.MetricsSnapshot().QueueDepth == 1 })
	if err := submit(with("b", nil)); !errors.Is(err, ErrBusy) {
		t.Fatalf("busy: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "the close", func() bool { return s.MetricsSnapshot().Orphaned == 2 })
	if err := submit(with("c", nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: %v", err)
	}
	close(release)
	<-closed
	var drained int
	for i := 0; i < 3; i++ {
		if err := <-errs; errors.Is(err, ErrDraining) {
			drained++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if drained != 2 {
		t.Fatalf("%d submits orphaned by the close, want 2", drained)
	}

	// Surface 1: the metrics. Every global counter is the sum over
	// tenants, and the mix landed where the counters' meanings say.
	raw, err := json.Marshal(s.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Global  map[string]int64
		Tenants map[string]map[string]int64 `json:"tenants"`
	}
	var top map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Global = map[string]int64{}
	for k, v := range top {
		if f, ok := v.(float64); ok {
			m.Global[k] = int64(f)
		}
	}
	names := []string{"submitted", "completed", "failed", "cancelled", "orphaned", "deduplicated",
		"rejected", "rejected_oversize", "rejected_busy", "rejected_draining", "rejected_invalid"}
	want := map[string]int64{"submitted": 8, "completed": 4, "failed": 1, "cancelled": 1, "orphaned": 2,
		"deduplicated": 1, "rejected": 4, "rejected_oversize": 1, "rejected_busy": 1,
		"rejected_draining": 1, "rejected_invalid": 1}
	for _, name := range names {
		var sum int64
		for _, c := range m.Tenants {
			sum += c[name]
		}
		if g := m.Global[name]; g != sum || g != want[name] {
			t.Errorf("%s: global %d, tenants' sum %d, want %d", name, g, sum, want[name])
		}
	}
	if g := m.Global; g["submitted"] != g["completed"]+g["failed"]+g["cancelled"]+g["orphaned"] {
		t.Errorf("submitted %d != the sum of the terminal outcomes", g["submitted"])
	}

	// Surface 2: the Prometheus text carries the same numbers.
	var prom strings.Builder
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	samples := map[string]int64{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, v, err := parsePromSample(line)
		if err != nil {
			t.Fatal(err)
		}
		key := name + "|" + labels["tenant"] + "|" + labels["outcome"] + labels["reason"]
		samples[key] = int64(v)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "rejected_") {
			reason := strings.TrimPrefix(name, "rejected_")
			if got := samples["passion_serve_rejected_total||"+reason]; got != m.Global[name] {
				t.Errorf("rejected_total{reason=%q} = %d, JSON says %d", reason, got, m.Global[name])
			}
			continue
		}
		for tenant, c := range m.Tenants {
			if got := samples["passion_serve_tenant_jobs_total|"+tenant+"|"+name]; got != c[name] {
				t.Errorf("tenant_jobs_total{tenant=%q,outcome=%q} = %d, JSON says %d", tenant, name, got, c[name])
			}
		}
		if name == "rejected" {
			continue
		}
		if got := samples["passion_serve_jobs_total||"+name]; got != m.Global[name] {
			t.Errorf("jobs_total{outcome=%q} = %d, JSON says %d", name, got, m.Global[name])
		}
	}

	// Surface 3: the log. Every admitted job has exactly one "job
	// finished" line, and the lines count what the metrics count.
	type trail struct {
		msgs    []string
		outcome string
	}
	jobs := map[string]*trail{}
	lines := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(logs.buf.Bytes()))
	for sc.Scan() {
		var l struct{ Msg, Job, Outcome string }
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		lines[l.Msg]++
		if l.Job == "" || !strings.HasPrefix(l.Msg, "job ") {
			continue
		}
		tr := jobs[l.Job]
		if tr == nil {
			tr = &trail{}
			jobs[l.Job] = tr
		}
		tr.msgs = append(tr.msgs, l.Msg)
		if l.Msg == "job finished" {
			lines[l.Outcome]++
			tr.outcome = l.Outcome
		}
	}
	if got := lines["job submitted"] + lines["job replayed from journal"]; got != m.Global["submitted"] {
		t.Errorf("%d admission lines, %d submitted", got, m.Global["submitted"])
	}
	for _, name := range []string{"completed", "failed", "cancelled", "orphaned"} {
		if lines[name] != m.Global[name] {
			t.Errorf("%d job finished lines with outcome %s, metrics say %d", lines[name], name, m.Global[name])
		}
	}
	if lines["job deduplicated"] != m.Global["deduplicated"] || lines["job rejected"] != m.Global["rejected"] {
		t.Errorf("deduplicated/rejected lines %d/%d, metrics %d/%d", lines["job deduplicated"],
			lines["job rejected"], m.Global["deduplicated"], m.Global["rejected"])
	}

	// Surface 4: the journal. Every edge of every admitted job wrote the
	// record its row names, and nothing else.
	got := map[string][]string{}
	for _, rec := range journalRecords(t, fs) {
		got[rec.Job] = append(got[rec.Job], rec.Kind)
	}
	for id, tr := range jobs {
		if slices.Contains(tr.msgs, "job rejected") || slices.Contains(tr.msgs, "job deduplicated") {
			continue
		}
		finished := 0
		for _, msg := range tr.msgs {
			if msg == "job finished" {
				finished++
			}
		}
		if finished != 1 {
			t.Errorf("%s: log trail %v has not exactly one job finished line", id, tr.msgs)
		}
		var kinds []string
		replayed := slices.Contains(tr.msgs, "job replayed from journal")
		for _, msg := range tr.msgs {
			switch msg {
			case "job submitted":
				kinds = append(kinds, recSubmit)
			case "job dispatched":
				kinds = append(kinds, recDispatch)
			case "job finished":
				switch {
				case tr.outcome == "completed" || tr.outcome == "failed":
					kinds = append(kinds, recComplete)
				case tr.outcome == "cancelled" || tr.outcome == "orphaned" && !replayed:
					kinds = append(kinds, recCancel)
				}
			}
		}
		if !slices.Equal(got[id], kinds) {
			t.Errorf("%s: journal has %v, its log trail %v names %v", id, got[id], tr.msgs, kinds)
		}
	}
}

// TestNoLoggerBuildsNoRecord: a server without a Logger allocates
// nothing on a job's edges for logging.
func TestNoLoggerBuildsNoRecord(t *testing.T) {
	s, err := open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	j := &job{id: "job-1", req: Request{Tenant: "a"}, resp: &Response{}}
	s.transition(j, edgeComplete, nil) // creates the tenant's counters
	if n := testing.AllocsPerRun(100, func() {
		s.transition(j, edgeDispatch, nil)
		s.transition(j, edgeComplete, nil)
	}); n != 0 {
		t.Errorf("%v allocations per job without a logger, want 0", n)
	}
}

// TestUnencodableOutcomeLogged: a keyed outcome json.Marshal cannot
// encode is not retained — the complete record goes without key and
// outcome, so a retried submit runs the job again — and the loss is
// logged at Error with the job, tenant and key.
func TestUnencodableOutcomeLogged(t *testing.T) {
	fs := iosim.NewMemFS()
	var logs lockedBuffer
	s, err := Open(Config{Journal: &JournalConfig{FS: fs}, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	j := &job{id: "job-1", key: "k1", req: Request{Tenant: "a"}, resp: &Response{SimSeconds: math.NaN()}}
	if err := s.transition(j, edgeComplete, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.journal.outcome("k1"); ok {
		t.Error("an outcome that cannot be encoded was retained")
	}
	s.Close()

	var line map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logs.buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatal(err)
		}
		if m["level"] == "ERROR" {
			line = m
		}
	}
	if line == nil || line["job"] != "job-1" || line["tenant"] != "a" || line["key"] != "k1" ||
		!strings.Contains(fmt.Sprint(line["error"]), "NaN") {
		t.Errorf("error line %v, want one naming job-1, tenant a, key k1 and the NaN", line)
	}
	recs := journalRecords(t, fs)
	if len(recs) != 1 || recs[0].Kind != recComplete || !recs[0].OK || recs[0].Key != "" || recs[0].Outcome != nil {
		t.Fatalf("records %+v, want one complete record with no key and no outcome", recs)
	}
}
