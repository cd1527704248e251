package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
)

// replayed is what a journal knows after replay, in a form two
// generations can be compared in: an outcome's bytes are re-escaped by
// the snapshot that carries them forward, so outcomes compare as decoded
// JSON values.
type replayed struct {
	JobNum   int64
	Jobs     []walJob
	Outcomes map[string]any
	Weights  map[string]int
}

func replayedState(t *testing.T, j *journal) replayed {
	t.Helper()
	st := replayed{JobNum: j.jobNum(), Weights: j.tenantWeights(), Outcomes: make(map[string]any)}
	for _, jb := range j.liveJobs() {
		st.Jobs = append(st.Jobs, *jb)
	}
	for _, key := range j.state.outcomeOrder {
		var v any
		if err := json.Unmarshal(j.state.outcomes[key], &v); err != nil {
			t.Fatalf("retained outcome %q is not JSON: %v", key, err)
		}
		st.Outcomes[key] = v
	}
	return st
}

// validSegment is a segment as the journal writes it: a snapshot with
// live jobs, an outcome and a weight, then records of every kind.
func validSegment(t testing.TB) []byte {
	t.Helper()
	fs := iosim.NewMemFS()
	open := func() *journal {
		j, err := openJournal(fs, 0, iosim.RetryPolicy{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	write := func(j *journal, recs ...*walRec) {
		for _, rec := range recs {
			if err := j.append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	j := open()
	weighted := submitRec("job-1", "a", "k1")
	weighted.Weight = 3
	write(j, weighted, submitRec("job-2", "b", ""),
		&walRec{Kind: recComplete, Job: "job-1", OK: true, Key: "k1", Outcome: json.RawMessage(`{"job_id":"job-1"}`)})
	j.close()
	j = open() // the state so far becomes the new segment's snapshot
	write(j, submitRec("job-3", "a", "k3"),
		&walRec{Kind: recDispatch, Job: "job-2", Attempt: 1},
		&walRec{Kind: recCancel, Job: "job-3", Error: "gone"},
		&walRec{Kind: recComplete, Job: "job-2", Error: "boom"})
	name := segName(j.segIdx)
	j.close()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, 1<<16)
	n, _ := f.ReadAt(seg, 0)
	return seg[:n]
}

// FuzzReplay feeds arbitrary bytes to replay as the journal's only
// segment. Opening it never fails or panics, allocates in proportion to
// the bytes present whatever a length field claims, counts at most one
// truncated tail, and is idempotent: the journal it compacts the input
// into replays to the same state.
func FuzzReplay(f *testing.F) {
	seg := validSegment(f)
	for n := 0; n <= len(seg); n++ {
		f.Add(seg[:n])
	}
	hostile := binary.BigEndian.AppendUint32([]byte(walMagic), 64<<20-1)
	f.Add(append(hostile, "\xde\xad\xbe\xef{}"...))
	f.Add(appendFrame([]byte(walMagic), []byte("checksummed, not JSON")))
	f.Add(appendFrame([]byte(walMagic), []byte(`{"kind":"compact","snapshot":{"jobs":[null],"outcomes":[null]}}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := iosim.NewMemFS()
		seg, err := fs.Create(segName(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, err := openJournal(fs, 0, iosim.RetryPolicy{}, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+64*len(data)); got > limit {
			t.Fatalf("replaying %d bytes allocated %d, want at most %d", len(data), got, limit)
		}
		if got := j.statsSnapshot().TruncatedTails; got > 1 {
			t.Fatalf("TruncatedTails = %d for one segment", got)
		}
		first := replayedState(t, j)
		j.close()

		re, err := openJournal(fs, 0, iosim.RetryPolicy{}, 0)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		defer re.close()
		if got := re.statsSnapshot().TruncatedTails; got != 0 {
			t.Fatalf("the journal's own segment replayed with %d truncated tails", got)
		}
		if second := replayedState(t, re); !reflect.DeepEqual(first, second) {
			t.Fatalf("replay is not idempotent:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}

// FuzzJobSpec feeds arbitrary bytes to the decoder POST /jobs uses. It
// never panics, and a spec it accepts survives the journal's encoding
// unchanged — the canonical spec in the submit record is what a restart
// re-admits.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tenant":"a","source":"PROGRAM x","n":64,"procs":4,"mem_elems":2048,"force":"row-slab","machine":"modern",` +
		`"sieve":true,"prefetch":true,"phantom":true,"chaos":0.02,"chaos_corrupt":1e-3,"chaos_disk_loss":0.5,"chaos_seed":-7,` +
		`"lose_disk":"c.p1.laf@40","retries":0,"checkpoint":1,"parity":true,"kill_rank":"1@150","timeout_ms":5000,"trace":true,` +
		`"idempotency_key":"k","tenant_weight":3}`))
	f.Add([]byte(`{"n":64,"unknown":1}`))
	f.Add([]byte(`{"n":1e999}`))
	f.Add([]byte(`{"retries":null,"source":"\ud800< >"}`))
	f.Add([]byte(`{"n":64} trailing`))
	f.Add([]byte(`[`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec := req.withDefaults()
		payload, err := json.Marshal(&walRec{Kind: recSubmit, Job: "job-1", Spec: &spec})
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		var back walRec
		if err := json.Unmarshal(payload, &back); err != nil {
			t.Fatalf("decoding the journal's own record: %v", err)
		}
		if back.Spec == nil || !reflect.DeepEqual(*back.Spec, spec) {
			t.Fatalf("spec changed across the journal:\nbefore %+v\nafter  %+v", spec, back.Spec)
		}
	})
}
