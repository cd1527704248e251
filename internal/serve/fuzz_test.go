package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// stateView is a walState in a form two states built differently —
// two journal generations, or records applied before and after a trip
// through their encoding — compare in: nil and empty lists and maps are
// the same view, and a retained outcome, carried forward verbatim,
// compares as bytes.
type stateView struct {
	JobNum   int64
	Jobs     []walJob
	Outcomes []walOutcome
	Weights  map[string]int
}

func viewOf(st *walState) stateView {
	v := stateView{JobNum: st.jobNum}
	for _, jb := range st.jobs {
		v.Jobs = append(v.Jobs, *jb)
	}
	for _, key := range st.outcomeOrder {
		v.Outcomes = append(v.Outcomes, walOutcome{Key: key, Response: st.outcomes[key]})
	}
	if len(st.weights) > 0 {
		v.Weights = st.weights
	}
	return v
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

// appendPayload appends a frame holding payload, whatever it is, to dst.
func appendPayload(dst, payload []byte) []byte {
	at := len(dst)
	dst = append(append(dst, make([]byte, walFrameHead)...), payload...)
	sealFrame(dst[at:])
	return dst
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
	f.Add(appendPayload([]byte(walMagic), []byte("checksummed, not JSON")))
	f.Add(appendPayload([]byte(walMagic), []byte(`{"kind":"compact","snapshot":{"jobs":[null],"outcomes":[null]}}`)))
	f.Add(appendPayload([]byte(walMagic), []byte(`{"kind":"compact","snapshot":{"outcomes":[{"key":"k"}]}}`)))

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
		first := viewOf(j.state)
		for _, o := range first.Outcomes {
			if !json.Valid(o.Response) {
				t.Fatalf("retained outcome %q is not JSON: %q", o.Key, o.Response)
			}
		}
		j.close()

		re, err := openJournal(fs, 0, iosim.RetryPolicy{}, 0)
		if err != nil {
			t.Fatalf("reopening the compacted journal: %v", err)
		}
		defer re.close()
		if got := re.statsSnapshot().TruncatedTails; got != 0 {
			t.Fatalf("the journal's own segment replayed with %d truncated tails", got)
		}
		if second := viewOf(re.state); !reflect.DeepEqual(first, second) {
			t.Fatalf("replay is not idempotent:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}

// FuzzJobSpec feeds arbitrary bytes to the decoder POST /jobs uses. It
// never panics, a spec it accepts holds fault probabilities in [0, 1]
// and survives the journal's encoding unchanged — the canonical spec in the submit record is what a restart
// re-admits.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tenant":"a","source":"PROGRAM x","n":64,"procs":4,"mem_elems":2048,"force":"row-slab","machine":"modern",` +
		`"sieve":true,"prefetch":true,"phantom":true,"chaos":0.02,"chaos_corrupt":1e-3,"chaos_seed":-7,` +
		`"lose_disk":"1@40","retries":0,"checkpoint":1,"parity":true,"kill_rank":"1@150","timeout_ms":5000,"trace":true,` +
		`"idempotency_key":"k","tenant_weight":3}`))
	f.Add([]byte(`{"n":64,"unknown":1}`))
	f.Add([]byte(`{"n":1e999}`))
	f.Add([]byte(`{"retries":null,"source":"\ud800< >"}`))
	f.Add([]byte(`{"n":64} trailing`))
	f.Add([]byte(`[`))
	f.Add([]byte(`{"chaos":-0.5}`))
	f.Add([]byte(`{"chaos":1.5}`))
	f.Add([]byte(`{"chaos":NaN}`))
	f.Add([]byte(`{"chaos_corrupt":-0.5}`))
	f.Add([]byte(`{"chaos_corrupt":1.5}`))
	f.Add([]byte(`{"chaos_corrupt":NaN}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(req.Chaos >= 0 && req.Chaos <= 1 && req.ChaosCorrupt >= 0 && req.ChaosCorrupt <= 1) {
			t.Fatalf("accepted fault probabilities chaos %v, chaos_corrupt %v", req.Chaos, req.ChaosCorrupt)
		}
		spec := req.withDefaults()
		payload, err := appendRecord(nil, &walRec{Kind: recSubmit, Job: "job-1", Spec: &spec})
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

// FuzzJournalRecord builds records of every kind from the input — ids,
// tenants, keys, specs and errors cut from it, outcomes appendResponse
// makes of Responses filled from it, snapshots of the state the records
// so far built — and requires of each record that its payload is the
// bytes json.Marshal makes of it (or that both fail), and that the
// records decoded from the payloads replay through walState.apply to the
// state the records themselves build.
func FuzzJournalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00job-1\x00<a&b>\x02k \x01\x03\x05\x04\x03\x02\x06\x00"))
	f.Add([]byte("\x00\x01\x00\x02\x03\x01\x02\x05\x00\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x05"))
	f.Add([]byte("\x00\xff\xfe<\x00\xe2\x80\xa8\x03\x00\x7f\xf8\x00\x00\x00\x00\x00\x01\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		str := func() string {
			n := min(int(next()%8), len(data))
			s := strings.ToValidUTF8(string(data[:n]), "�")
			data = data[n:]
			return s
		}
		float := func() float64 {
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return math.Float64frombits(binary.BigEndian.Uint64(b[:]))
		}
		const maxOutcomes = 3
		direct, replayed := newWALState(maxOutcomes), newWALState(maxOutcomes)
		for steps := 0; len(data) > 0 && steps < 16; steps++ {
			rec := &walRec{Job: "job-" + str()}
			switch next() % 6 {
			case 0:
				retries := int(next())
				rec.Kind, rec.Tenant, rec.Key, rec.Weight = recSubmit, str(), str(), int(next()%4)
				rec.Spec = &Request{Tenant: rec.Tenant, Source: str(), N: int(next()), Chaos: float(),
					Retries: &retries, IdempotencyKey: rec.Key, TenantWeight: rec.Weight}
				rec.Fingerprint = str()
			case 1:
				rec.Kind, rec.Attempt = recDispatch, int(next())
			case 2:
				rec.Kind, rec.Tenant, rec.OK, rec.Key = recComplete, str(), true, str()
				resp := Response{JobID: rec.Job, Tenant: rec.Tenant, Program: str(), Strategy: str(),
					PlanFingerprint: str(), CacheHit: next()&1 != 0, Attempts: int(next()), SimSeconds: float()}
				resp.Stats.Procs = make([]trace.ProcStats, next()%3)
				for i := range resp.Stats.Procs {
					resp.Stats.Procs[i].IO.Seconds, resp.Stats.Procs[i].Flops = float(), int64(next())
				}
				if raw, err := appendResponse(nil, &resp); err == nil {
					rec.Outcome = raw
				}
			case 3:
				rec.Kind, rec.Tenant, rec.Error = recComplete, str(), str()
			case 4:
				rec.Kind, rec.Error = recCancel, str()
			case 5:
				rec = &walRec{Kind: recCompact, Snapshot: direct.snapshot()}
			}
			want, werr := json.Marshal(rec)
			got, err := appendRecord(nil, rec)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s record: appendRecord error %v, json.Marshal error %v", rec.Kind, err, werr)
			}
			if err != nil {
				continue // the journal refuses a record it cannot encode
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s record:\n got %s\nwant %s", rec.Kind, got, want)
			}
			var back walRec
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("%s record does not decode: %v", rec.Kind, err)
			}
			direct.apply(rec)
			replayed.apply(&back)
		}
		if d, r := viewOf(direct), viewOf(replayed); !reflect.DeepEqual(d, r) {
			t.Fatalf("the replayed state differs:\ndirect   %+v\nreplayed %+v", d, r)
		}
	})
}
