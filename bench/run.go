package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/hpf"
)

// header records where a run was made; -compare prints it above its
// table.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// runOpts shapes one run. The command line fixes scale at 1; the smoke
// test shrinks it.
type runOpts struct {
	seed    int64
	seconds float64
	// scale shrinks warm-up and grid sizes; setups overrides the
	// workload's set-up repetitions when positive.
	scale  float64
	setups int
	// minJobs is the least number of timed jobs of the untraced run, so
	// the percentiles have samples behind them however slow the machine.
	// The traced pass's four segments take a twentieth of it each.
	minJobs int
}

func (o runOpts) header(w *workload, trace int) header {
	return header{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cliutil.Version(),
	}
}

func (o runOpts) slice(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// result is one run of one workload.
type result struct {
	Header    header                 `json:"header"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the number of latencies behind the percentiles. Whole
	// holds an untraced run's whole-run throughput and 90th-percentile
	// latency: recorded and printed for the reader, not gated (see
	// README).
	Samples int                `json:"samples"`
	Whole   map[string]float64 `json:"whole_run,omitempty"`
	Checks  checks             `json:"checks"`
	Errors  []string           `json:"errors,omitempty"`

	// simS is the simulated seconds per job (the cost model's prediction
	// on compile_sweep); both run modes compute it and it must repeat
	// bitwise.
	simS float64
}

func (r *result) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

func (r *result) count(segs ...*segment) {
	for _, s := range segs {
		r.Attempted += s.jobs()
		r.Failed += s.failed
		if err := s.firstError(); err != nil {
			r.fail(err)
		}
	}
}

// checkAll runs the output checks of an instance after its timed work.
func (in *instance) checkAll(r *result) []*reference {
	refs, err := in.verify(&r.Checks)
	if err != nil {
		r.fail(err)
		return nil
	}
	for _, ref := range refs {
		if ref.stats != nil {
			r.simS += ref.snap.ElapsedSeconds
		} else {
			r.simS += ref.art.predicted
		}
	}
	r.simS /= float64(len(refs))
	if in.w.journal {
		if err := in.verifyReplay(&r.Checks); err != nil {
			r.fail(err)
		}
	}
	return refs
}

// runUntraced measures the end-to-end metrics: set-up (repeated, median
// reported), then one closed-loop segment with nothing recording, then
// the output checks.
func runUntraced(w *workload, o runOpts) (*result, error) {
	r := &result{Header: o.header(w, 0), Correct: true}
	setups := w.setups
	if o.setups > 0 {
		setups = o.setups
	}
	var (
		in     *instance
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = w.setup(o.seed, o.scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer in.close()

	seg := drive(in, nil, w.clientCount(), o.slice(1), o.minJobs)
	r.count(seg)
	r.Samples = seg.jobs()
	in.checkAll(r)

	_, setupMedian, _ := quartiles(setupS)
	jobsPerS, p50 := seg.medianOfParts()
	r.Whole = map[string]float64{
		"jobs_per_s": float64(seg.jobs()) / seg.elapsed.Seconds(),
		"job_p90_ms": seg.percentileMS(0.90),
	}
	r.Metrics = metricSet{
		"setup_s":          setupMedian,
		"jobs_per_s":       jobsPerS,
		"job_p50_ms":       p50,
		"alloc_kb_per_job": float64(seg.allocBytes) / 1024 / float64(seg.jobs()),
	}.report(endToEnd)
	return r, nil
}

// countJobs is the size of the traced pass's sequential count pass.
const countJobs = 12

// runTraced produces the per-layer metrics: a sequential count pass
// whose counters repeat exactly, an untraced and a traced closed-loop
// segment (their difference is the tracing overhead), the output
// checks, then the layer probes. The spans go to dir.
func runTraced(w *workload, o runOpts, dir string) (*result, error) {
	r := &result{Header: o.header(w, 1), Correct: true}
	rec := newRecorder()
	m := metricSet{}
	in, err := w.setup(o.seed, o.scale)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	served := w.specs != nil // compile_sweep has no server, no exec, no journal

	if served {
		if err := in.countPass(rec, scaled(countJobs, o.scale, len(w.specs)), m); err != nil {
			r.fail(err)
		}
	}
	// The two kinds of segment alternate, so heap growth and machine
	// drift fall on both alike.
	clients, minJobs := w.clientCount(), max(o.minJobs/20, 1)
	host := startHostSampler()
	plain, traced := new(segment), new(segment)
	for i := 0; i < 2; i++ {
		plain.add(drive(in, nil, clients, o.slice(0.125), minJobs))
		traced.add(drive(in, rec, clients, o.slice(0.125), minJobs))
	}
	m["host.heap_inuse_peak_mb"], m["host.goroutines_peak"] = host.finish()
	r.count(plain, traced)
	r.Samples = plain.jobs() + traced.jobs()

	jobs := float64(plain.jobs() + traced.jobs())
	m["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	m["job_p90_ms"] = percentileMS(append(append([]timedJob(nil), plain.done...), traced.done...), 0.90)
	m["bench.trace_overhead_pct"] = (traced.meanMS() - plain.meanMS()) / plain.meanMS() * 100
	m["host.allocs_per_job"] = float64(plain.mallocs+traced.mallocs) / jobs
	m["host.gc_pause_ms"] = (plain.gcPause + traced.gcPause).Seconds() * 1e3
	if gets := plain.pool.Gets + traced.pool.Gets; gets > 0 {
		m["bufpool.hit_ratio"] = float64(plain.pool.Hits+traced.pool.Hits) / float64(gets)
	}
	if served {
		if err := in.serveMetrics(m); err != nil {
			r.fail(err)
		}
	}
	if w.journal {
		// The same traffic without the journal, for what it adds.
		bypass := *w
		bypass.journal, bypass.warm = false, 24
		bin, err := bypass.setup(o.seed, o.scale)
		if err != nil {
			return nil, fmt.Errorf("set-up without journal: %w", err)
		}
		base := drive(bin, nil, clients, o.slice(0.1), minJobs)
		bin.close()
		r.count(base)
		m["journal.added_ms"] = plain.percentileMS(0.5) - base.percentileMS(0.5)
	}

	refs := in.checkAll(r)
	if refs != nil {
		m["sim_s"] = r.simS
		if err := in.layerMetrics(rec, refs, o, m); err != nil {
			r.fail(err)
		}
		if served {
			m["serve.overhead_ms"] = plain.percentileMS(0.5) - m["exec.run_ms"]
		}
	}
	r.Metrics = m.report(perLayer)
	if err := rec.write(dir, w.name, r.Header); err != nil {
		return nil, err
	}
	return r, nil
}

// countPass submits k jobs one at a time, each both in process and over
// HTTP, straight after set-up: the server state is the same on every
// run of a seed, so the journal's counters over the pass repeat exactly,
// and the two spans of a job differ by the HTTP layer alone.
func (in *instance) countPass(rec *recorder, k int, out metricSet) error {
	if in.ts == nil {
		in.listen()
	}
	var (
		records, compactions, wrote, syncs int64
		wire                               int
	)
	journal := func() (int64, int64, int64, int64) {
		if in.jfs == nil {
			return 0, 0, 0, 0
		}
		js := in.srv.MetricsSnapshot().Journal
		return js.RecordsAppended, js.Compactions, in.jfs.writeBytes.Load(), in.jfs.syncs.Load()
	}
	records, compactions, wrote, syncs = journal()
	for i := 0; i < k; i++ {
		spec := i % len(in.w.specs)
		req := in.w.specs[spec].req
		req.Tenant = "tenant-0"
		job := fmt.Sprintf("count/%s#%d", in.w.specs[spec].label(), i)
		root := rec.begin("count", job, 0)
		// Alternate which goes first, so neither always runs on a warm
		// cache.
		for _, overHTTP := range []bool{i%2 == 1, i%2 == 0} {
			if in.w.journal {
				req.IdempotencyKey = fmt.Sprintf("count-%t-%d", overHTTP, i)
			}
			resp, n, err := in.submit(rec, root, job, req, overHTTP)
			if err != nil {
				return fmt.Errorf("count pass: %w", err)
			}
			if !sameOutcome(in.first[spec].Load(), resp) {
				return fmt.Errorf("count pass: %s differs from the first reply of its spec", job)
			}
			wire += n
		}
		rec.end(root)
	}
	r2, c2, w2, s2 := journal()
	n := float64(2 * k)
	out["journal.records_per_job"] = float64(r2-records) / n
	out["journal.fsyncs_per_job"] = float64(s2-syncs) / n
	out["journal.bytes_per_job"] = float64(w2-wrote) / n
	out["journal.compactions"] = float64(c2 - compactions)
	out["serve.response_bytes"] = float64(wire) / float64(k)
	out["serve.http_overhead_ms"] = (rec.meanUS("serve.http_post") - rec.meanUS("serve.submit")) / 1e3
	return nil
}

// layerMetrics fills in the counts taken from the reference runs and
// the timings taken from the probes.
func (in *instance) layerMetrics(rec *recorder, refs []*reference, o runOpts, m metricSet) error {
	n := float64(len(refs))
	var events float64
	for _, ref := range refs {
		m["cost.candidates"] += float64(len(ref.art.res.Candidates)) / n
		m["bytecode.instrs"] += float64(len(ref.art.code.Code)) / n
		m["bytecode.encoded_bytes"] += float64(len(ref.art.encoded)) / n
		tokens, err := hpf.Lex(ref.t.src)
		if err != nil {
			return err
		}
		m["hpf.tokens"] += float64(len(tokens)) / n
		if ref.stats == nil {
			continue
		}
		io, comm := ref.stats.TotalIO(), ref.stats.TotalComm()
		var ioS, commS, computeS float64
		var flops int64
		for _, p := range ref.stats.Procs {
			ioS, commS, computeS = max(ioS, p.IO.Seconds), max(commS, p.Comm.Seconds), max(computeS, p.ComputeSeconds)
			flops += p.Flops
		}
		m["sim.io_s"] += ioS / n
		m["sim.comm_s"] += commS / n
		m["sim.compute_s"] += computeS / n
		m["exec.flops"] += float64(flops) / n
		m["oocarray.slab_reads"] += float64(io.SlabReads) / n
		m["oocarray.slab_writes"] += float64(io.SlabWrites) / n
		m["iosim.requests"] += float64(io.Requests()) / n
		m["iosim.bytes"] += float64(io.Bytes()) / n
		m["mp.messages"] += float64(comm.MessagesSent) / n
		m["mp.bytes"] += float64(comm.BytesSent) / n
		m["mp.collectives"] += float64(comm.Collectives) / n
		m["collio.shuffle_messages"] += float64(comm.ShuffleMessages) / n
		m["collio.shuffle_bytes"] += float64(comm.ShuffleBytes) / n
		events += float64(io.Requests()+io.SlabReads+io.SlabWrites+comm.MessagesSent) / n
	}
	if specs := in.w.specs; specs != nil {
		if err := probePipeline(rec, specs, o.slice(0.05)); err != nil {
			return err
		}
		if err := probeExec(rec, specs, refs, o.slice(0.25), m); err != nil {
			return err
		}
		if err := probeRuntime(rec, specs[0], refs[0], m); err != nil {
			return err
		}
		m["exec.host_us_per_sim_event"] = m["exec.run_ms"] * 1e3 / events
	}
	// On compile_sweep these spans come from the traced segment's jobs.
	for metric, name := range map[string]string{
		"hpf.parse_us":        "hpf.parse",
		"compiler.compile_us": "compiler.compile",
		"bytecode.lower_us":   "bytecode.lower",
		"bytecode.encode_us":  "bytecode.encode",
		"bytecode.decode_us":  "bytecode.decode",
		"plan.fingerprint_us": "plan.fingerprint",
	} {
		m[metric] = rec.meanUS(name)
	}
	return nil
}
