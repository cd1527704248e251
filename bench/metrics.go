package main

// metricDef declares one metric of the benchmark. The two tables below
// are the same declarations BENCHMARK.json carries; bench_test.go fails
// when they drift apart. Names are final: later changes are judged by
// them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, reported by an untraced
// run (--trace 0). Bound is the share of the parent's median by which
// the metric may worsen before a change counts as a regression. The
// bounds are what the 2-core reference box supports: ten runs of one
// commit spread (quartile distance over median) by 4-13 % on the timings
// when the machine is quiet, and by more when it is not; the allocations
// spread by up to 2.4 %. A bound has to sit well above the spread to
// mean anything, and set-up, the noisiest, keeps the largest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.24},
	{"job_p50_ms", "ms", "lower", 0.24},
	{"alloc_kb_per_job", "KiB", "lower", 0.10},
}

// Units of per-layer metrics. Simulated-clock values carry their own
// unit so they are never read as host time.
const (
	us    = "us"
	ms    = "ms"
	count = "count"
	byteU = "B"
	ratio = "ratio"
	pct   = "%"
	simS  = "sim_s"
)

// perLayer is reported by the traced pass (--trace 1). A metric whose
// layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	// What a user sees but no bound can gate: the simulated clock and the
	// failures read the same on every run, and the tail latency doubles
	// whenever the machine is disturbed.
	{Name: "sim_s", Unit: simS, Better: "lower"},
	{Name: "failed_share", Unit: ratio, Better: "lower"},
	{Name: "job_p90_ms", Unit: ms, Better: "lower"},
	{Name: "sim.io_s", Unit: simS, Better: "lower"},
	{Name: "sim.comm_s", Unit: simS, Better: "lower"},
	{Name: "sim.compute_s", Unit: simS, Better: "lower"},

	// Compile pipeline.
	{Name: "hpf.parse_us", Unit: us, Better: "lower"},
	{Name: "hpf.tokens", Unit: count, Better: "lower"},
	{Name: "compiler.compile_us", Unit: us, Better: "lower"},
	{Name: "cost.candidates", Unit: count, Better: "lower"},
	{Name: "bytecode.lower_us", Unit: us, Better: "lower"},
	{Name: "bytecode.instrs", Unit: count, Better: "lower"},
	{Name: "bytecode.encode_us", Unit: us, Better: "lower"},
	{Name: "bytecode.encoded_bytes", Unit: byteU, Better: "lower"},
	{Name: "bytecode.decode_us", Unit: us, Better: "lower"},
	{Name: "plan.fingerprint_us", Unit: us, Better: "lower"},

	// Serving layer.
	{Name: "serve.http_overhead_ms", Unit: ms, Better: "lower"},
	{Name: "serve.response_bytes", Unit: byteU, Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: ms, Better: "lower"},
	{Name: "serve.job_latency_ms", Unit: ms, Better: "lower"},
	{Name: "serve.compile_ms", Unit: ms, Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: ratio, Better: "higher"},
	{Name: "serve.overhead_ms", Unit: ms, Better: "lower"},
	{Name: "journal.records_per_job", Unit: count, Better: "lower"},
	{Name: "journal.fsyncs_per_job", Unit: count, Better: "lower"},
	{Name: "journal.bytes_per_job", Unit: byteU, Better: "lower"},
	{Name: "journal.compactions", Unit: count, Better: "lower"},
	{Name: "journal.added_ms", Unit: ms, Better: "lower"},

	// Execution engine and the runtime under it.
	{Name: "exec.run_ms", Unit: ms, Better: "lower"},
	{Name: "exec.run_bg_ms", Unit: ms, Better: "lower"},
	{Name: "exec.host_us_per_sim_event", Unit: us, Better: "lower"},
	{Name: "exec.flops", Unit: count, Better: "lower"},
	{Name: "oocarray.slab_reads", Unit: count, Better: "lower"},
	{Name: "oocarray.slab_writes", Unit: count, Better: "lower"},
	{Name: "oocarray.read_slab_us", Unit: us, Better: "lower"},
	{Name: "oocarray.write_slab_us", Unit: us, Better: "lower"},
	{Name: "iosim.requests", Unit: count, Better: "lower"},
	{Name: "iosim.bytes", Unit: byteU, Better: "lower"},
	{Name: "iosim.read_chunk_us", Unit: us, Better: "lower"},
	{Name: "iosim.write_chunk_us", Unit: us, Better: "lower"},
	{Name: "mp.messages", Unit: count, Better: "lower"},
	{Name: "mp.bytes", Unit: byteU, Better: "lower"},
	{Name: "mp.collectives", Unit: count, Better: "lower"},
	{Name: "mp.sendrecv_us", Unit: us, Better: "lower"},
	{Name: "mp.alltoall_us", Unit: us, Better: "lower"},
	{Name: "collio.shuffle_messages", Unit: count, Better: "lower"},
	{Name: "collio.shuffle_bytes", Unit: byteU, Better: "lower"},
	{Name: "collio.redistribute_ms", Unit: ms, Better: "lower"},
	{Name: "parity.overhead_pct", Unit: pct, Better: "lower"},
	{Name: "parity.writes", Unit: count, Better: "lower"},
	{Name: "trace.overhead_pct", Unit: pct, Better: "lower"},
	{Name: "trace.spans_per_job", Unit: count, Better: "lower"},
	{Name: "trace.export_ms", Unit: ms, Better: "lower"},

	// Host process.
	{Name: "bufpool.hit_ratio", Unit: ratio, Better: "higher"},
	{Name: "host.allocs_per_job", Unit: count, Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: ms, Better: "lower"},
	{Name: "host.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "host.goroutines_peak", Unit: count, Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: pct, Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one table as the run produces them.
type metricSet map[string]float64

// report renders the set against its table; a declared metric the run
// did not set reads 0, and setting an undeclared one is a bug.
func (m metricSet) report(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if !known[name] {
			panic("bench: undeclared metric " + name)
		}
	}
	return out
}
