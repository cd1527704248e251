package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled on the
// standard library. The server keeps its JSON Metrics snapshot as the
// default /metrics body; this file renders the same state — plus
// fixed-bucket latency histograms — in the form a Prometheus scraper
// ingests, selected by content negotiation.

// promHist is a fixed-bucket histogram with lock-free observation:
// per-bucket atomic counts (non-cumulative internally; rendered
// cumulatively per the exposition format) and a CAS-looped float sum.
// The bucket bounds are fixed at construction, so scrapes need no
// coordination with observers.
type promHist struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

func newPromHist(bounds []float64) *promHist {
	return &promHist{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one value.
func (h *promHist) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot returns the cumulative bucket counts (one per bound, then
// +Inf), the total count, and the sum.
func (h *promHist) snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	for i := range h.counts {
		count += h.counts[i].Load()
		cum[i] = count
	}
	return cum, count, math.Float64frombits(h.sumBits.Load())
}

// Histogram bucket bounds. Latency-style buckets span sub-millisecond
// service times through the 60s default deadline; compile buckets track
// the (much faster) planning path; footprint buckets are powers of four
// from 1 KiB to the 1 GiB default budget.
var (
	latencyBuckets   = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60}
	compileBuckets   = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
	footprintBuckets = []float64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30}
)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type promWriter struct {
	w   *bufio.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) metric(name, help, typ string, write func()) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	write()
}

func (p *promWriter) hist(name, help string, h *promHist) {
	p.metric(name, help, "histogram", func() {
		cum, count, sum := h.snapshot()
		for i, b := range h.bounds {
			p.printf("%s_bucket{le=\"%s\"} %d\n", name, promFloat(b), cum[i])
		}
		p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, count)
		p.printf("%s_sum %s\n", name, promFloat(sum))
		p.printf("%s_count %d\n", name, count)
	})
}

// promRows are the exposition's gauges and single-sample counters, each
// read off one Metrics snapshot; journal rows show only on a journaled
// server.
var promRows = []struct {
	name, help, typ string
	journal         bool
	value           func(m *Metrics) int64
}{
	{"passion_serve_workers", "Size of the worker pool.", "gauge", false,
		func(m *Metrics) int64 { return int64(m.Workers) }},
	{"passion_serve_queue_depth", "Jobs admitted but not yet dispatched.", "gauge", false,
		func(m *Metrics) int64 { return int64(m.QueueDepth) }},
	{"passion_serve_inflight", "Jobs currently executing.", "gauge", false,
		func(m *Metrics) int64 { return int64(m.Inflight) }},
	{"passion_serve_reserved_bytes", "Admitted footprint currently charged against the memory budget.", "gauge", false,
		func(m *Metrics) int64 { return m.ReservedBytes }},
	{"passion_serve_budget_bytes", "Configured memory budget.", "gauge", false,
		func(m *Metrics) int64 { return m.BudgetBytes }},
	{"passion_serve_degraded", "1 while the journal disk has forced read-only degraded mode.", "gauge", false,
		func(m *Metrics) int64 {
			if m.Degraded {
				return 1
			}
			return 0
		}},
	{"passion_serve_journal_records_total", "Write-ahead journal records appended.", "counter", true,
		func(m *Metrics) int64 { return m.Journal.RecordsAppended }},
	{"passion_serve_journal_replayed_total", "Jobs re-admitted from the journal at startup.", "counter", true,
		func(m *Metrics) int64 { return m.Journal.ReplayedJobs }},
	{"passion_serve_journal_resumed_total", "Replayed jobs that resumed from exec checkpoints.", "counter", true,
		func(m *Metrics) int64 { return m.Journal.ResumedJobs }},
	{"passion_serve_journal_bytes", "Current size of the live journal segment.", "gauge", true,
		func(m *Metrics) int64 { return m.Journal.Bytes }},
}

// WritePrometheus renders the server's metrics — the same state as
// MetricsSnapshot — in Prometheus text exposition format. The job
// counters are the outcome table's (lifecycle.go): one sample per
// outcome, globally and per tenant, and one per rejection reason.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.MetricsSnapshot()
	p := &promWriter{w: bufio.NewWriter(w)}

	for _, r := range promRows {
		if r.journal && m.Journal == nil {
			continue
		}
		p.metric(r.name, r.help, r.typ, func() { p.printf("%s %d\n", r.name, r.value(&m)) })
	}
	p.metric("passion_serve_jobs_total", "Job submissions by outcome.", "counter", func() {
		for _, o := range outcomes {
			if !o.reject {
				p.printf("passion_serve_jobs_total{outcome=\"%s\"} %d\n", o.label, *o.field(&m.tenantCounters))
			}
		}
	})
	p.metric("passion_serve_rejected_total", "Rejections by reason.", "counter", func() {
		for _, o := range outcomes {
			if o.reject {
				p.printf("passion_serve_rejected_total{reason=\"%s\"} %d\n", o.label, *o.field(&m.tenantCounters))
			}
		}
	})
	p.metric("passion_serve_plan_cache_total", "Compiled-plan cache lookups by result.", "counter", func() {
		p.printf("passion_serve_plan_cache_total{result=\"hit\"} %d\n", m.Cache.Hits)
		p.printf("passion_serve_plan_cache_total{result=\"miss\"} %d\n", m.Cache.Misses)
	})
	p.metric("passion_serve_tenant_jobs_total", "Per-tenant job counts by outcome; rejected sums the reasons.", "counter", func() {
		tenants := make([]string, 0, len(m.Tenants))
		for t := range m.Tenants {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			c, lt := m.Tenants[t], promEscape(t)
			for _, o := range outcomes {
				if !o.reject {
					p.printf("passion_serve_tenant_jobs_total{tenant=\"%s\",outcome=\"%s\"} %d\n", lt, o.label, *o.field(c))
				}
			}
			p.printf("passion_serve_tenant_jobs_total{tenant=\"%s\",outcome=\"rejected\"} %d\n", lt, c.Rejected)
		}
	})

	p.hist("passion_serve_job_latency_seconds", "Wall time from accepted submit to terminal outcome.", s.histJobLatency)
	p.hist("passion_serve_queue_wait_seconds", "Wall time from admission to worker pickup.", s.histQueueWait)
	p.hist("passion_serve_compile_seconds", "Wall time compiling a plan (cache misses only).", s.histCompile)
	p.hist("passion_serve_job_footprint_bytes", "Estimated memory footprint of dispatched jobs.", s.histFootprint)

	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// ---------------------------------------------------------------------------
// Strict exposition validation (test and load-gate support)

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidatePrometheus strictly checks a text exposition: metric and
// label names must be legal, HELP/TYPE comments must precede their
// samples (at most one each), samples of one family must be contiguous,
// values must parse, and every histogram must have monotone cumulative
// buckets whose +Inf bucket equals its _count, plus a _sum. It is the
// load gate's scrape check, so it fails on anything a real scraper
// would reject.
func ValidatePrometheus(data []byte) error {
	type family struct {
		help, typ string
		samples   int
	}
	fams := map[string]*family{}
	current := ""
	getFam := func(name string) *family {
		if f, ok := fams[name]; ok {
			return f
		}
		f := &family{}
		fams[name] = f
		return f
	}
	// histogram data keyed by base name
	hbuckets := map[string][]struct {
		le float64
		v  int64
	}{}
	hcount := map[string]int64{}
	hsum := map[string]bool{}

	lines := strings.Split(string(data), "\n")
	for ln, raw := range lines {
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		no := ln + 1
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("prom: line %d: malformed comment %q", no, line)
			}
			name := fields[2]
			if !promNameRe.MatchString(name) {
				return fmt.Errorf("prom: line %d: bad metric name %q", no, name)
			}
			f := getFam(name)
			if f.samples > 0 {
				return fmt.Errorf("prom: line %d: %s comment for %q after its samples", no, fields[1], name)
			}
			switch fields[1] {
			case "HELP":
				if f.help != "" {
					return fmt.Errorf("prom: line %d: duplicate HELP for %q", no, name)
				}
				if len(fields) < 4 || fields[3] == "" {
					return fmt.Errorf("prom: line %d: empty HELP for %q", no, name)
				}
				f.help = fields[3]
			case "TYPE":
				if f.typ != "" {
					return fmt.Errorf("prom: line %d: duplicate TYPE for %q", no, name)
				}
				if len(fields) < 4 {
					return fmt.Errorf("prom: line %d: missing TYPE value for %q", no, name)
				}
				switch fields[4-1] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = fields[3]
				default:
					return fmt.Errorf("prom: line %d: unknown TYPE %q for %q", no, fields[3], name)
				}
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("prom: line %d: %w", no, err)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					base = trimmed
				}
				break
			}
		}
		f, ok := fams[base]
		if !ok || f.typ == "" {
			return fmt.Errorf("prom: line %d: sample %q has no preceding TYPE", no, name)
		}
		if current != "" && current != base && f.samples > 0 {
			return fmt.Errorf("prom: line %d: samples of %q are not contiguous", no, base)
		}
		current = base
		f.samples++
		if f.typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("prom: line %d: histogram bucket without le label", no)
				}
				lv, perr := parsePromValue(le)
				if perr != nil {
					return fmt.Errorf("prom: line %d: bad le %q", no, le)
				}
				hbuckets[base] = append(hbuckets[base], struct {
					le float64
					v  int64
				}{lv, int64(value)})
			case strings.HasSuffix(name, "_count"):
				hcount[base] = int64(value)
			case strings.HasSuffix(name, "_sum"):
				hsum[base] = true
			default:
				return fmt.Errorf("prom: line %d: unexpected histogram sample %q", no, name)
			}
		}
	}
	for name, f := range fams {
		if f.typ == "" {
			return fmt.Errorf("prom: %q has HELP but no TYPE", name)
		}
		// A declared family with no samples is legal (an empty label
		// vector); consistency checks only apply once samples exist.
		if f.typ != "histogram" || f.samples == 0 {
			continue
		}
		bs := hbuckets[name]
		if len(bs) == 0 {
			return fmt.Errorf("prom: histogram %q has no buckets", name)
		}
		if !hsum[name] {
			return fmt.Errorf("prom: histogram %q has no _sum", name)
		}
		last := int64(-1)
		lastLe := math.Inf(-1)
		sawInf := false
		for _, b := range bs {
			if b.le <= lastLe {
				return fmt.Errorf("prom: histogram %q buckets out of order at le=%v", name, b.le)
			}
			if b.v < last {
				return fmt.Errorf("prom: histogram %q buckets not cumulative at le=%v", name, b.le)
			}
			last, lastLe = b.v, b.le
			if math.IsInf(b.le, 1) {
				sawInf = true
			}
		}
		if !sawInf {
			return fmt.Errorf("prom: histogram %q missing +Inf bucket", name)
		}
		if c, ok := hcount[name]; !ok {
			return fmt.Errorf("prom: histogram %q has no _count", name)
		} else if c != last {
			return fmt.Errorf("prom: histogram %q +Inf bucket %d != _count %d", name, last, c)
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parsePromSample splits one sample line into name, labels and value.
func parsePromSample(line string) (string, map[string]string, float64, error) {
	labels := map[string]string{}
	rest := line
	name := rest
	if i := strings.IndexAny(rest, "{ "); i >= 0 {
		name = rest[:i]
		rest = rest[i:]
	} else {
		return "", nil, 0, fmt.Errorf("sample %q has no value", line)
	}
	if !promNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		escaped := false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, pair := range splitPromLabels(body) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("bad label %q", pair)
			}
			ln := pair[:eq]
			lv := pair[eq+1:]
			if !promLabelRe.MatchString(ln) {
				return "", nil, 0, fmt.Errorf("bad label name %q", ln)
			}
			if len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value %q", lv)
			}
			unq := lv[1 : len(lv)-1]
			if strings.ContainsAny(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(unq, `\\`, ``), `\"`, ``), `\n`, ``), "\"\n\\") {
				return "", nil, 0, fmt.Errorf("bad escape in label value %q", lv)
			}
			labels[ln] = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n").Replace(unq)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q needs a value (and at most a timestamp)", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, v, nil
}

// splitPromLabels splits "a=\"x\",b=\"y\"" on commas outside quotes.
func splitPromLabels(body string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	escaped := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case escaped:
			escaped = false
			cur.WriteByte(c)
		case c == '\\':
			escaped = true
			cur.WriteByte(c)
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}
