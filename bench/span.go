package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Start and End are nanoseconds since the
// recorder was created; Parent is the ID of the span that caused this
// one (0 for a root); spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run and the traced pass share one
// code path and their difference is the tracing overhead.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, job string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls   int     `json:"calls"`
	TotalUS float64 `json:"total_us"`
	// SelfUS is the total minus the part covered by child spans.
	SelfUS float64 `json:"self_us"`
}

// byName folds the spans into per-name totals and self times.
func (r *recorder) byName() map[string]*layerTime {
	children := make(map[int]int64, len(r.spans))
	for _, s := range r.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := make(map[string]*layerTime)
	for _, s := range r.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.TotalUS += float64(s.End-s.Start) / 1e3
		lt.SelfUS += float64(s.End-s.Start-children[s.ID]) / 1e3
	}
	return out
}

// meanUS is the mean duration of the named span in microseconds.
func (r *recorder) meanUS(name string) float64 {
	var total int64
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / 1e3 / float64(n)
}

// maxSpansWritten bounds the span file; the layer totals cover every
// span regardless.
const maxSpansWritten = 20000

// write stores the span file of one workload under dir.
func (r *recorder) write(dir, workload string, hdr header) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := r.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	doc := struct {
		Header   header                `json:"header"`
		Layers   map[string]*layerTime `json:"layers"`
		Recorded int                   `json:"spans_recorded"`
		Spans    []span                `json:"spans"`
	}{hdr, r.byName(), len(r.spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
