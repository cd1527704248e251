// Package trace collects the execution statistics the paper uses to
// analyze out-of-core programs: the number of I/O requests per processor,
// the volume of data moved per processor, and the simulated time broken
// down into compute, communication and I/O.
package trace

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// HistBuckets is the number of power-of-two size classes tracked by
// SizeHistogram. Bucket i counts requests of at most 2^i bytes, so the
// last bucket (2^30 = 1 GiB) comfortably covers any single request the
// simulated machine can issue.
const HistBuckets = 31

// SizeHistogram classifies I/O requests by size into power-of-two byte
// buckets. Totals alone cannot show aggregation wins — replacing 1024
// 4-byte requests with one 4 KiB request leaves the volume unchanged —
// but the histogram makes the shift from many small to few large
// requests directly visible.
type SizeHistogram struct {
	Counts [HistBuckets]int64
}

// histBucket returns the bucket index for a request of the given size:
// the smallest i with bytes <= 2^i.
func histBucket(bytes int64) int {
	if bytes <= 1 {
		return 0
	}
	b := bits.Len64(uint64(bytes - 1))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one request of the given size in bytes.
func (h *SizeHistogram) Observe(bytes int64) {
	h.Counts[histBucket(bytes)]++
}

// Add accumulates other into h.
func (h *SizeHistogram) Add(other SizeHistogram) {
	for i := range h.Counts {
		h.Counts[i] += other.Counts[i]
	}
}

// MaxOf raises each bucket of h to the larger of the two counts.
func (h *SizeHistogram) MaxOf(other SizeHistogram) {
	for i := range h.Counts {
		if other.Counts[i] > h.Counts[i] {
			h.Counts[i] = other.Counts[i]
		}
	}
}

// Total returns the number of requests recorded.
func (h SizeHistogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// histLabel renders the upper bound of bucket i compactly ("512B",
// "4KiB", "2MiB", "1GiB").
func histLabel(i int) string {
	size := int64(1) << i
	switch {
	case size >= 1<<30:
		return fmt.Sprintf("%dGiB", size>>30)
	case size >= 1<<20:
		return fmt.Sprintf("%dMiB", size>>20)
	case size >= 1<<10:
		return fmt.Sprintf("%dKiB", size>>10)
	default:
		return fmt.Sprintf("%dB", size)
	}
}

// String renders the non-empty buckets as "<=4KiB:12 <=1MiB:3", or "-"
// when nothing was recorded.
func (h SizeHistogram) String() string {
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "<=%s:%d", histLabel(i), c)
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// IOStats counts disk activity for one processor.
type IOStats struct {
	// SlabReads and SlabWrites count logical slab transfers — the
	// "number of I/O requests" metric of Section 4 (T_fetch).
	SlabReads  int64
	SlabWrites int64

	// ReadRequests and WriteRequests count physical requests issued to
	// the disk: one per discontiguous file region touched, so a strided
	// slab costs more requests than a contiguous one.
	ReadRequests  int64
	WriteRequests int64

	// BytesRead and BytesWritten count data volume (T_data, scaled by
	// element size).
	BytesRead    int64
	BytesWritten int64

	// Seconds is simulated time spent in the I/O subsystem.
	Seconds float64

	// Retries counts transient faults that were retried by the resilient
	// I/O layer; RetrySeconds is the simulated backoff charged for them.
	Retries      int64
	RetrySeconds float64

	// Corruptions counts checksum mismatches detected on reads (each is
	// retried; a mismatch that survives the retry budget also counts as a
	// give-up).
	Corruptions int64

	// GiveUps counts operations that exhausted the retry budget and
	// failed permanently.
	GiveUps int64

	// Parity counters: the read-modify-write traffic the RAID-5-style
	// parity layer adds to each data write (old-data read plus parity
	// block reads and writes). They are kept separate from the
	// Read/WriteRequests and byte totals above so the unprotected
	// accounting stays comparable to the paper's closed forms.
	ParityReads        int64
	ParityWrites       int64
	ParityBytesRead    int64
	ParityBytesWritten int64

	// Reconstruction counters: degraded-mode recovery of a file whose
	// disk was lost, rebuilt block-by-block from the surviving disks.
	Reconstructions     int64 // files reconstructed
	ReconstructedBlocks int64 // parity stripe units recovered
	ReconstructedBytes  int64 // bytes of file content recovered

	// ParityRebuilds counts parity blocks recomputed from data (a lost
	// parity disk being brought back to full redundancy).
	ParityRebuilds int64

	// ReadSizes and WriteSizes classify every physical request by its
	// size, so the effect of request aggregation (sieving, collective
	// two-phase I/O) shows up beyond the request totals.
	ReadSizes  SizeHistogram
	WriteSizes SizeHistogram
}

// Add accumulates other into s, field by field. Aggregation is driven by
// the struct shape (see statShape), so a newly added counter can never
// be silently dropped from the fold.
func (s *IOStats) Add(other IOStats) {
	combineFields(ioShape(), unsafe.Pointer(s), unsafe.Pointer(&other), false)
}

// Requests returns the total physical request count.
func (s IOStats) Requests() int64 { return s.ReadRequests + s.WriteRequests }

// Bytes returns the total data volume moved.
func (s IOStats) Bytes() int64 { return s.BytesRead + s.BytesWritten }

// CommStats counts interprocessor communication for one processor.
type CommStats struct {
	MessagesSent int64
	BytesSent    int64
	Collectives  int64
	Seconds      float64

	// ShuffleMessages and ShuffleBytes count the subset of traffic
	// exchanged through AllToAll — the in-memory shuffle phase of
	// collective two-phase I/O — so its volume can be weighed against
	// the I/O requests it saves.
	ShuffleMessages int64
	ShuffleBytes    int64

	// RecoveryMessages and RecoveryBytes count the gather traffic of
	// parity reconstruction: surviving blocks shipped to the recovering
	// processor when a lost file is rebuilt. Their simulated time is
	// charged with the reconstruction I/O, not into Seconds here.
	RecoveryMessages int64
	RecoveryBytes    int64

	// Fail-stop fault tolerance counters (see internal/mp failure
	// detection). Detections counts peers this rank declared dead;
	// DetectSeconds is the simulated heartbeat-timeout stall charged for
	// them (kept out of Seconds so the comm time of a run stays
	// comparable to the failure-free closed forms). Agreements counts
	// the times this rank, aborting, adopted the failed set (one per
	// aborting rank and attempt); Respawns counts times this rank's
	// goroutine was respawned during recovery.
	Detections    int64
	DetectSeconds float64
	Agreements    int64
	Respawns      int64
}

// Add accumulates other into s, field by field (see statShape).
func (s *CommStats) Add(other CommStats) {
	combineFields(commShape(), unsafe.Pointer(s), unsafe.Pointer(&other), false)
}

// ProcStats aggregates all activity of one processor.
type ProcStats struct {
	Proc           int
	IO             IOStats
	Comm           CommStats
	Flops          int64
	ComputeSeconds float64
	// Seconds is the processor's simulated clock when it finished, i.e.
	// elapsed wall time including waits at collectives.
	Seconds float64
}

// Stats holds per-processor statistics for a whole run.
type Stats struct {
	Procs []ProcStats
}

// NewStats returns a Stats sized for p processors.
func NewStats(p int) *Stats {
	s := &Stats{Procs: make([]ProcStats, p)}
	for i := range s.Procs {
		s.Procs[i].Proc = i
	}
	return s
}

// ElapsedSeconds returns the simulated job time: the maximum finishing
// time across processors.
func (s *Stats) ElapsedSeconds() float64 {
	max := 0.0
	for _, p := range s.Procs {
		if p.Seconds > max {
			max = p.Seconds
		}
	}
	return max
}

// TotalIO returns the sum of I/O statistics across processors.
func (s *Stats) TotalIO() IOStats {
	var t IOStats
	for i := range s.Procs {
		combineFields(ioShape(), unsafe.Pointer(&t), unsafe.Pointer(&s.Procs[i].IO), false)
	}
	return t
}

// TotalComm returns the sum of communication statistics across processors.
func (s *Stats) TotalComm() CommStats {
	var t CommStats
	for i := range s.Procs {
		combineFields(commShape(), unsafe.Pointer(&t), unsafe.Pointer(&s.Procs[i].Comm), false)
	}
	return t
}

// MaxIO returns, for each I/O metric, the maximum per-processor value.
// The paper's per-processor metrics (requests per processor, data per
// processor) correspond to this view on a load-balanced program.
func (s *Stats) MaxIO() IOStats {
	var m IOStats
	for i := range s.Procs {
		combineFields(ioShape(), unsafe.Pointer(&m), unsafe.Pointer(&s.Procs[i].IO), true)
	}
	return m
}

// statField is one field of a statistics struct as the folds and the
// wire encoder see it: its kind (reflect.Struct stands for
// SizeHistogram), its offset, and its name as a JSON member key
// (`,"Name":`, the name json.Marshal gives an untagged field).
type statField struct {
	kind reflect.Kind
	off  uintptr
	key  string
}

// statShape resolves the fields of statistics struct type t. Any field
// that is not an int64, a float64 or a SizeHistogram panics, which —
// together with the per-field probe in the aggregation test — guarantees
// a new counter cannot be added without being picked up by Add, MaxIO,
// TotalIO and AppendSnapshot.
func statShape(t reflect.Type) []statField {
	shape := make([]statField, t.NumField())
	for i := range shape {
		f := t.Field(i)
		switch kind := f.Type.Kind(); {
		case kind == reflect.Int64, kind == reflect.Float64, f.Type == reflect.TypeOf(SizeHistogram{}):
			shape[i] = statField{kind, f.Offset, `,"` + f.Name + `":`}
		default:
			panic(fmt.Sprintf("trace: cannot aggregate %s field %s of kind %s", t.Name(), f.Name, kind))
		}
	}
	return shape
}

// The shapes are resolved by reflection once per type, so that a fold
// walks plain memory: a run folds its statistics once per rank per
// consumer, and a reflect.Value per field per call boxed a histogram copy
// and moved every by-value argument to the heap.
var (
	ioShape   = sync.OnceValue(func() []statField { return statShape(reflect.TypeOf(IOStats{})) })
	commShape = sync.OnceValue(func() []statField { return statShape(reflect.TypeOf(CommStats{})) })
)

// combineFields folds src into dst, two values of the statistics struct
// shape describes, field by field and in field order: the sum, or with
// max the larger of the two (bucket by bucket in a histogram).
func combineFields(shape []statField, dst, src unsafe.Pointer, max bool) {
	for _, f := range shape {
		d, s := unsafe.Add(dst, f.off), unsafe.Add(src, f.off)
		switch f.kind {
		case reflect.Int64:
			if d, s := (*int64)(d), *(*int64)(s); !max {
				*d += s
			} else if s > *d {
				*d = s
			}
		case reflect.Float64:
			if d, s := (*float64)(d), *(*float64)(s); !max {
				*d += s
			} else if s > *d {
				*d = s
			}
		default:
			if d, s := (*SizeHistogram)(d), (*SizeHistogram)(s); !max {
				d.Add(*s)
			} else {
				d.MaxOf(*s)
			}
		}
	}
}

// String renders a compact human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	io := s.TotalIO()
	comm := s.TotalComm()
	fmt.Fprintf(&b, "elapsed %.2fs | io: %d slab reads, %d slab writes, %d requests, %s moved, %.2fs | comm: %d msgs, %s, %.2fs",
		s.ElapsedSeconds(),
		io.SlabReads, io.SlabWrites, io.Requests(), FormatBytes(io.Bytes()), io.Seconds,
		comm.MessagesSent, FormatBytes(comm.BytesSent), comm.Seconds)
	return b.String()
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.2f GiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.2f MiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.2f KiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Snapshot is the JSON-friendly form of a run's statistics.
type Snapshot struct {
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	Procs          []ProcStats `json:"procs"`
	TotalIO        IOStats     `json:"total_io"`
	TotalComm      CommStats   `json:"total_comm"`
}

// Snapshot bundles the stats for serialization.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		ElapsedSeconds: s.ElapsedSeconds(),
		Procs:          append([]ProcStats(nil), s.Procs...),
		TotalIO:        s.TotalIO(),
		TotalComm:      s.TotalComm(),
	}
}

// MarshalJSON serializes the aggregate view.
func (s *Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}
