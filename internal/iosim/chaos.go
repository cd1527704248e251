package iosim

import (
	"fmt"
	"sync"
)

// FaultKind enumerates the fault classes ChaosFS can inject.
type FaultKind int

// Fault classes.
const (
	// KindTransient fails the operation with a retryable error.
	KindTransient FaultKind = iota
	// KindPermanent fails the operation with a non-retryable error
	// (wrapping ErrInjected).
	KindPermanent
	// KindCorrupt flips one bit in the data returned by a read.
	KindCorrupt
	// KindShortRead delivers only part of the requested bytes, with a
	// transient error.
	KindShortRead
	// KindShortWrite tears the write: only a prefix reaches the file,
	// and a transient error is returned.
	KindShortWrite
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	case KindCorrupt:
		return "corrupt"
	case KindShortRead:
		return "short-read"
	case KindShortWrite:
		return "short-write"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ScheduledFault forces a fault at an exact operation index, for
// reproducing a specific failure (e.g. killing a run mid-execution).
type ScheduledFault struct {
	// File selects the file by exact name; empty matches every file.
	File string
	// Op is the 0-based per-file operation index at which to inject.
	// Indices are per file (not global): a file one processor alone
	// touches, such as a local array file, sees a deterministic operation
	// sequence under the concurrent SPMD execution. A fault here touches
	// only its file; losing a whole logical disk is a fault of the
	// machine's per-rank schedule (mp.LoseDisk).
	Op int64
	// Kind is the fault class to inject.
	Kind FaultKind
}

// ChaosConfig parameterizes the fault model. All probabilities are per
// file operation and independent; zero disables that class.
type ChaosConfig struct {
	// Seed makes the injection deterministic: the decision for operation
	// k on file f is a pure function of (Seed, f, k).
	Seed int64
	// PTransient is the probability of a retryable failure on any
	// operation.
	PTransient float64
	// PPermanent is the probability of a non-retryable failure on any
	// operation.
	PPermanent float64
	// PCorrupt is the probability that a read delivers data with one
	// flipped bit (silent corruption on the read path).
	PCorrupt float64
	// PShortRead is the probability that a read delivers only a prefix.
	PShortRead float64
	// PShortWrite is the probability that a write is torn.
	PShortWrite float64
	// Schedule forces faults at exact per-file operation indices, on top
	// of the probabilistic model.
	Schedule []ScheduledFault
}

// ChaosCounts reports what a ChaosFS actually injected.
type ChaosCounts struct {
	Ops         int64
	Transient   int64
	Permanent   int64
	Corruptions int64
	ShortReads  int64
	ShortWrites int64
}

// ChaosFS wraps a file system with seeded, deterministic fault injection:
// transient and permanent errors, short (torn) transfers, and silent bit
// corruption on reads. It supersedes the one-shot FaultFS budget model
// with a probabilistic-and-scheduled model suitable for chaos testing the
// resilient I/O layer end to end.
//
// Determinism: every file keeps its own operation counter, and the fault
// decision for operation k on file f depends only on (Seed, f, k). A file
// with a single-processor, program-ordered operation sequence (a local
// array file) therefore sees the same faults for the same program and
// seed regardless of goroutine interleaving. Every fault touches one
// file only.
type ChaosFS struct {
	inner FS
	cfg   ChaosConfig

	mu     sync.Mutex
	ops    map[string]int64
	counts ChaosCounts
}

// NewChaosFS wraps inner with the given fault model.
func NewChaosFS(inner FS, cfg ChaosConfig) *ChaosFS {
	return &ChaosFS{inner: inner, cfg: cfg, ops: make(map[string]int64)}
}

// FileOps returns how many operations the named file has seen so far —
// the next operation on it has this per-file index, which is the
// coordinate ScheduledFault.Op uses.
func (c *ChaosFS) FileOps(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[name]
}

// Names enumerates the inner file system's files when it supports
// enumeration (fault-free: listing a directory is metadata the chaos
// model does not perturb). It returns nil otherwise.
func (c *ChaosFS) Names() []string {
	if n, ok := c.inner.(interface{ Names() []string }); ok {
		return n.Names()
	}
	return nil
}

// Counts returns a snapshot of the injected-fault counters.
func (c *ChaosFS) Counts() ChaosCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Salts decorrelate the per-class random draws of one operation.
const (
	saltPermanent  = 0x1
	saltTransient  = 0x2
	saltCorrupt    = 0x3
	saltShortRead  = 0x4
	saltShortWrite = 0x5
	saltBitIndex   = 0x6
)

// fnv64 hashes a file name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix derives a uniform value in [0,1) from (seed, file hash, op, salt)
// with a splitmix64 finalizer.
func mix(seed int64, h uint64, op int64, salt uint64) float64 {
	x := uint64(seed) ^ h ^ (uint64(op)+1)*0x9E3779B97F4A7C15 ^ salt*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// mixInt derives a uniform integer in [0, n) the same way.
func mixInt(seed int64, h uint64, op int64, salt uint64, n int) int {
	return int(mix(seed, h, op, salt) * float64(n))
}

// decide consumes one operation on the named file and returns the fault
// to inject, if any. read/write select which data-path classes apply.
func (c *ChaosFS) decide(name string, read, write bool) (op int64, kind FaultKind, hit bool) {
	c.mu.Lock()
	op = c.ops[name]
	c.ops[name] = op + 1
	c.counts.Ops++
	c.mu.Unlock()

	kind, hit = c.pick(name, op, read, write)
	if hit {
		c.mu.Lock()
		switch kind {
		case KindPermanent:
			c.counts.Permanent++
		case KindTransient:
			c.counts.Transient++
		case KindCorrupt:
			c.counts.Corruptions++
		case KindShortRead:
			c.counts.ShortReads++
		case KindShortWrite:
			c.counts.ShortWrites++
		}
		c.mu.Unlock()
	}
	return op, kind, hit
}

// pick evaluates the schedule and the probabilistic model for one op.
func (c *ChaosFS) pick(name string, op int64, read, write bool) (FaultKind, bool) {
	for _, s := range c.cfg.Schedule {
		if s.Op == op && (s.File == "" || s.File == name) {
			return s.Kind, true
		}
	}
	h := fnv64(name)
	if c.cfg.PPermanent > 0 && mix(c.cfg.Seed, h, op, saltPermanent) < c.cfg.PPermanent {
		return KindPermanent, true
	}
	if c.cfg.PTransient > 0 && mix(c.cfg.Seed, h, op, saltTransient) < c.cfg.PTransient {
		return KindTransient, true
	}
	if read && c.cfg.PCorrupt > 0 && mix(c.cfg.Seed, h, op, saltCorrupt) < c.cfg.PCorrupt {
		return KindCorrupt, true
	}
	if read && c.cfg.PShortRead > 0 && mix(c.cfg.Seed, h, op, saltShortRead) < c.cfg.PShortRead {
		return KindShortRead, true
	}
	if write && c.cfg.PShortWrite > 0 && mix(c.cfg.Seed, h, op, saltShortWrite) < c.cfg.PShortWrite {
		return KindShortWrite, true
	}
	return 0, false
}

// faultErr builds the error for a metadata-path fault.
func faultErr(kind FaultKind, verb, name string, op int64) error {
	if kind == KindPermanent {
		return fmt.Errorf("iosim: chaos %s %s (op %d): %w", verb, name, op, ErrInjected)
	}
	return MarkTransient(fmt.Errorf("iosim: chaos injected transient fault: %s %s (op %d)", verb, name, op))
}

// metaFault maps a metadata-path fault decision to its error; ok is
// false when no error is to be injected.
func metaFault(verb, name string, op int64, kind FaultKind, hit bool) (error, bool) {
	if hit && (kind == KindPermanent || kind == KindTransient) {
		return faultErr(kind, verb, name, op), true
	}
	return nil, false
}

// Create makes the named file, or injects a fault.
func (c *ChaosFS) Create(name string) (File, error) {
	op, kind, hit := c.decide(name, false, false)
	if err, bad := metaFault("create", name, op, kind, hit); bad {
		return nil, err
	}
	f, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, name: name, inner: f}, nil
}

// Open opens an existing file, or injects a fault.
func (c *ChaosFS) Open(name string) (File, error) {
	op, kind, hit := c.decide(name, false, false)
	if err, bad := metaFault("open", name, op, kind, hit); bad {
		return nil, err
	}
	f, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{fs: c, name: name, inner: f}, nil
}

// Remove deletes the named file, or injects a fault.
func (c *ChaosFS) Remove(name string) error {
	op, kind, hit := c.decide(name, false, false)
	if err, bad := metaFault("remove", name, op, kind, hit); bad {
		return err
	}
	return c.inner.Remove(name)
}

type chaosFile struct {
	fs    *ChaosFS
	name  string
	inner File
}

func (f *chaosFile) ReadAt(p []byte, off int64) (int, error) {
	op, kind, hit := f.fs.decide(f.name, true, false)
	if hit {
		switch kind {
		case KindPermanent, KindTransient:
			return 0, faultErr(kind, "read", f.name, op)
		case KindShortRead:
			n, err := f.inner.ReadAt(p[:len(p)/2], off)
			if err != nil {
				return n, err
			}
			return n, MarkTransient(fmt.Errorf("iosim: chaos short read: %s (op %d): %d of %d bytes", f.name, op, n, len(p)))
		}
	}
	n, err := f.inner.ReadAt(p, off)
	if hit && kind == KindCorrupt && n > 0 {
		// Silent read-path corruption: flip one deterministic bit.
		bit := mixInt(f.fs.cfg.Seed, fnv64(f.name), op, saltBitIndex, n*8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

func (f *chaosFile) WriteAt(p []byte, off int64) (int, error) {
	op, kind, hit := f.fs.decide(f.name, false, true)
	if hit {
		switch kind {
		case KindPermanent, KindTransient:
			return 0, faultErr(kind, "write", f.name, op)
		case KindShortWrite:
			// Torn write: a prefix reaches the file before the fault.
			n, err := f.inner.WriteAt(p[:len(p)/2], off)
			if err != nil {
				return n, err
			}
			return n, MarkTransient(fmt.Errorf("iosim: chaos torn write: %s (op %d): %d of %d bytes", f.name, op, n, len(p)))
		}
	}
	return f.inner.WriteAt(p, off)
}

func (f *chaosFile) Truncate(size int64) error {
	op, kind, hit := f.fs.decide(f.name, false, false)
	if err, bad := metaFault("truncate", f.name, op, kind, hit); bad {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *chaosFile) Close() error { return f.inner.Close() }
