package iosim

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/mp"
)

// ChaosConfig parameterizes the drawn fault model. All probabilities are
// per file operation and independent; zero disables that class.
type ChaosConfig struct {
	// Seed makes the injection deterministic: the decision for file
	// operation i of rank r is a pure function of (Seed, r, i).
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
}

// Active reports whether any fault class has a nonzero probability.
func (c ChaosConfig) Active() bool {
	return c.PTransient > 0 || c.PPermanent > 0 || c.PCorrupt > 0 || c.PShortRead > 0 || c.PShortWrite > 0
}

// ChaosCounts reports the file operations a fault source saw and the
// faults it injected into them.
type ChaosCounts struct {
	Ops         int64
	Transient   int64
	Permanent   int64
	Corruptions int64
	ShortReads  int64
	ShortWrites int64
}

// Add accumulates o into c.
func (c *ChaosCounts) Add(o ChaosCounts) {
	c.Ops += o.Ops
	c.Transient += o.Transient
	c.Permanent += o.Permanent
	c.Corruptions += o.Corruptions
	c.ShortReads += o.ShortReads
	c.ShortWrites += o.ShortWrites
}

// Chaos is one rank's fault source: every file operation the rank issues
// through a disk carrying it (Disk.SetChaos) is numbered on the rank's
// own counter and may be failed, torn or corrupted. A fault is either
// drawn, when mix(Seed, rank, i, class) falls below the class's
// probability, or scheduled: a file-operation mp.Fault of the rank
// fires at the rank's first operation from its Op on that it applies to
// (an outage fails that operation and every later one permanently).
//
// Determinism: the counter is the rank's alone and advances on the
// rank's goroutine, so the faults a rank suffers follow from its own
// program and not from how the host interleaves ranks. Counting takes no
// lock for the same reason.
type Chaos struct {
	cfg    ChaosConfig
	rank   int
	h      uint64 // the rank's term of the draws
	ops    int64
	sched  []mp.Fault // the rank's unfired scheduled faults, by Op
	down   bool       // an outage fired
	counts ChaosCounts
}

// Reset arms c for one run of rank: the drawn model cfg and, of faults,
// the file-operation kinds scheduled for rank. Nothing of an earlier run
// is kept but sched's storage.
func (c *Chaos) Reset(cfg ChaosConfig, rank int, faults []mp.Fault) {
	*c = Chaos{cfg: cfg, rank: rank, h: uint64(rank+1) * 0xD1B54A32D192ED03, sched: c.sched[:0]}
	for _, f := range faults {
		if f.Rank != rank || !f.Kind.IO() {
			continue
		}
		i := len(c.sched)
		c.sched = append(c.sched, f)
		for ; i > 0 && c.sched[i-1].Op > f.Op; i-- {
			c.sched[i-1], c.sched[i] = c.sched[i], c.sched[i-1]
		}
	}
}

// Counts returns what the source has seen and injected so far.
func (c *Chaos) Counts() ChaosCounts { return c.counts }

// Salts decorrelate the per-class random draws of one operation.
const (
	saltPermanent  = 0x1
	saltTransient  = 0x2
	saltCorrupt    = 0x3
	saltShortRead  = 0x4
	saltShortWrite = 0x5
	saltBitIndex   = 0x6
)

// mix derives a uniform value in [0,1) from (seed, rank term, op, salt)
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

// decide numbers one file operation and returns the fault to inject, if
// any. read/write select which data-path classes apply.
func (c *Chaos) decide(read, write bool) (op int64, kind mp.FaultKind, hit bool) {
	op = c.ops
	c.ops++
	c.counts.Ops++
	kind, hit = c.pick(op, read, write)
	if hit {
		switch kind {
		case mp.IOPermanent:
			c.counts.Permanent++
		case mp.IOTransient:
			c.counts.Transient++
		case mp.IOCorrupt:
			c.counts.Corruptions++
		case mp.IOShortRead:
			c.counts.ShortReads++
		case mp.IOShortWrite:
			c.counts.ShortWrites++
		}
	}
	return op, kind, hit
}

// pick evaluates the schedule and the drawn model for one operation.
func (c *Chaos) pick(op int64, read, write bool) (mp.FaultKind, bool) {
	if c.down {
		return mp.IOPermanent, true
	}
	for i, f := range c.sched {
		if f.Op > op {
			break
		}
		applies := f.Kind == mp.IOOutage || f.Kind == mp.IOTransient || f.Kind == mp.IOPermanent ||
			read && (f.Kind == mp.IOCorrupt || f.Kind == mp.IOShortRead) || write && f.Kind == mp.IOShortWrite
		if !applies {
			continue
		}
		c.sched = append(c.sched[:i], c.sched[i+1:]...)
		if f.Kind == mp.IOOutage {
			c.down = true
			return mp.IOPermanent, true
		}
		return f.Kind, true
	}
	cfg := &c.cfg
	if cfg.PPermanent > 0 && mix(cfg.Seed, c.h, op, saltPermanent) < cfg.PPermanent {
		return mp.IOPermanent, true
	}
	if cfg.PTransient > 0 && mix(cfg.Seed, c.h, op, saltTransient) < cfg.PTransient {
		return mp.IOTransient, true
	}
	if read && cfg.PCorrupt > 0 && mix(cfg.Seed, c.h, op, saltCorrupt) < cfg.PCorrupt {
		return mp.IOCorrupt, true
	}
	if read && cfg.PShortRead > 0 && mix(cfg.Seed, c.h, op, saltShortRead) < cfg.PShortRead {
		return mp.IOShortRead, true
	}
	if write && cfg.PShortWrite > 0 && mix(cfg.Seed, c.h, op, saltShortWrite) < cfg.PShortWrite {
		return mp.IOShortWrite, true
	}
	return 0, false
}

// fault builds the error of a failed operation.
func (c *Chaos) fault(kind mp.FaultKind, verb, name string, op int64) error {
	if kind == mp.IOPermanent {
		return fmt.Errorf("iosim: chaos %s %s (rank %d op %d): %w", verb, name, c.rank, op, ErrInjected)
	}
	return MarkTransient(fmt.Errorf("iosim: chaos injected transient fault: %s %s (rank %d op %d)", verb, name, c.rank, op))
}

// meta decides a metadata operation (create, open, remove, truncate):
// only a transient or permanent fault fails it.
func (c *Chaos) meta(verb, name string) error {
	op, kind, hit := c.decide(false, false)
	if hit && (kind == mp.IOPermanent || kind == mp.IOTransient) {
		return c.fault(kind, verb, name, op)
	}
	return nil
}

// readAt is f.ReadAt under the fault model.
func (c *Chaos) readAt(f File, name string, p []byte, off int64) (int, error) {
	op, kind, hit := c.decide(true, false)
	if hit {
		switch kind {
		case mp.IOPermanent, mp.IOTransient:
			return 0, c.fault(kind, "read", name, op)
		case mp.IOShortRead:
			n, err := f.ReadAt(p[:len(p)/2], off)
			if err != nil {
				return n, err
			}
			return n, MarkTransient(fmt.Errorf("iosim: chaos short read: %s (rank %d op %d): %d of %d bytes", name, c.rank, op, n, len(p)))
		}
	}
	n, err := f.ReadAt(p, off)
	if hit && kind == mp.IOCorrupt && n > 0 {
		// Silent read-path corruption: flip one deterministic bit.
		bit := int(mix(c.cfg.Seed, c.h, op, saltBitIndex) * float64(n*8))
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

// writeAt is f.WriteAt under the fault model.
func (c *Chaos) writeAt(f File, name string, p []byte, off int64) (int, error) {
	op, kind, hit := c.decide(false, true)
	if hit {
		switch kind {
		case mp.IOPermanent, mp.IOTransient:
			return 0, c.fault(kind, "write", name, op)
		case mp.IOShortWrite:
			// Torn write: a prefix reaches the file before the fault.
			n, err := f.WriteAt(p[:len(p)/2], off)
			if err != nil {
				return n, err
			}
			return n, MarkTransient(fmt.Errorf("iosim: chaos torn write: %s (rank %d op %d): %d of %d bytes", name, c.rank, op, n, len(p)))
		}
	}
	return f.WriteAt(p, off)
}
