// Package sim models the hardware of a distributed memory machine with a
// parallel I/O subsystem, in the style of the Intel Touchstone Delta used
// by Bordawekar, Choudhary and Thakur (SCCS-622 / IPPS'97).
//
// The model is deliberately simple and deterministic: every processor owns
// a virtual clock, and the runtime charges compute, communication and disk
// operations against those clocks using the constants in Config. The paper
// analyzes I/O cost through two metrics — the number of I/O requests per
// processor and the volume of data moved per processor — so the model maps
// exactly those metrics to simulated seconds.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Config describes the simulated machine. The zero value is not usable;
// start from Delta (the paper's testbed) or Modern and adjust.
type Config struct {
	// Procs is the number of compute processors P.
	Procs int

	// ComputeRate is the per-processor compute throughput in floating
	// point operations per second achieved on the node kernels.
	ComputeRate float64

	// MsgLatency is the fixed startup time of one message in seconds.
	MsgLatency float64

	// MsgBandwidth is the point-to-point bandwidth in bytes per second.
	MsgBandwidth float64

	// DiskRequestOverhead is the fixed cost, in seconds, of one I/O
	// request (seek, controller and file system overhead). A slab fetch
	// that touches k discontiguous regions of the local array file
	// issues k requests unless data sieving coalesces them.
	DiskRequestOverhead float64

	// DiskBandwidth caps the transfer rate of a single logical disk in
	// bytes per second, regardless of how idle the I/O subsystem is.
	DiskBandwidth float64

	// AggregateDiskBandwidth is the total transfer rate of the I/O
	// subsystem at Procs == 1, in bytes per second. The subsystem
	// scales sublinearly: with P processors the aggregate delivered
	// bandwidth is AggregateDiskBandwidth * P^IOScaling, shared evenly
	// by the P processors.
	AggregateDiskBandwidth float64

	// IOScaling is the exponent of the sublinear aggregate-bandwidth
	// growth described above. 0 freezes the aggregate (a single shared
	// channel), 1 gives every processor a private full-speed disk.
	IOScaling float64

	// ElemSize is the size in bytes of one array element as charged to
	// the cost model. The paper's arrays are real*4, so Delta uses 4
	// even though this implementation computes in float64.
	ElemSize int
}

// Delta returns a configuration calibrated against the Intel Touchstone
// Delta numbers reported in the paper (Table 1: 1K x 1K GAXPY matrix
// multiplication on 4..64 processors over the Concurrent File System).
// The calibration targets the in-core compute times and the column-slab
// I/O-bound times; everything else is prediction.
func Delta(procs int) Config {
	return Config{
		Procs:                  procs,
		ComputeRate:            3.8e6,
		MsgLatency:             80e-6,
		MsgBandwidth:           25e6,
		DiskRequestOverhead:    15e-3,
		DiskBandwidth:          2.5e6,
		AggregateDiskBandwidth: 4.65e6,
		IOScaling:              0.12,
		ElemSize:               4,
	}
}

// Modern returns a configuration resembling a contemporary cluster node
// with NVMe-class storage. Useful to show how the paper's trade-offs move
// when request overhead collapses.
func Modern(procs int) Config {
	return Config{
		Procs:                  procs,
		ComputeRate:            2e9,
		MsgLatency:             2e-6,
		MsgBandwidth:           10e9,
		DiskRequestOverhead:    50e-6,
		DiskBandwidth:          2e9,
		AggregateDiskBandwidth: 8e9,
		IOScaling:              0.5,
		ElemSize:               8,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("sim: Procs must be positive, got %d", c.Procs)
	case c.ComputeRate <= 0:
		return errors.New("sim: ComputeRate must be positive")
	case c.MsgLatency < 0 || c.MsgBandwidth <= 0:
		return errors.New("sim: message cost parameters must be positive")
	case c.DiskRequestOverhead < 0:
		return errors.New("sim: DiskRequestOverhead must be non-negative")
	case c.DiskBandwidth <= 0 || c.AggregateDiskBandwidth <= 0:
		return errors.New("sim: disk bandwidths must be positive")
	case c.IOScaling < 0 || c.IOScaling > 1:
		return fmt.Errorf("sim: IOScaling must be in [0,1], got %g", c.IOScaling)
	case c.ElemSize <= 0:
		return fmt.Errorf("sim: ElemSize must be positive, got %d", c.ElemSize)
	}
	return nil
}

// EffectiveDiskBandwidth returns the disk bandwidth, in bytes per second,
// available to one processor when all Procs processors stream concurrently:
// the sublinearly scaled aggregate divided by P, capped by the speed of a
// single logical disk.
func (c Config) EffectiveDiskBandwidth() float64 {
	p := float64(c.Procs)
	agg := c.AggregateDiskBandwidth * math.Pow(p, c.IOScaling)
	return math.Min(c.DiskBandwidth, agg/p)
}

// IOTime returns the simulated seconds one processor spends on an I/O
// operation consisting of the given number of requests (discontiguous
// regions) moving the given number of bytes in total.
func (c Config) IOTime(requests int, bytes int64) float64 {
	return c.IOTimeAt(c.EffectiveDiskBandwidth(), requests, bytes)
}

// IOTimeAt is IOTime at a given effective disk bandwidth, for callers
// that price many operations on one machine. The product is rounded on
// its own (float64(x*y)), so no architecture fuses it with the sum into
// a multiply-add and the clock keeps its bits on every host.
func (c Config) IOTimeAt(bw float64, requests int, bytes int64) float64 {
	return float64(float64(requests)*c.DiskRequestOverhead) + float64(bytes)/bw
}

// MsgTime returns the simulated seconds to move one point-to-point message
// of the given size.
func (c Config) MsgTime(bytes int64) float64 {
	return c.MsgLatency + float64(bytes)/c.MsgBandwidth
}

// ReduceTime returns the simulated seconds of a tree reduction (or
// broadcast) of a vector of the given size across P processors:
// ceil(log2 P) message steps.
func (c Config) ReduceTime(bytes int64) float64 {
	return float64(logSteps(c.Procs)) * c.MsgTime(bytes)
}

// ComputeTime returns the simulated seconds to execute the given number of
// floating point operations on one processor.
func (c Config) ComputeTime(flops int64) float64 {
	return float64(flops) / c.ComputeRate
}

// logSteps returns ceil(log2(p)) for p >= 1.
func logSteps(p int) int {
	steps := 0
	for n := 1; n < p; n <<= 1 {
		steps++
	}
	return steps
}

// Clock is a per-processor virtual clock. Clocks only move forward.
type Clock struct {
	seconds float64
}

// Advance moves the clock forward by dt seconds. Negative dt is ignored.
func (c *Clock) Advance(dt float64) {
	if dt > 0 {
		c.seconds += dt
	}
}

// AdvanceN is n Advance(dt) calls: n separate additions, which is not
// one addition of n·dt once the sum rounds.
func (c *Clock) AdvanceN(dt float64, n int) {
	if dt > 0 {
		s := c.seconds
		for ; n > 0; n-- {
			s += dt
		}
		c.seconds = s
	}
}

// SyncTo moves the clock forward to t if t is later than the current time.
// Collective operations use it to model the implicit barrier: every
// participant leaves at the time the slowest participant arrived plus the
// cost of the collective.
func (c *Clock) SyncTo(t float64) {
	if t > c.seconds {
		c.seconds = t
	}
}

// Seconds returns the current simulated time.
func (c *Clock) Seconds() float64 {
	return c.seconds
}
