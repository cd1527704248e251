package cost

import (
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/sim"
)

// RecoveryTime is the closed-form prediction of what surviving one
// fail-stop rank loss costs on the simulated machine: the heartbeat
// detection stall the first blocked survivor pays, and the offline
// reconstruction of every local array file (plus the hosted parity
// files) of the dead rank's logical disk. The rebuild arithmetic mirrors
// parity.Recover and parity.RebuildRank charge for charge, so a
// fault-free-I/O recovery must reproduce RebuildSeconds to the digit —
// the ranksurvival experiment gates on that equality.
type RecoveryTime struct {
	// DetectSeconds is the worst-case failure-detection stall: a survivor
	// blocking at the instant the victim dies waits the full heartbeat
	// timeout before resolving the op to ErrRankDead.
	DetectSeconds float64
	// RebuildSeconds prices the reconstruction of the dead disk: block
	// gathers from the P-1 survivors, XOR write-back, and the recompute
	// of the parity files the dead disk hosted.
	RebuildSeconds float64
	// RebuildRequests / RebuildBytes total the rebuild's disk requests
	// and cost-model bytes; RebuildMessages / RebuildMsgBytes total its
	// cross-disk gather traffic.
	RebuildRequests int64
	RebuildBytes    int64
	RebuildMessages int64
	RebuildMsgBytes int64
}

// TotalSeconds is the end-to-end price of the loss (detection stall plus
// offline rebuild; the resumed attempt's own cost is a fresh run and is
// not part of the recovery overhead).
func (r RecoveryTime) TotalSeconds() float64 {
	return r.DetectSeconds + r.RebuildSeconds
}

// RecoveryForRank predicts the recovery cost of losing rank dead. groups
// lists, per protected parity group (array), the per-rank data file
// sizes in physical file bytes (iosim.FileElemBytes per element) —
// groups[g][r] is rank r's file of group g. detectTimeout is the
// heartbeat detection timeout (sim.DetectionTimeout); pass 0 to price
// the rebuild alone. Groups must be given in sorted base-name order,
// matching the runtime's rebuild order, so the float accumulation
// reproduces exactly.
func RecoveryForRank(cfg sim.Config, procs int, groups [][]int64, dead int, detectTimeout float64) RecoveryTime {
	r := RecoveryTime{DetectSeconds: detectTimeout}
	// The executor's pre-pass recovers every group's dead data file
	// first, then recomputes the dead disk's parity files group by group.
	// The parity phase is summed in its own accumulator before folding,
	// mirroring RebuildRank's internal accumulation, so the float result
	// matches the runtime bit for bit.
	for _, sizes := range groups {
		r.RebuildSeconds += r.addRecoverFile(cfg, procs, sizes, dead)
	}
	var rebuild float64
	for _, sizes := range groups {
		rebuild += r.addParityRebuild(cfg, procs, sizes, dead)
	}
	r.RebuildSeconds += rebuild
	return r
}

// addRecoverFile mirrors parity.Recover for the dead rank's data file of
// one group: per lost block, gather the stripe's parity block and every
// surviving data block, then write the XOR back to the replacement. It
// returns the charged seconds (the caller folds them, preserving the
// runtime's accumulation order).
func (r *RecoveryTime) addRecoverFile(cfg sim.Config, procs int, sizes []int64, dead int) float64 {
	const block = parity.BlockBytes
	bytes := sizes[dead]
	nBlocks := (bytes + block - 1) / block
	var sec float64
	var requests, physBytes int64
	gather := func(want int64) {
		requests++
		physBytes += want
		r.RebuildMessages++
		mb := modelBytes(cfg, want)
		r.RebuildMsgBytes += mb
		sec += cfg.MsgTime(mb)
	}
	for k := int64(0); k < nBlocks; k++ {
		s := parity.StripeOf(procs, dead, k)
		p := parity.ParityRankOf(procs, s)
		gather(block) // the stripe's parity block
		for r2 := 0; r2 < procs; r2++ {
			if r2 == dead || r2 == p {
				continue
			}
			k2 := parity.DataBlockOf(procs, r2, s)
			off := k2 * block
			if off >= sizes[r2] {
				continue // past r2's file: an implicit zero block
			}
			want := sizes[r2] - off
			if want > block {
				want = block
			}
			gather(want)
		}
		blockLen := bytes - k*block
		if blockLen > block {
			blockLen = block
		}
		requests++
		physBytes += blockLen
	}
	sec += cfg.IOTime(int(requests), modelBytes(cfg, physBytes))
	r.RebuildRequests += requests
	r.RebuildBytes += modelBytes(cfg, physBytes)
	return sec
}

// addParityRebuild mirrors parity.RebuildRank recomputing the parity
// file the dead disk hosted for one group, wholesale from the group's
// surviving data files. Like addRecoverFile it returns the seconds.
func (r *RecoveryTime) addParityRebuild(cfg sim.Config, procs int, sizes []int64, dead int) float64 {
	const block = parity.BlockBytes
	maxQ := int64(0)
	for rk, bytes := range sizes {
		if rk == dead {
			continue
		}
		blocks := (bytes + block - 1) / block
		q := (blocks + int64(procs-1) - 1) / int64(procs-1)
		if q > maxQ {
			maxQ = q
		}
	}
	var sec float64
	var requests, physBytes int64
	for q := int64(0); q < maxQ; q++ {
		s := q*int64(procs) + int64(dead)
		for rk := 0; rk < procs; rk++ {
			if rk == dead {
				continue
			}
			k := parity.DataBlockOf(procs, rk, s)
			off := k * block
			if off >= sizes[rk] {
				continue
			}
			want := sizes[rk] - off
			if want > block {
				want = block
			}
			requests++
			physBytes += want
			r.RebuildMessages++
			mb := modelBytes(cfg, want)
			r.RebuildMsgBytes += mb
			sec += cfg.MsgTime(mb)
		}
		requests++
		physBytes += block
	}
	sec += cfg.IOTime(int(requests), modelBytes(cfg, physBytes))
	r.RebuildRequests += requests
	r.RebuildBytes += modelBytes(cfg, physBytes)
	return sec
}
