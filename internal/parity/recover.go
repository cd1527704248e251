package parity

import (
	"errors"
	"fmt"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Recover implements iosim.ParityHook: it reconstructs the named data
// file — whose disk failed permanently — from the P-1 surviving disks.
// For every block of the lost file it gathers the stripe's parity block
// and the P-2 surviving data blocks, XORs them back into the lost
// content, and writes the result to a replacement file (whose creation
// stands in for mounting a spare disk). The gather traffic is charged as
// recovery messages on the owning rank's communication statistics, and
// the I/O plus message time is returned for the caller to fold into the
// interrupted operation's duration. Every block it gathers is verified
// against its checksums, parity blocks as well as data blocks, so a
// survivor's corrupted block fails the reconstruction with an error that
// names the file and the block (an *iosim.CorruptionError in its chain)
// rather than folding into the result; the replacement's blocks record
// their checksums as they are written.
func (st *Store) Recover(d *iosim.Disk, name string, cause error) (float64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fi := st.files[name]
	if fi == nil {
		return 0, fmt.Errorf("parity: %s is not protected (original fault: %w)", name, cause)
	}
	if st.dirty[fi.base] {
		return 0, fmt.Errorf("parity: group %q parity is out of sync, cannot reconstruct %s (original fault: %w)", fi.base, name, cause)
	}
	st.degraded = true
	fail := func(err error) (float64, error) {
		return 0, fmt.Errorf("parity: reconstruct %s: %w", name, errors.Join(err, cause))
	}

	// Mount the replacement.
	if old := st.handles[name]; old != nil {
		old.Close()
		delete(st.handles, name)
	}
	repl, err := d.CreateZeros(name, fi.bytes)
	if err != nil {
		return fail(err)
	}
	st.handles[name] = repl

	nBlocks := (fi.bytes + BlockBytes - 1) / BlockBytes
	var sec float64
	var requests, physBytes, messages, msgBytes int64
	acc := bufpool.GetBytes(BlockBytes)
	blk := bufpool.GetBytes(BlockBytes)
	defer bufpool.PutBytes(acc)
	defer bufpool.PutBytes(blk)
	gather := func(h iosim.File, hname string, off, want int64) error {
		rs, err := d.ReadVerified(h, hname, blk[:want], off)
		sec += rs
		if err != nil {
			return err
		}
		xorInto(acc[:want], blk[:want])
		requests++
		physBytes += want
		messages++
		msgBytes += st.modelBytes(want)
		sec += st.cfg.MsgTime(st.modelBytes(want))
		return nil
	}

	for k := int64(0); k < nBlocks; k++ {
		clear(acc)
		s := StripeOf(st.procs, fi.rank, k)
		p := ParityRankOf(st.procs, s)
		q := ParityIndexOf(st.procs, s)
		pname := ParityFileName(fi.base, p)
		if st.lostParity[pname] || st.lostDisks[p] {
			return fail(fmt.Errorf("parity: stripe %d parity on %s is itself lost (double fault)", s, pname))
		}
		// Open lazily (never create: that would truncate live parity). A
		// fresh Store over Attach-ed files reaches here with no cached
		// handles at all — the pre-existing parity files on the shared
		// file system are the source of truth.
		ph, err := st.dataHandle(d, pname)
		if err != nil {
			return fail(fmt.Errorf("parity: no parity file %s: %w", pname, err))
		}
		if err := gather(ph, pname, q*BlockBytes, BlockBytes); err != nil {
			return fail(err)
		}
		for r2 := 0; r2 < st.procs; r2++ {
			if r2 == fi.rank || r2 == p {
				continue
			}
			sibling := st.siblingOf(fi.base, r2)
			if sibling == nil {
				continue // rank r2 holds no file of this group
			}
			k2 := DataBlockOf(st.procs, r2, s)
			off := k2 * BlockBytes
			if off >= sibling.bytes {
				continue // past r2's file: an implicit zero block
			}
			want := sibling.bytes - off
			if want > BlockBytes {
				want = BlockBytes
			}
			sh, err := st.dataHandle(d, sibling.name)
			if err != nil {
				return fail(err)
			}
			if err := gather(sh, sibling.name, off, want); err != nil {
				return fail(err)
			}
		}
		blockLen := fi.bytes - k*BlockBytes
		if blockLen > BlockBytes {
			blockLen = BlockBytes
		}
		ws, err := d.WriteChecked(repl, name, acc[:blockLen], k*BlockBytes, fi.bytes)
		sec += ws
		if err != nil {
			return fail(err)
		}
		requests++
		physBytes += blockLen
	}

	sec += st.cfg.IOTime(int(requests), st.modelBytes(physBytes))
	// The reconstruction seconds are folded into the interrupted
	// operation's duration by the caller, so this span is off the
	// synchronous timeline (Deferred) and informational for Seconds —
	// only the reconstruction counters fold from it.
	d.Record(&trace.Span{Kind: trace.KindReconstruct, Dur: sec,
		Deferred: true, N: nBlocks, Bytes: st.modelBytes(fi.bytes)})
	// Attributed to the rank whose statistics are charged, which the
	// tracer routes through its cross-rank buffer.
	d.RecordCross(fi.rank, st.comm[fi.rank], &trace.Span{Kind: trace.KindRecoveryComm, N: messages, Bytes: msgBytes})
	return sec, nil
}

// namedInfo pairs a registration with its file name for sibling lookups.
type namedInfo struct {
	name  string
	rank  int
	bytes int64
}

// siblingOf finds the registered member of a group at the given rank.
// Called with st.mu held.
func (st *Store) siblingOf(base string, rank int) *namedInfo {
	for name, fi := range st.files {
		if fi.base == base && fi.rank == rank {
			return &namedInfo{name: name, rank: rank, bytes: fi.bytes}
		}
	}
	return nil
}

// RebuildRank restores full redundancy for the parity files hosted on one
// rank's logical disk: every parity file flagged lost, every parity file
// of a group flagged dirty, and every one when the disk itself was lost,
// is recomputed wholesale from the group's data files. The dirty and
// lost-file flags stay until ClearDirty, so every rank of the executor's
// parity sync reads the same NeedsRebuild answer; the disk's own flag is
// its rank's and goes once every file it hosts is back. The executor runs
// it on every rank (between barriers) before declaring the run clean;
// the returned seconds are charged to that rank's clock.
func (st *Store) RebuildRank(d *iosim.Disk, rank int) (float64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Fast path: with no dirty group and no lost parity file anywhere
	// there is nothing to rebuild for any rank, and the ordinary
	// end-of-run sweep must stay allocation-free.
	if len(st.dirty) == 0 && len(st.lostParity) == 0 && !st.lostDisks[rank] {
		return 0, nil
	}
	var sec float64
	var errs []error
	// memberBases is kept sorted: the float accumulation of the rebuild
	// seconds must be reproducible (and must match the cost model's
	// closed form exactly).
	for _, base := range st.memberBases {
		if !st.dirty[base] && !st.lostParity[ParityFileName(base, rank)] && !st.lostDisks[rank] {
			continue
		}
		rs, err := st.rebuildParityFileLocked(d, base, rank)
		sec += rs
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		delete(st.lostDisks, rank)
	}
	return sec, errors.Join(errs...)
}

// rebuildParityFileLocked recomputes rank p's entire parity file for a
// group from the group's data files (gathered from the other disks, each
// block verified) and rewrites it from scratch: the file is created
// afresh, so its checksums start over, and each block records its own as
// it is written. Called with st.mu held.
func (st *Store) rebuildParityFileLocked(d *iosim.Disk, base string, p int) (float64, error) {
	pname := ParityFileName(base, p)
	if st.phantom {
		return 0, nil
	}
	st.degraded = true
	members := make([]*namedInfo, 0, st.procs)
	maxQ := int64(0)
	for name, fi := range st.files {
		if fi.base != base || fi.rank == p {
			continue
		}
		members = append(members, &namedInfo{name: name, rank: fi.rank, bytes: fi.bytes})
		blocks := (fi.bytes + BlockBytes - 1) / BlockBytes
		q := (blocks + int64(st.procs-1) - 1) / int64(st.procs-1)
		if q > maxQ {
			maxQ = q
		}
	}
	// Rank order, not map order: the gather sequence (and so the float
	// accumulation of its seconds) must be reproducible. Insertion sort:
	// the group has at most procs members and sort.Slice would allocate
	// on a path the wall-clock benchmark gates.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && members[j-1].rank > members[j].rank; j-- {
			members[j-1], members[j] = members[j], members[j-1]
		}
	}

	if old := st.handles[pname]; old != nil {
		old.Close()
		delete(st.handles, pname)
	}
	var f iosim.File
	_, err := d.Retry("create", pname, false, func() error {
		var err error
		f, err = d.Create(pname)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("parity: rebuild %s: %w", pname, err)
	}
	st.handles[pname] = f

	var sec float64
	var requests, physBytes, messages, msgBytes int64
	acc := bufpool.GetBytes(BlockBytes)
	blk := bufpool.GetBytes(BlockBytes)
	defer bufpool.PutBytes(acc)
	defer bufpool.PutBytes(blk)
	for q := int64(0); q < maxQ; q++ {
		clear(acc)
		s := q*int64(st.procs) + int64(p)
		for _, m := range members {
			k := DataBlockOf(st.procs, m.rank, s)
			off := k * BlockBytes
			if off >= m.bytes {
				continue
			}
			want := m.bytes - off
			if want > BlockBytes {
				want = BlockBytes
			}
			h, err := st.dataHandle(d, m.name)
			if err != nil {
				return sec, fmt.Errorf("parity: rebuild %s: %w", pname, err)
			}
			rs, err := d.ReadVerified(h, m.name, blk[:want], off)
			sec += rs
			if err != nil {
				return sec, fmt.Errorf("parity: rebuild %s: %w", pname, err)
			}
			xorInto(acc[:want], blk[:want])
			requests++
			physBytes += want
			messages++
			msgBytes += st.modelBytes(want)
			sec += st.cfg.MsgTime(st.modelBytes(want))
		}
		// A whole block: the write's own end stands for the file's.
		ws, err := d.WriteChecked(f, pname, acc, q*BlockBytes, (q+1)*BlockBytes)
		sec += ws
		if err != nil {
			return sec, fmt.Errorf("parity: rebuild %s: %w", pname, err)
		}
		requests++
		physBytes += BlockBytes
	}
	sec += st.cfg.IOTime(int(requests), st.modelBytes(physBytes))
	d.Record(&trace.Span{Kind: trace.KindParityRebuild, Dur: sec,
		Deferred: true, N: maxQ, Bytes: st.modelBytes(physBytes)})
	d.RecordCross(p, st.comm[p], &trace.Span{Kind: trace.KindRecoveryComm, N: messages, Bytes: msgBytes})
	return sec, nil
}
