package exec

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"math"

	"github.com/ooc-hpf/passion/internal/bytecode"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/trace"
)

// CheckpointSpec enables checkpoint/restart for an execution: at eligible
// boundaries each processor snapshots the local files of every mutated
// array plus the interpreter's cross-boundary state (staging buffers and
// the global column counter) and an iteration cursor, committing them to
// a per-processor manifest. A failed or killed run restarts from the last
// globally consistent checkpoint (Options.Resume).
//
// Eligible boundaries are (1) between top-level statements of the program
// and (2) between iterations of top-level loops every rank runs the same
// trips of (plan.Uniform): time loops, whose count is a literal, and loops
// containing SumStore, whose reductions force globally uniform trip
// counts. The latter restriction keeps the checkpoint's internal barrier
// collective-safe, while purely local loops may run different counts per
// processor.
type CheckpointSpec struct {
	// Every checkpoints each Every-th eligible loop iteration; values
	// below 1 behave as 1. Statement boundaries checkpoint (bytecode.OpCkpt).
	Every int
	// Prefix names the checkpoint files; empty means "ckpt". Manifests
	// are written to <prefix>.p<rank>.s<slot>.manifest and array
	// snapshots to <prefix>.s<slot>.<array>.p<rank>.laf, with two slots
	// alternating per epoch so a crash mid-checkpoint never destroys the
	// previous consistent one.
	Prefix string
}

func (c *CheckpointSpec) prefix() string {
	if c.Prefix == "" {
		return "ckpt"
	}
	return c.Prefix
}

func (c *CheckpointSpec) every() int {
	if c.Every < 1 {
		return 1
	}
	return c.Every
}

// ErrNoCheckpoint reports that Resume found no complete checkpoint epoch
// on any slot; the run must be restarted from scratch.
var ErrNoCheckpoint = errors.New("exec: no consistent checkpoint found")

// ckptTag is the collective tag of the checkpoint commit barrier.
const ckptTag = 13

// ckptSlots is the number of alternating on-disk checkpoint generations.
const ckptSlots = 2

// ckptMagic frames manifest files.
const ckptMagic = "OOCKPT1\n"

func (c *CheckpointSpec) manifestName(rank, slot int) string {
	return fmt.Sprintf("%s.p%d.s%d.manifest", c.prefix(), rank, slot)
}

func (c *CheckpointSpec) snapshotName(array string, rank, slot int) string {
	return fmt.Sprintf("%s.s%d.%s.p%d.laf", c.prefix(), slot, array, rank)
}

// ckptICLA serializes one staging buffer. Data is base64 of the raw
// little-endian float64 bytes, so the round trip is bitwise exact even
// for values JSON cannot represent.
type ckptICLA struct {
	RowOff int    `json:"row_off"`
	ColOff int    `json:"col_off"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	Data   string `json:"data"`
}

// ckptStats is one processor's statistics state at the instant the
// checkpoint was taken (pre-commit-barrier). Restoring it — plus
// replaying the commit barrier — puts a resumed rank's simulated clock
// and counters exactly where the uninterrupted run's were, so the final
// statistics of a resumed run are bitwise identical. Every float64
// round-trips exactly through JSON (encoding/json emits the shortest
// representation that parses back to the same bits).
type ckptStats struct {
	Clock          float64                   `json:"clock"`
	Comm           trace.CommStats           `json:"comm"`
	Flops          int64                     `json:"flops"`
	ComputeSeconds float64                   `json:"compute_seconds"`
	PerArray       map[string]*trace.IOStats `json:"per_array,omitempty"`
}

// ckptManifest is one processor's committed checkpoint record.
type ckptManifest struct {
	Epoch   int                  `json:"epoch"`
	NodeIdx int                  `json:"node_idx"`
	Iter    int                  `json:"iter"`
	Counter int                  `json:"counter"`
	Auto    map[string]bool      `json:"auto,omitempty"`
	AutoIdx map[string]int       `json:"auto_idx,omitempty"`
	Staging map[string]*ckptICLA `json:"staging,omitempty"`
	// Arrays lists the mutated arrays whose snapshots accompany this
	// manifest.
	Arrays []string `json:"arrays"`
	// Run snapshots the rank's clock and statistics at checkpoint time;
	// Options.RestoreStats consumes it on resume.
	Run *ckptStats `json:"run,omitempty"`
}

// floatsToB64 encodes float64s as base64 over little-endian bytes.
func floatsToB64(v []float64) string {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// b64ToFloats inverts floatsToB64.
func b64ToFloats(s string) ([]float64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("exec: staging payload of %d bytes is not a float64 sequence", len(buf))
	}
	v := make([]float64, len(buf)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v, nil
}

// writeManifest frames and stores one manifest: magic, payload length,
// payload CRC32, JSON payload. The framing makes torn or corrupted
// manifests detectable, so Resume simply ignores them and falls back to
// the other slot.
func writeManifest(fs iosim.FS, name string, m *ckptManifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("exec: encode checkpoint manifest: %w", err)
	}
	frame := make([]byte, len(ckptMagic)+8+len(payload))
	copy(frame, ckptMagic)
	binary.BigEndian.PutUint32(frame[len(ckptMagic):], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[len(ckptMagic)+4:], crc32.ChecksumIEEE(payload))
	copy(frame[len(ckptMagic)+8:], payload)
	f, err := fs.Create(name)
	if err != nil {
		return fmt.Errorf("exec: create checkpoint manifest %s: %w", name, err)
	}
	n, werr := f.WriteAt(frame, 0)
	cerr := f.Close()
	if werr != nil || n != len(frame) {
		return fmt.Errorf("exec: write checkpoint manifest %s: %d of %d bytes: %v", name, n, len(frame), werr)
	}
	if cerr != nil {
		return fmt.Errorf("exec: close checkpoint manifest %s: %w", name, cerr)
	}
	return nil
}

// readManifest loads and validates one manifest; any framing or checksum
// violation returns an error (the caller treats the slot as absent).
func readManifest(fs iosim.FS, name string) (*ckptManifest, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, len(ckptMagic)+8)
	if n, err := f.ReadAt(head, 0); n != len(head) {
		return nil, fmt.Errorf("exec: manifest %s header: %d of %d bytes: %v", name, n, len(head), err)
	}
	if string(head[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("exec: manifest %s: bad magic", name)
	}
	plen := binary.BigEndian.Uint32(head[len(ckptMagic):])
	want := binary.BigEndian.Uint32(head[len(ckptMagic)+4:])
	// The length is not yet vouched for by the checksum: read through a
	// section reader so memory follows the bytes the file really holds,
	// not a length field one flipped bit can turn into gigabytes.
	payload, err := io.ReadAll(io.NewSectionReader(f, int64(len(head)), int64(plen)))
	if err != nil || uint32(len(payload)) != plen {
		return nil, fmt.Errorf("exec: manifest %s payload: %d of %d bytes: %v", name, len(payload), plen, err)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("exec: manifest %s: payload checksum mismatch", name)
	}
	var m ckptManifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("exec: manifest %s: %w", name, err)
	}
	return &m, nil
}

// writeSet is the arrays a program writes, in first-write order — what a
// checkpoint snapshots. It is computed once per lowering and shared
// read-only by every rank of every run.
type writeSet struct {
	idx   []int32  // array-table indices
	names []string // the same arrays by name, as manifests list them
}

// mutatedArrays collects the arrays the stream's instructions write,
// rather than trusting ArraySpec.Role (elementwise programs mark
// read-and-written arrays as inputs).
func mutatedArrays(code *bytecode.Program) writeSet {
	var ws writeSet
	seen := make([]bool, len(code.Arrays))
	for i := range code.Code {
		ins := &code.Code[i]
		var a int32
		switch ins.Op {
		case bytecode.OpStoreSlab, bytecode.OpFlushStage:
			a = ins.A
		case bytecode.OpSumStore:
			a = ins.B
		default:
			continue
		}
		if !seen[a] {
			seen[a] = true
			ws.idx = append(ws.idx, a)
			ws.names = append(ws.names, code.Arrays[a].Name)
		}
	}
	return ws
}

// checkpoint commits one checkpoint with cursor (nodeIdx, iter): array
// snapshots and the manifest go to the slot epoch%2, then a barrier
// makes the epoch globally committed before anyone can start the next
// one (so the slots of any two processors never diverge by more than one
// epoch, and the minimum of the per-processor maxima is always a
// complete, consistent generation). The manifest is keyed by array name
// (code.Arrays[i].Name), written straight from the slot tables.
// Checkpoint I/O is unaccounted except for the commit barrier's
// synchronization.
func (in *interp) checkpoint(nodeIdx, iter int) error {
	ckptStart := in.proc.Clock().Seconds()
	spec := in.ckptSpec
	slot := in.ckptEpoch % ckptSlots
	rank := in.proc.Rank()
	for k, ai := range in.mutated.idx {
		name := in.mutated.names[k]
		m, err := in.arrays[ai].ReadLocal()
		if err != nil {
			return fmt.Errorf("exec: checkpoint snapshot of %q: %w", name, err)
		}
		disk := iosim.NewResilientDisk(in.fs, in.proc.Config(), nil, in.res)
		laf, err := disk.CreateLAF(spec.snapshotName(name, rank, slot), int64(len(m.Data)))
		if err != nil {
			return fmt.Errorf("exec: checkpoint snapshot of %q: %w", name, err)
		}
		_, werr := laf.WriteAll(m.Data)
		cerr := laf.Close()
		if werr != nil {
			return fmt.Errorf("exec: checkpoint snapshot of %q: %w", name, werr)
		}
		if cerr != nil {
			return fmt.Errorf("exec: checkpoint snapshot of %q: %w", name, cerr)
		}
	}
	man := &ckptManifest{
		Epoch:   in.ckptEpoch,
		NodeIdx: nodeIdx,
		Iter:    iter,
		Counter: in.counter,
		Arrays:  in.mutated.names,
		Run:     in.snapshotStats(ckptStart),
	}
	for i := range in.code.Arrays {
		name := in.code.Arrays[i].Name
		if in.autoOn[i] {
			if man.Auto == nil {
				man.Auto = make(map[string]bool)
				man.AutoIdx = make(map[string]int)
			}
			man.Auto[name] = true
			man.AutoIdx[name] = in.autoIdx[i]
		}
		if s := in.staging[i]; s != nil {
			if man.Staging == nil {
				man.Staging = make(map[string]*ckptICLA)
			}
			man.Staging[name] = &ckptICLA{
				RowOff: s.RowOff, ColOff: s.ColOff,
				Rows: s.Rows, Cols: s.Cols,
				Data: floatsToB64(s.Data),
			}
		}
	}
	if err := writeManifest(in.fs, spec.manifestName(rank, slot), man); err != nil {
		return err
	}
	// Commit: every processor has durably written epoch E before any
	// processor may overwrite the slot holding epoch E-1.
	in.proc.Barrier(ckptTag)
	if tr := in.proc.Tracer(); tr != nil {
		// Checkpoint I/O itself is unaccounted; the span brackets the
		// commit (including its barrier wait) as an overlay marker.
		tr.Emit(trace.Span{Kind: trace.KindCheckpoint, Start: ckptStart,
			Dur: in.proc.Clock().Seconds() - ckptStart, N: int64(in.ckptEpoch)})
	}
	if in.ckptHook != nil && rank == 0 {
		// The epoch is globally committed; let the harness observe (or
		// crash at) this boundary.
		in.ckptHook(in.ckptEpoch)
	}
	in.ckptEpoch++
	return nil
}

// snapshotStats captures the rank's pre-barrier statistics for the
// manifest. The per-array entries are value copies, so later mutation of
// the live counters cannot leak into the committed record.
func (in *interp) snapshotStats(clock float64) *ckptStats {
	st := in.proc.Stats()
	s := &ckptStats{
		Clock:          clock,
		Comm:           st.Comm,
		Flops:          st.Flops,
		ComputeSeconds: st.ComputeSeconds,
	}
	if len(in.perArray) > 0 {
		s.PerArray = make(map[string]*trace.IOStats, len(in.perArray))
		for name, io := range in.perArray {
			cp := *io
			s.PerArray[name] = &cp
		}
	}
	return s
}

// restored is one rank's checkpoint manifest resolved against the
// program it is about to resume: every array name looked up in the
// stream's array table, the cross-boundary state laid out as the
// interpreter's per-array tables.
type restored struct {
	man     *ckptManifest
	arrays  []int32 // table indices of man.Arrays, the snapshots to copy back
	staging []*oocarray.ICLA
	autoOn  []bool
	autoIdx []int
}

// resolveManifest checks a manifest against the program and lays its
// state out by array-table index. A manifest is bytes from disk: a name
// the program does not have, or a staging buffer that does not fit the
// array's local block on this rank, is an error here — before any rank
// starts — rather than state silently carried into the run. So is a
// manifest without a statistics snapshot when restoreStats asks for one.
func resolveManifest(code *bytecode.Program, dmaps []*dist.Array, rank int, m *ckptManifest, restoreStats bool) (*restored, error) {
	index := func(name string) (int32, error) {
		for i := range code.Arrays {
			if code.Arrays[i].Name == name {
				return int32(i), nil
			}
		}
		return 0, fmt.Errorf("exec: restore: manifest names array %q, not in program %s", name, code.Name)
	}
	na := len(code.Arrays)
	r := &restored{man: m, staging: make([]*oocarray.ICLA, na), autoOn: make([]bool, na), autoIdx: make([]int, na)}
	for _, name := range m.Arrays {
		i, err := index(name)
		if err != nil {
			return nil, err
		}
		r.arrays = append(r.arrays, i)
	}
	for name, on := range m.Auto {
		i, err := index(name)
		if err != nil {
			return nil, err
		}
		r.autoOn[i] = on
	}
	for name, idx := range m.AutoIdx {
		i, err := index(name)
		if err != nil {
			return nil, err
		}
		r.autoIdx[i] = idx
	}
	for name, c := range m.Staging {
		i, err := index(name)
		if err != nil {
			return nil, err
		}
		if c == nil {
			continue
		}
		shape := dmaps[i].LocalShape(rank)
		if c.RowOff < 0 || c.RowOff > shape[0] || c.Rows < 0 || c.Rows > shape[0]-c.RowOff ||
			c.ColOff < 0 || c.ColOff > shape[1] || c.Cols < 0 || c.Cols > shape[1]-c.ColOff {
			return nil, fmt.Errorf("exec: restore: manifest staging %dx%d@(%d,%d) outside local shape %dx%d of array %q on rank %d",
				c.Rows, c.Cols, c.RowOff, c.ColOff, shape[0], shape[1], name, rank)
		}
		data, err := b64ToFloats(c.Data)
		if err != nil {
			return nil, fmt.Errorf("exec: restore staging of %q: %w", name, err)
		}
		if len(data) != c.Rows*c.Cols {
			return nil, fmt.Errorf("exec: restore staging of %q: %d elements for %dx%d", name, len(data), c.Rows, c.Cols)
		}
		r.staging[i] = &oocarray.ICLA{RowOff: c.RowOff, ColOff: c.ColOff, Rows: c.Rows, Cols: c.Cols, Data: data}
	}
	if restoreStats && m.Run == nil {
		return nil, fmt.Errorf("exec: restore: rank %d's epoch %d manifest has no statistics snapshot to restore", rank, m.Epoch)
	}
	if m.Run != nil {
		for name := range m.Run.PerArray {
			if name == parityStatsKey {
				continue
			}
			if _, err := index(name); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// restore rebuilds the mutated arrays' local files from a committed
// checkpoint's snapshots and adopts its cross-boundary state. It runs
// after the arrays have been opened (not created) by initArrays.
func (in *interp) restore(r *restored) error {
	m := r.man
	spec := in.ckptSpec
	slot := m.Epoch % ckptSlots
	rank := in.proc.Rank()
	for _, ai := range r.arrays {
		arr, name := in.arrays[ai], in.code.Arrays[ai].Name
		disk := iosim.NewResilientDisk(in.fs, in.proc.Config(), nil, in.res)
		laf, err := disk.OpenLAF(spec.snapshotName(name, rank, slot), int64(arr.LocalElems()))
		if err != nil {
			return fmt.Errorf("exec: restore snapshot of %q: %w", name, err)
		}
		data, _, rerr := laf.ReadAll()
		cerr := laf.Close()
		if rerr != nil {
			return fmt.Errorf("exec: restore snapshot of %q: %w", name, rerr)
		}
		if cerr != nil {
			return fmt.Errorf("exec: restore snapshot of %q: %w", name, cerr)
		}
		mat := matrix.New(arr.LocalRows(), arr.LocalCols())
		copy(mat.Data, data)
		if err := arr.WriteLocal(mat); err != nil {
			return fmt.Errorf("exec: restore snapshot of %q: %w", name, err)
		}
	}
	in.counter = m.Counter
	copy(in.staging, r.staging)
	copy(in.autoOn, r.autoOn)
	copy(in.autoIdx, r.autoIdx)
	in.ckptEpoch = m.Epoch + 1
	if in.restoreStats {
		// Put the clock and counters exactly where the original run's
		// were when this epoch's snapshot was taken (pre-commit-barrier);
		// run() replays the barrier afterwards. The per-array sinks are
		// already registered with the disks, so they must be overwritten
		// in place, never replaced.
		st := in.proc.Stats()
		st.Comm = m.Run.Comm
		st.Flops = m.Run.Flops
		st.ComputeSeconds = m.Run.ComputeSeconds
		for name, io := range m.Run.PerArray {
			if io == nil {
				continue
			}
			if dst := in.perArray[name]; dst != nil {
				*dst = *io
			} else {
				cp := *io
				in.perArray[name] = &cp
			}
		}
		in.proc.Clock().SyncTo(m.Run.Clock)
		in.statsRestored = true
	}
	return nil
}

// loadResumeManifests reads every rank's manifests from both slots and
// selects the newest globally complete epoch: the minimum over ranks of
// each rank's maximum valid epoch. The commit barrier guarantees that
// epoch exists on every rank. Unreadable or corrupted manifests are
// treated as absent.
func loadResumeManifests(fs iosim.FS, spec *CheckpointSpec, procs int) ([]*ckptManifest, error) {
	byRank := make([]map[int]*ckptManifest, procs)
	epoch := -1
	for rank := 0; rank < procs; rank++ {
		byRank[rank] = make(map[int]*ckptManifest, ckptSlots)
		best := -1
		for slot := 0; slot < ckptSlots; slot++ {
			m, err := readManifest(fs, spec.manifestName(rank, slot))
			if err != nil {
				continue
			}
			byRank[rank][m.Epoch] = m
			if m.Epoch > best {
				best = m.Epoch
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w (rank %d has none)", ErrNoCheckpoint, rank)
		}
		if epoch < 0 || best < epoch {
			epoch = best
		}
	}
	out := make([]*ckptManifest, procs)
	for rank := 0; rank < procs; rank++ {
		m, ok := byRank[rank][epoch]
		if !ok {
			return nil, fmt.Errorf("%w (rank %d lacks epoch %d)", ErrNoCheckpoint, rank, epoch)
		}
		out[rank] = m
	}
	return out, nil
}

// removeCheckpointFiles deletes every checkpoint artifact of a run over
// procs processors that snapshots arrays (manifests and snapshots, both
// slots). Missing files are expected — the
// run may have checkpointed fewer epochs than there are slots — but any
// other removal failure is returned, joined, so failed GC of stale
// snapshots is visible to the caller instead of silently leaking files.
func removeCheckpointFiles(fs iosim.FS, procs int, arrays []string, spec *CheckpointSpec) error {
	if spec == nil {
		return nil
	}
	remove := func(name string) error {
		err := fs.Remove(name)
		if err == nil || errors.Is(err, iofs.ErrNotExist) {
			return nil
		}
		return err
	}
	var errs []error
	for rank := 0; rank < procs; rank++ {
		for slot := 0; slot < ckptSlots; slot++ {
			errs = append(errs, remove(spec.manifestName(rank, slot)))
			for _, name := range arrays {
				errs = append(errs, remove(spec.snapshotName(name, rank, slot)))
			}
		}
	}
	return errors.Join(errs...)
}
