package exec

import (
	"sync"
	"unsafe"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/trace"
)

// kit is the rank state of one run of a lowered plan: P interpreters with
// every table the lowering sizes, each rank's disk and local array per
// array (with the array's spare slab headers) and slab reader per reader
// slot, and the per-array statistics they count into, one block for all
// ranks. A run takes one from its Lowered and re-arms it for its own file
// system, tracer, clock, parity store and switches (interp.start,
// initArrays); Result.Close gives it back, so the plan's next run — a
// served job's — makes none of it. A Result that is never closed (an
// aborted attempt of a run that survived a rank loss, whose
// Recovery.PerArray stays valid) keeps its kit, and the garbage collector
// reclaims both.
type kit struct {
	interps  []*interp
	perArray []map[string]*trace.IOStats // interps[r].perArray: the Result's PerArray
	size     int                         // retained bytes
	// created is the run's rendezvous between creating the local array
	// files and filling them (initArrays).
	created sync.WaitGroup
	// opts are the run's options, which its ranks read here: a rank
	// closure capturing them would move them to the heap every run.
	opts Options
}

// kitList is a Lowered's free list of kits. Its bound is in bytes, as
// bufpool's are: a P=64 GAXPY's kit is about 0.32 MiB (retained), mostly
// its 192 disks, arrays with their spare headers, and per-array IOStats,
// so a plan keeps six, enough for a serving pool's concurrent jobs; a kit
// that does not fit is the GC's.
type kitList struct {
	mu    sync.Mutex
	free  []*kit
	bytes int
}

const kitListBytes = 2 << 20

// takeKit returns a cleared kit for one run of l, from the free list or
// new.
func (l *Lowered) takeKit() *kit {
	l.kits.mu.Lock()
	if last := len(l.kits.free) - 1; last >= 0 {
		k := l.kits.free[last]
		l.kits.free[last] = nil
		l.kits.free = l.kits.free[:last]
		l.kits.bytes -= k.size
		l.kits.mu.Unlock()
		return k
	}
	l.kits.mu.Unlock()
	return l.newKit()
}

// putKit clears a closed run's kit and offers it to the free list.
func (l *Lowered) putKit(k *kit) {
	for _, in := range k.interps {
		in.reset()
	}
	k.opts = Options{}
	l.kits.mu.Lock()
	defer l.kits.mu.Unlock()
	if l.kits.bytes+k.size > kitListBytes {
		return
	}
	l.kits.bytes += k.size
	l.kits.free = append(l.kits.free, k)
}

// storeList is a Lowered's free list of private file systems: the MemFS
// a run without Options.FS works on, which its Result's Close hands back
// once it holds no file. An emptied MemFS keeps its name map's capacity,
// so the plan's next run — a served job's — does not grow one from empty
// to P x arrays entries again.
type storeList struct {
	mu   sync.Mutex
	free []*iosim.MemFS
}

// storeListLen bounds a storeList, like kitList's bytes: enough for a
// serving pool's concurrent jobs.
const storeListLen = 8

// takeStore returns an empty private file system for one run of l.
func (l *Lowered) takeStore() *iosim.MemFS {
	l.stores.mu.Lock()
	defer l.stores.mu.Unlock()
	if last := len(l.stores.free) - 1; last >= 0 {
		fs := l.stores.free[last]
		l.stores.free[last] = nil
		l.stores.free = l.stores.free[:last]
		return fs
	}
	return iosim.NewMemFS()
}

// putStore offers a closed run's private file system to the free list if
// the run left no file in it.
func (l *Lowered) putStore(fs *iosim.MemFS) {
	if len(fs.Names()) != 0 {
		return
	}
	l.stores.mu.Lock()
	defer l.stores.mu.Unlock()
	if len(l.stores.free) < storeListLen {
		l.stores.free = append(l.stores.free, fs)
	}
}

// mapEntryBytes is what a map entry costs on the host, roughly, for the
// free list's accounting.
const mapEntryBytes = 64

// newKit makes the rank state of one run of l.
func (l *Lowered) newKit() *kit {
	code := l.code
	procs, na := l.prog.Procs, len(code.Arrays)
	io := make([]trace.IOStats, procs*na)
	k := &kit{interps: make([]*interp, procs), perArray: make([]map[string]*trace.IOStats, procs),
		size: sliceBytes(io)}
	for r := range k.interps {
		in := &interp{tables: tables{
			arrays:      make([]*oocarray.Array, na),
			arrayStore:  make([]oocarray.Array, na),
			disks:       make([]iosim.Disk, na),
			slabs:       make([]oocarray.Slabbing, na),
			writers:     make([]*oocarray.SlabWriter, na),
			staging:     make([]*oocarray.ICLA, na),
			autoOn:      make([]bool, na),
			autoIdx:     make([]int, na),
			vars:        make([]int, len(code.VarNames)),
			bufs:        make([]*oocarray.ICLA, len(code.BufNames)),
			bufArrays:   make([]*oocarray.Array, len(code.BufNames)),
			vecs:        make([][]float64, len(code.VecNames)),
			readers:     make([]*oocarray.SlabReader, code.Readers),
			readerStore: make([]oocarray.SlabReader, code.Readers),
			readerNext:  make([]int, code.Readers),
			frames:      make([]frame, 0, l.loopDepth),
			estack:      make([][]float64, 0, code.MaxExprDepth()),
			perArray:    make(map[string]*trace.IOStats, na),
			io:          io[r*na : (r+1)*na : (r+1)*na],
		}}
		k.interps[r], k.perArray[r] = in, in.perArray
		k.size += in.retained()
	}
	return k
}

// reset readies a kit's interpreter for the plan's next run: every table
// cleared in place and every per-run reference — context, machine, file
// system, tracer, parity store, buffers — dropped, so a kit on the free
// list holds nothing of the run it served. The disks, arrays and readers
// themselves stay, to be re-armed by the next run (initArrays,
// streamRead), with the spare headers the arrays were given back.
func (in *interp) reset() {
	t := in.tables
	clear(t.arrays)
	// The arrays were closed by the run (interp.close) and hold no file;
	// their disks forget the run's file system, tracer, parity store and
	// resilience.
	clear(t.disks)
	clear(t.slabs)
	clear(t.writers)
	clear(t.staging)
	clear(t.autoOn)
	clear(t.autoIdx)
	clear(t.vars)
	clear(t.bufs)
	clear(t.bufArrays)
	clear(t.vecs)
	clear(t.readers)
	clear(t.readerNext)
	t.frames = t.frames[:0]
	t.estack = t.estack[:0]
	clear(t.estack[:cap(t.estack)])
	clear(t.perArray)
	clear(t.io)
	*in = interp{tables: t}
}

// retained is what an interpreter holds on the host, roughly: itself, its
// tables, and the disks, arrays (with a full set of spare headers each)
// and readers it keeps.
func (in *interp) retained() int {
	t := &in.tables
	return int(unsafe.Sizeof(*in)) + sliceBytes(t.arrays) + sliceBytes(t.arrayStore) + sliceBytes(t.disks) +
		sliceBytes(t.slabs) + sliceBytes(t.writers) + sliceBytes(t.staging) + sliceBytes(t.autoOn) +
		sliceBytes(t.autoIdx) + sliceBytes(t.vars) + sliceBytes(t.bufs) + sliceBytes(t.bufArrays) +
		sliceBytes(t.vecs) + sliceBytes(t.readers) + sliceBytes(t.readerStore) + sliceBytes(t.readerNext) +
		sliceBytes(t.frames) + sliceBytes(t.estack) +
		len(t.arrayStore)*oocarray.MaxSpares*int(unsafe.Sizeof(oocarray.ICLA{})) +
		(len(t.arrays)+1)*mapEntryBytes
}

// sliceBytes is the size of s's backing array.
func sliceBytes[E any](s []E) int {
	var e E
	return cap(s) * int(unsafe.Sizeof(e))
}
