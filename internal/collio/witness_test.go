package collio

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

var updateWitness = flag.Bool("update-witness", false,
	"rewrite testdata/wire_witness.txt from this run instead of comparing against it")

const witnessPath = "testdata/wire_witness.txt"

// hashFloats is FNV-1a over the IEEE bits of the values, so -0, NaN
// payloads and index/value order all count.
func hashFloats(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// witnessFS records, per file, the sequence of requests that reach the
// backing store: every LAF chunk is one ReadAt or WriteAt, so the running
// hash pins the chunk list of every request, their order, and the bytes
// written.
type witnessFS struct {
	iosim.FS
	mu   sync.Mutex
	logs map[string]*witnessLog
}

// witnessLog needs no lock of its own: a local array file belongs to one
// rank, and the test reads the logs only after mp.Run has returned.
type witnessLog struct {
	ops int
	sum uint64
}

func (l *witnessLog) record(op byte, off int64, p []byte, withData bool) {
	h := fnv.New64a()
	var b [25]byte
	binary.LittleEndian.PutUint64(b[0:], l.sum)
	b[8] = op
	binary.LittleEndian.PutUint64(b[9:], uint64(off))
	binary.LittleEndian.PutUint64(b[17:], uint64(len(p)))
	h.Write(b[:])
	if withData {
		h.Write(p)
	}
	l.sum = h.Sum64()
	l.ops++
}

func (w *witnessFS) log(name string) *witnessLog {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.logs[name]
	if l == nil {
		l = &witnessLog{}
		w.logs[name] = l
	}
	return l
}

func (w *witnessFS) Create(name string) (iosim.File, error) {
	f, err := w.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &witnessFile{File: f, log: w.log(name)}, nil
}

func (w *witnessFS) Open(name string) (iosim.File, error) {
	f, err := w.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &witnessFile{File: f, log: w.log(name)}, nil
}

type witnessFile struct {
	iosim.File
	log *witnessLog
}

func (f *witnessFile) ReadAt(p []byte, off int64) (int, error) {
	f.log.record('R', off, p, false)
	return f.File.ReadAt(p, off)
}

func (f *witnessFile) WriteAt(p []byte, off int64) (int, error) {
	f.log.record('W', off, p, true)
	return f.File.WriteAt(p, off)
}

// witnessRun executes one scenario under one index-map form and one
// method and renders what went over the wire (per rank, per round, per
// peer: payload length and hash; a func's inspector exchange on its own
// "inspect" line) and what reached the files (per file: request count and
// sequence hash).
func witnessRun(t *testing.T, tc redistCase, m IndexMap, method Method) []string {
	t.Helper()
	fs := &witnessFS{FS: iosim.NewMemFS(), logs: make(map[string]*witnessLog)}
	wire := make([][]string, tc.p)
	_, err := mp.Run(sim.Delta(tc.p), func(proc *mp.Proc) error {
		disk := iosim.NewDisk(fs, proc.Config(), &proc.Stats().IO)
		srcMap, err := tc.mkSrc(tc.n, tc.p)
		if err != nil {
			return err
		}
		dstMap, err := tc.mkDst(tc.n, tc.p)
		if err != nil {
			return err
		}
		src := sideFor(t, disk, srcMap, proc.Rank(), valueAt)
		dst := sideFor(t, disk, dstMap, proc.Rank(), nil)
		round, inspecting := 0, m.fn != nil
		exchange := func(tag int, parts [][]float64) [][]float64 {
			var sb strings.Builder
			if inspecting {
				fmt.Fprintf(&sb, "inspect r%d", proc.Rank())
			} else {
				fmt.Fprintf(&sb, "wire r%d k%d", proc.Rank(), round)
				round++
			}
			inspecting = false
			for _, part := range parts {
				fmt.Fprintf(&sb, " %d:%016x", len(part), hashFloats(part))
			}
			wire[proc.Rank()] = append(wire[proc.Rank()], sb.String())
			return proc.AllToAllOwned(tag, parts)
		}
		if err := redistribute(proc, src, dst, tc.memElems, 30, m, method, exchange); err != nil {
			return err
		}
		return checkSide(dst, tc.wantAt)
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, rank := range wire {
		lines = append(lines, rank...)
	}
	names := make([]string, 0, len(fs.logs))
	for name := range fs.logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := fs.logs[name]
		lines = append(lines, fmt.Sprintf("io %s ops=%d %016x", name, l.ops, l.sum))
	}
	return lines
}

// witnessCases extends the method-equivalence matrix with the mapping
// whose routing is least regular: CYCLIC(k) rows into a CYCLIC x
// CYCLIC(k) grid, with ragged last blocks on both sides.
func witnessCases() []redistCase {
	return append(redistCases(),
		redistCase{
			name: "block-cyclic-to-grid-cyclic", n: 11, p: 4, memElems: 22,
			mkSrc: func(n, p int) (*dist.Array, error) {
				return dist.NewArray("src", dist.NewBlockCyclic(n, p, 2), dist.NewCollapsed(n))
			},
			mkDst: func(n, p int) (*dist.Array, error) {
				return dist.NewGridArray("dst", dist.NewGrid(2, 2),
					dist.NewCyclic(n, 2), dist.NewBlockCyclic(n, 2, 3))
			},
			wantAt: valueAt,
		},
	)
}

// TestWireWitness pins the wire and request sequences of Redistribute to
// testdata/wire_witness.txt: every message is the same float sequence to
// the same peer in the same round, and every file sees the same requests
// in the same order with the same bytes.
//
// The file is written by the func form of every case (the index map as an
// opaque func, which the inspector measures), and the structured form
// (whose schedule follows from the mappings) must produce it exactly
// without the func's inspector exchange: the two forms are one wire.
func TestWireWitness(t *testing.T) {
	for _, form := range []string{"func", "runs"} {
		var got []string
		for _, tc := range witnessCases() {
			for _, method := range []Method{Direct, Sieved, TwoPhase} {
				got = append(got, "# "+tc.name+"/"+method.String())
				got = append(got, witnessRun(t, tc, tc.indexMaps()[form], method)...)
			}
		}
		if *updateWitness {
			if form == "func" {
				text := strings.Join(got, "\n") + "\n"
				if err := os.WriteFile(witnessPath, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		wantBytes, err := os.ReadFile(witnessPath)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, line := range strings.Split(strings.TrimSuffix(string(wantBytes), "\n"), "\n") {
			if form == "func" || !strings.HasPrefix(line, "inspect ") {
				want = append(want, line)
			}
		}
		section := ""
		for i, line := range got {
			if strings.HasPrefix(line, "# ") {
				section = line[2:]
			}
			if i >= len(want) || want[i] != line {
				w := "<end of file>"
				if i < len(want) {
					w = want[i]
				}
				t.Fatalf("%s, %s form: line %d differs from %s\n got: %s\nwant: %s", section, form, i+1, witnessPath, line, w)
			}
		}
		if len(want) > len(got) {
			t.Fatalf("%s has %d lines for the %s form, this run produced %d", witnessPath, len(want), form, len(got))
		}
	}
}
