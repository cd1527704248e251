package exec

import (
	"encoding/binary"
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
)

// unlowerableProgram is a hand-built plan the compiler would never emit:
// its Axpy reads a buffer no node ever defines.
func unlowerableProgram() *plan.Program {
	return &plan.Program{
		Name: "ill-formed", N: 8, Procs: 2, Strategy: "none",
		Arrays: []plan.ArraySpec{{
			Name: "a", Rows: 8, Cols: 8, SlabElems: 16,
			RowScheme: dist.Collapsed, ColScheme: dist.Block,
		}},
		Body: []plan.Node{&plan.Loop{Var: "i", Count: plan.CountExpr{Lit: 1}, Body: []plan.Node{
			&plan.ZeroVec{Vec: "temp", RowsOfArray: "a"},
			&plan.Axpy{Vec: "temp", A: "never_read", ACol: "i", B: "never_read", BCol: "i"},
		}}},
	}
}

// TestLoweringFailureBeforeAnyFile: a program the lowering rejects fails
// every entry point with the typed lowering error before a file is
// created or a rank started.
func TestLoweringFailureBeforeAnyFile(t *testing.T) {
	p := unlowerableProgram()
	mach := sim.Delta(p.Procs)
	entries := map[string]func(Options) error{
		"Run":    func(o Options) error { _, err := Run(p, mach, o); return err },
		"Resume": func(o Options) error { o.Resume = true; _, err := Run(p, mach, o); return err },
	}
	for name, entry := range entries {
		fs := iosim.NewMemFS()
		err := entry(Options{FS: fs, Checkpoint: &CheckpointSpec{}})
		if err == nil || !strings.HasPrefix(err.Error(), "exec: lower: ") || !strings.Contains(err.Error(), "never_read") {
			t.Errorf("%s: err = %v, want exec: lower: ... naming the undefined buffer", name, err)
		}
		if names := fs.Names(); len(names) != 0 {
			t.Errorf("%s: lowering failure left files behind: %v", name, names)
		}
	}
}

func storeFile(t testing.TB, fs iosim.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// validManifestFrame is the frame of a manifest with every section
// populated.
func validManifestFrame(t testing.TB) []byte {
	t.Helper()
	fs := iosim.NewMemFS()
	m := &ckptManifest{
		Epoch: 3, NodeIdx: 2, Iter: 1, Counter: 17,
		Auto:    map[string]bool{"c": true},
		AutoIdx: map[string]int{"c": 1},
		Staging: map[string]*ckptICLA{"c": {RowOff: 0, ColOff: 4, Rows: 2, Cols: 1, Data: floatsToB64([]float64{1.5, -2})}},
		Arrays:  []string{"c"},
		Run:     &ckptStats{Clock: 0.25, Flops: 64},
	}
	if err := writeManifest(fs, "m", m); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("m")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := make([]byte, 1<<12)
	n, _ := f.ReadAt(frame, 0)
	return frame[:n]
}

// TestReadManifestHostileLength: a length field claiming 4 GiB in front of
// a 2 KB file — one flipped bit, a fault ChaosFS's corrupt kind injects —
// must be rejected on the bytes present, not by allocating the claim.
func TestReadManifestHostileLength(t *testing.T) {
	frame := validManifestFrame(t)
	binary.BigEndian.PutUint32(frame[len(ckptMagic):], 0xFFFFFFF0)
	fs := iosim.NewMemFS()
	storeFile(t, fs, "m", frame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readManifest(fs, "m")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("hostile length accepted or misreported: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte manifest allocated %d bytes", len(frame), grew)
	}
}

// FuzzReadManifest feeds arbitrary bytes to the manifest decoder: it must
// return an error or a manifest that marshals again, never panic and
// never trust the framed length over the bytes present.
func FuzzReadManifest(f *testing.F) {
	valid := validManifestFrame(f)
	f.Add(valid)
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	hostile := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hostile[len(ckptMagic):], 0xFFFFFFF0)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := iosim.NewMemFS()
		storeFile(t, fs, "m", data)
		m, err := readManifest(fs, "m")
		if err != nil {
			if m != nil {
				t.Fatalf("error %v alongside a manifest", err)
			}
			if !strings.HasPrefix(err.Error(), "exec: manifest m") {
				t.Fatalf("untyped decoder error: %v", err)
			}
			return
		}
		if _, err := json.Marshal(m); err != nil {
			t.Fatalf("decoded manifest does not re-marshal: %v", err)
		}
	})
}

func sortedNames(fs *iosim.MemFS) []string {
	names := fs.Names()
	sort.Strings(names)
	return names
}

// TestRestoreRejectsForeignManifest hand-edits a committed manifest behind
// a valid CRC: state for an array the program does not have, or a staging
// buffer that does not fit the array's local block, must fail the resume
// with a typed error before any rank computes — no file touched, no arena
// buffer outstanding. So must a manifest without the statistics snapshot
// a RestoreStats resume asks for: it does not silently resume with
// unrestored statistics.
func TestRestoreRejectsForeignManifest(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("column-slab"))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Program
	mach := sim.Delta(p.Procs)
	spec := &CheckpointSpec{Every: 1}
	edits := map[string]struct {
		edit         func(m *ckptManifest)
		want         string
		restoreStats bool
	}{
		"auto names a foreign array": {
			edit: func(m *ckptManifest) { m.Auto["ghost"] = true },
			want: `exec: restore: manifest names array "ghost", not in program gaxpy`,
		},
		"auto_idx names a foreign array": {
			edit: func(m *ckptManifest) { m.AutoIdx["ghost"] = 2 },
			want: `exec: restore: manifest names array "ghost", not in program gaxpy`,
		},
		"staging names a foreign array": {
			edit: func(m *ckptManifest) { m.Staging["ghost"] = m.Staging["c"] },
			want: `exec: restore: manifest names array "ghost", not in program gaxpy`,
		},
		"snapshot list names a foreign array": {
			edit: func(m *ckptManifest) { m.Arrays = append(m.Arrays, "ghost") },
			want: `exec: restore: manifest names array "ghost", not in program gaxpy`,
		},
		"staging wider than the local block": {
			edit: func(m *ckptManifest) { m.Staging["c"].Cols = 2 },
			want: `exec: restore: manifest staging 32x2@(0,7) outside local shape 32x8 of array "c" on rank 1`,
		},
		"staging at a negative offset": {
			edit: func(m *ckptManifest) { m.Staging["c"].RowOff = -1 },
			want: `exec: restore: manifest staging 32x1@(-1,7) outside local shape 32x8 of array "c" on rank 1`,
		},
		"no statistics snapshot to restore": {
			edit:         func(m *ckptManifest) { m.Run = nil },
			want:         `exec: restore: rank 1's epoch 3 manifest has no statistics snapshot to restore`,
			restoreStats: true,
		},
	}
	for name, tc := range edits {
		t.Run(name, func(t *testing.T) {
			mem := iosim.NewMemFS()
			// The result is not closed: its checkpoint files are the fixture.
			if _, err := Run(p, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: spec}); err != nil {
				t.Fatal(err)
			}
			// Rank 1's newest manifest is the mid-loop epoch 3 (cursor
			// (2,1)); it carries auto-staging state and a staging buffer.
			const rank, epoch = 1, 3
			mname := spec.manifestName(rank, epoch%ckptSlots)
			m, err := readManifest(mem, mname)
			if err != nil {
				t.Fatal(err)
			}
			if m.Epoch != epoch || m.Staging["c"] == nil || !m.Auto["c"] {
				t.Fatalf("fixture manifest is not the mid-loop epoch: %+v", m)
			}
			// Keep only this epoch resumable: drop every rank's later one.
			for r := 0; r < p.Procs; r++ {
				if err := mem.Remove(spec.manifestName(r, (epoch+1)%ckptSlots)); err != nil {
					t.Fatal(err)
				}
			}
			tc.edit(m)
			if err := writeManifest(mem, mname, m); err != nil {
				t.Fatal(err)
			}
			before := sortedNames(mem)

			bufpool.SetChecked(true)
			defer bufpool.SetChecked(false)
			bufpool.ResetStats()
			counts := make([]int64, p.Procs)
			_, err = Run(p, mach, Options{FS: mem, Fill: sweepFills(), Checkpoint: spec, OpCounts: counts,
				Resume: true, RestoreStats: tc.restoreStats})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("resume from the edited manifest:\n got %v\nwant %s", err, tc.want)
			}
			for r, n := range counts {
				if n != 0 {
					t.Errorf("rank %d performed %d operations before the manifest was rejected", r, n)
				}
			}
			if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
				t.Errorf("arena unbalanced after the rejected resume: %+v", s)
			}
			if after := sortedNames(mem); strings.Join(after, " ") != strings.Join(before, " ") {
				t.Errorf("rejected resume changed the file set:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestResolveManifestNullEntries: JSON null under staging is absent
// state, not a nil dereference.
func TestResolveManifestNullEntries(t *testing.T) {
	l, err := Lower(compileGaxpy(t, 32, 2, 1<<10).Program)
	if err != nil {
		t.Fatal(err)
	}
	m := &ckptManifest{Staging: map[string]*ckptICLA{"c": nil}}
	r, err := resolveManifest(l.code, nil, 0, m, false)
	if err != nil || r.staging[2] != nil {
		t.Fatalf("null staging entry: restored %+v, err %v", r, err)
	}
}
