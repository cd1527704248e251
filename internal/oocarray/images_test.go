package oocarray

import (
	"math"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
)

// fillOn fills rank proc's share of dm from in on a fresh disk over fs,
// reads the local section back, and removes the file. It returns the
// section, the transfers the fill issued and the arena buffers it took.
func fillOn(t *testing.T, fs iosim.FS, dm *dist.Array, proc int, in Input) ([]float64, int, int64) {
	t.Helper()
	disk := iosim.NewDisk(fs, sim.Delta(dm.Procs()), nil)
	arr, err := New(disk, dm, proc, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	disk.SetOpHook(func() { ops++ })
	gets := bufpool.Snapshot().Gets
	if err := arr.Fill(in); err != nil {
		t.Fatal(err)
	}
	gets = bufpool.Snapshot().Gets - gets
	disk.SetOpHook(nil)
	m, err := arr.ReadLocal()
	if err != nil {
		t.Fatal(err)
	}
	arr.Close()
	if err := fs.Remove(FileName(dm.Name, proc)); err != nil {
		t.Fatal(err)
	}
	return m.Data, ops, gets
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSharedImageFill fills every rank's share of a BLOCK-mapped and of
// a grid-mapped array from an input kept in Images twice, as two runs of
// a plan do, once more on OSFS, whose file copies the image, and from
// the same input not kept, a column at a time, on MemFS and on OSFS.
// Every fill leaves the same bits and issues one transfer per local column;
// the second kept fill takes nothing from the arena. The arena runs
// checked: once every file is gone the kept images are bitwise what the
// first fill made, so none was put back to the arena, and the arena
// balances.
func TestSharedImageFill(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	block, err := dist.NewArray("a", dist.NewCollapsed(12), dist.NewBlock(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := dist.NewGridArray("b", dist.NewGrid(2, 2), dist.NewBlock(10, 2), dist.NewCyclic(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	osfs, err := iosim.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain := Input{Row: func(g int) float64 { return 1 / float64(g+3) }, Col: func(g int) float64 { return math.Sqrt(float64(g + 1)) }}
	images := NewImages()
	defer images.Release()
	kept := images.Keep(plain)
	var first [][]float64
	for _, dm := range []*dist.Array{block, grid} {
		for proc := 0; proc < dm.Procs(); proc++ {
			want, wantOps, _ := fillOn(t, iosim.NewMemFS(), dm, proc, plain)
			for i, fill := range []struct {
				name string
				fs   iosim.FS
				in   Input
			}{
				{"kept, first", iosim.NewMemFS(), kept},
				{"kept, again", iosim.NewMemFS(), kept},
				{"kept, on OSFS", osfs, kept},
				{"not kept, on OSFS", osfs, plain},
			} {
				got, ops, gets := fillOn(t, fill.fs, dm, proc, fill.in)
				if !sameBits(got, want) || ops != wantOps || ops != dm.LocalShape(proc)[1] {
					t.Errorf("%s rank %d, %s: %d transfers (want %d), bits equal: %v",
						dm.Name, proc, fill.name, ops, wantOps, sameBits(got, want))
				}
				if i == 1 && gets != 0 {
					t.Errorf("%s rank %d: a fill from a kept image took %d arena buffers", dm.Name, proc, gets)
				}
			}
			first = append(first, slices.Clone(images.of[imageKey{kept.id, dm, proc}].data))
		}
	}
	k := 0
	for _, dm := range []*dist.Array{block, grid} {
		for proc := 0; proc < dm.Procs(); proc++ {
			if img := images.of[imageKey{kept.id, dm, proc}].data; !sameBits(img, first[k]) {
				t.Errorf("%s rank %d: the kept image changed", dm.Name, proc)
			}
			k++
		}
	}
	if st := bufpool.Snapshot(); st.Gets != st.Puts+st.Drops {
		t.Errorf("arena unbalanced: %+v", st)
	}
}

// TestSharedImageBudget: a share whose image does not fit the budget is
// filled as though its input were not kept, Release gives an Images'
// bytes back, and a fill through a released Images keeps nothing.
func TestSharedImageBudget(t *testing.T) {
	dm, err := dist.NewArray("a", dist.NewCollapsed(8), dist.NewBlock(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	in := Input{At: func(gi, gj int) float64 { return float64(gi*100 + gj) }}
	want, _, _ := fillOn(t, iosim.NewMemFS(), dm, 0, in)
	held := imagesHeld.Load()
	const bytes = 8 * 4 * 8 // rank 0's 8 x 4 elements

	full := NewImages()
	imagesHeld.Add(imagesBytes - held - bytes + 1)
	got, _, _ := fillOn(t, iosim.NewMemFS(), dm, 0, full.Keep(in))
	imagesHeld.Add(-(imagesBytes - held - bytes + 1))
	if !sameBits(got, want) || len(full.of) != 1 || full.of[imageKey{0, dm, 0}].data != nil || full.bytes != 0 {
		t.Errorf("over the budget: bits equal %v, image kept %v", sameBits(got, want), full.bytes != 0)
	}

	images := NewImages()
	kept := images.Keep(in)
	fillOn(t, iosim.NewMemFS(), dm, 0, kept)
	if now := imagesHeld.Load(); now != held+bytes {
		t.Errorf("a kept image of %d bytes moved the budget from %d to %d", bytes, held, now)
	}
	images.Release()
	images.Release()
	if now := imagesHeld.Load(); now != held {
		t.Errorf("Release left %d bytes held, want %d", now, held)
	}
	if got, _, _ := fillOn(t, iosim.NewMemFS(), dm, 1, kept); imagesHeld.Load() != held || images.of != nil {
		t.Error("a fill through a released Images kept its image")
	} else if w, _, _ := fillOn(t, iosim.NewMemFS(), dm, 1, in); !sameBits(got, w) {
		t.Error("a fill through a released Images differs")
	}
}
