package iosim

import (
	"math"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// sharedImage is a 64-element image with no zero and no poison element.
func sharedImage() []float64 {
	img := make([]float64, 64)
	for i := range img {
		img[i] = float64(i+1) / 3
	}
	return img
}

// TestSharedImageCopyOnWrite walks one local array file through sharing
// an image: transfers from the image's own elements move the written
// mark and take nothing from the arena, the file reads the image below
// the mark and zeros above it, a transfer of equal values from other
// memory copies the image into storage of the file's own, and the image
// is bitwise what it was throughout. The arena runs checked, so an image
// put back to it would be poisoned.
func TestSharedImageCopyOnWrite(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	img := sharedImage()
	orig := slices.Clone(img)
	fs := NewMemFS()
	disk := NewDisk(fs, sim.Delta(1), nil)
	laf, err := disk.CreateLAF("a.p0.laf", int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if laf.Share(img[:63]) {
		t.Fatal("a file shared an image shorter than itself")
	}
	if !laf.Share(img) {
		t.Fatal("a fresh MemFS file refused an image")
	}
	if laf.Share(img) {
		t.Fatal("a sharing file took an image again")
	}
	f := laf.memHandle().f
	read := func(what string, want []float64) {
		t.Helper()
		got := make([]float64, len(img))
		if _, err := laf.ReadChunks([]Chunk{{Off: 0, Len: len(img)}}, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d reads %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	read("shared, nothing written", make([]float64, len(img)))

	gets := bufpool.Snapshot().Gets
	for _, c := range []Chunk{{0, 16}, {16, 16}, {8, 16}} {
		if _, err := laf.WriteChunks([]Chunk{c}, img[c.Off:c.Off+int64(c.Len)]); err != nil {
			t.Fatal(err)
		}
	}
	if got := bufpool.Snapshot().Gets; got != gets || f.shared == nil || f.written != 32*elemBytes {
		t.Fatalf("writes of the image's own elements took %d arena buffers, left sharing %v, mark %d",
			got-gets, f.shared != nil, f.written)
	}
	want := slices.Clone(img)
	clear(want[32:])
	read("shared, 32 written", want)

	// A gap above the mark must read as zeros, which the image cannot.
	if _, err := laf.WriteChunks([]Chunk{{48, 8}}, img[48:56]); err != nil {
		t.Fatal(err)
	}
	if f.shared != nil || f.data == nil {
		t.Fatal("a write past the mark left the file sharing")
	}
	copy(want[48:56], img[48:56])
	read("copied by a write past the mark", want)
	if !slices.Equal(img, orig) {
		t.Fatal("the image changed")
	}

	// Equal values from other memory, and a truncate, copy too.
	for i, change := range []func(l *LAF) error{
		func(l *LAF) error { _, err := l.WriteChunks([]Chunk{{0, 8}}, slices.Clone(img[:8])); return err },
		func(l *LAF) error { return l.file.Truncate(l.elems * elemBytes) },
	} {
		l, err := disk.CreateLAF("b.p0.laf", int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if !l.Share(img) {
			t.Fatal("a fresh MemFS file refused an image")
		}
		if err := change(l); err != nil {
			t.Fatal(err)
		}
		if g := l.memHandle().f; g.shared != nil {
			t.Errorf("change %d left the file sharing", i)
		}
		l.Close()
	}

	laf.Close()
	for _, name := range fs.Names() {
		fs.Remove(name)
	}
	if !slices.Equal(img, orig) {
		t.Fatal("the image changed")
	}
	if st := bufpool.Snapshot(); st.Gets != st.Puts+st.Drops {
		t.Fatalf("arena unbalanced: %+v", st)
	}
}

// TestPhantomFileSharesNothing: a phantom disk moves no data, so its
// files take no image.
func TestPhantomFileSharesNothing(t *testing.T) {
	disk := NewDisk(NewMemFS(), sim.Delta(1), nil)
	disk.SetPhantom(true)
	laf, err := disk.CreateLAF("a.p0.laf", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	if laf.Share(sharedImage()) {
		t.Error("a phantom disk's file shared an image")
	}
}
