package iosim

import (
	"errors"
	"testing"

	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// TestChaosPassThrough: a fault source that injects nothing changes no
// byte of what goes through it.
func TestChaosPassThrough(t *testing.T) {
	d := NewDisk(NewMemFS(), sim.Delta(1), nil)
	chaosOn(d, ChaosConfig{}, mp.Fault{Op: 1000, Kind: mp.IOOutage})
	laf, err := d.CreateLAF("x", 16)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, 16)
	src[7] = 3.5
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	got, _, err := laf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[7] != 3.5 {
		t.Fatal("data corrupted through the fault source")
	}
	if err := laf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("x"); err != nil {
		t.Fatal(err)
	}
}

func TestLAFErrorsPropagateFromFaults(t *testing.T) {
	// An outage mid-stream: the LAF surfaces the error.
	d := NewDisk(NewMemFS(), sim.Delta(1), nil)
	chaosOn(d, ChaosConfig{}, mp.Fault{Op: 2, Kind: mp.IOOutage}) // after create + truncate
	laf, err := d.CreateLAF("x", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laf.WriteAll(make([]float64, 16)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write should surface the injected fault, got %v", err)
	}
	if _, err := laf.ReadChunksSieved([]Chunk{{0, 2}, {8, 2}}, make([]float64, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("sieved read should surface the injected fault, got %v", err)
	}
}

func TestWriteChunksSievedRoundTrip(t *testing.T) {
	stats := &trace.IOStats{}
	d := NewDisk(NewMemFS(), sim.Delta(2), stats)
	laf, err := d.CreateLAF("a", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fill so the read-modify-write has something to preserve.
	base := make([]float64, 64)
	for i := range base {
		base[i] = float64(i)
	}
	if _, err := laf.WriteAll(base); err != nil {
		t.Fatal(err)
	}
	before := *stats
	chunks := []Chunk{{4, 3}, {20, 2}, {40, 1}}
	src := []float64{100, 101, 102, 103, 104, 105}
	if _, err := laf.WriteChunksSieved(chunks, src); err != nil {
		t.Fatal(err)
	}
	// Exactly one read request + one write request, span bytes each way.
	if got := stats.ReadRequests - before.ReadRequests; got != 1 {
		t.Errorf("sieved write read requests = %d, want 1", got)
	}
	if got := stats.WriteRequests - before.WriteRequests; got != 1 {
		t.Errorf("sieved write write requests = %d, want 1", got)
	}
	span := Span(chunks)
	if got := stats.BytesWritten - before.BytesWritten; got != int64(span.Len)*4 {
		t.Errorf("sieved write moved %d bytes, want %d", got, span.Len*4)
	}
	all, _, err := laf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), base...)
	want[4], want[5], want[6] = 100, 101, 102
	want[20], want[21] = 103, 104
	want[40] = 105
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("element %d: got %g want %g (RMW corrupted data)", i, all[i], want[i])
		}
	}
}

func TestWriteChunksSievedEdgeCases(t *testing.T) {
	d := NewDisk(NewMemFS(), sim.Delta(1), nil)
	laf, err := d.CreateLAF("a", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laf.WriteChunksSieved(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := laf.WriteChunksSieved([]Chunk{{8, 5}}, make([]float64, 5)); err == nil {
		t.Error("out-of-bounds sieved write should fail")
	}
}

// TestLAFLoseFailsEveryView: a lost disk's file is gone from the store,
// and every transfer fails with ErrDiskLost from then on — through the
// LAF and through a quiet view taken before the loss, which shares the
// LAF's handle — until Close, after which the LAF holds no file.
func TestLAFLoseFailsEveryView(t *testing.T) {
	mem := NewMemFS()
	d := NewDisk(mem, sim.Delta(1), &trace.IOStats{})
	l, err := d.CreateLAF("c.p0.laf", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteAll(make([]float64, 16)); err != nil {
		t.Fatal(err)
	}
	var view QuietView
	q := view.Of(l)
	l.Lose()
	if names := mem.Names(); len(names) != 0 {
		t.Fatalf("a lost disk's file is still in the store: %v", names)
	}
	buf := make([]float64, 4)
	if _, err := l.ReadChunks([]Chunk{{0, 4}}, buf); !errors.Is(err, ErrDiskLost) {
		t.Fatalf("read after the loss: %v, want ErrDiskLost", err)
	}
	if _, err := q.WriteChunks([]Chunk{{4, 4}}, buf); !errors.Is(err, ErrDiskLost) {
		t.Fatalf("quiet write after the loss: %v, want ErrDiskLost", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadChunks([]Chunk{{0, 4}}, buf); errors.Is(err, ErrDiskLost) || err == nil {
		t.Fatalf("read after Close: %v, want a closed-file error", err)
	}
	if got := DiskOf("ckpt.p3.s1.manifest"); got != 3 {
		t.Errorf("DiskOf(manifest) = %d, want 3", got)
	}
	if got := DiskOf("c.parity"); got != -1 {
		t.Errorf("DiskOf(no rank) = %d, want -1", got)
	}
}
