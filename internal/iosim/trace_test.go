package iosim

import (
	"testing"

	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// replaySink replays one rank's spans and returns the reconstructed
// statistics for the given sink label.
func replaySink(t *testing.T, tr *trace.Tracer, label string) trace.IOStats {
	t.Helper()
	rep := trace.ReplayRank(tr.RankSpans(0))
	io := rep.IO[label]
	if io == nil {
		t.Fatalf("no spans replayed for sink %q", label)
	}
	return *io
}

// TestChaosRetrySpansReconcile injects transient faults under a
// traced resilient disk and checks the emitted retry spans replay to the
// exact Retries/RetrySeconds/Corruptions the counters accumulated.
func TestChaosRetrySpansReconcile(t *testing.T) {
	mem := NewMemFS()
	chaos := NewChaosFS(mem, ChaosConfig{
		Seed:       7,
		PTransient: 0.2,
		PCorrupt:   0.05,
	})
	stats := &trace.IOStats{}
	res := NewResilience(DefaultRetryPolicy())
	d := NewResilientDisk(chaos, testConfig(), stats, res)
	tr := trace.NewTracer(1)
	var clock sim.Clock
	d.SetTracer(tr.Rank(0), &clock, "x")

	laf, err := d.CreateLAF("x.laf", 512)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	src := make([]float64, 512)
	for i := range src {
		src[i] = float64(i)
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 20; pass++ {
		if _, _, err := laf.ReadAll(); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Retries == 0 {
		t.Fatal("chaos injected no transient faults; raise the probabilities")
	}
	got := replaySink(t, tr, "x")
	if got != *stats {
		t.Errorf("spans replay to\n%+v\nbut counters say\n%+v", got, *stats)
	}
}

// TestChaosGiveUpSpansReconcile exhausts the retry budget and checks
// the give-up instants replay to the GiveUps counter exactly.
func TestChaosGiveUpSpansReconcile(t *testing.T) {
	mem := NewMemFS()
	chaos := NewChaosFS(mem, ChaosConfig{PTransient: 1})
	stats := &trace.IOStats{}
	res := NewResilience(RetryPolicy{MaxRetries: 2, BaseBackoff: 1e-3, MaxBackoff: 4e-3})
	d := NewResilientDisk(chaos, testConfig(), stats, res)
	tr := trace.NewTracer(1)
	var clock sim.Clock
	d.SetTracer(tr.Rank(0), &clock, "x")

	if _, err := d.CreateLAF("x.laf", 8); err == nil {
		t.Fatal("create with 100% transient faults must fail")
	}
	if stats.GiveUps == 0 {
		t.Fatalf("give-up not counted: %+v", stats)
	}
	got := replaySink(t, tr, "x")
	if got != *stats {
		t.Errorf("spans replay to\n%+v\nbut counters say\n%+v", got, *stats)
	}
}

// TestQuietDiskEmitsNoSpans pins the emission gating: a disk view with
// nil statistics (Quiet) must stay silent on the tracer too, mirroring
// the counters it does not bump.
func TestQuietDiskEmitsNoSpans(t *testing.T) {
	mem := NewMemFS()
	stats := &trace.IOStats{}
	d := NewDisk(mem, testConfig(), stats)
	tr := trace.NewTracer(1)
	var clock sim.Clock
	d.SetTracer(tr.Rank(0), &clock, "x")

	laf, err := d.CreateLAF("x.laf", 16)
	if err != nil {
		t.Fatal(err)
	}
	quiet := new(QuietView).Of(laf)
	if _, err := quiet.WriteAll(make([]float64, 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := quiet.ReadAll(); err != nil {
		t.Fatal(err)
	}
	laf.Close()
	*stats = trace.IOStats{} // ignore the accounted CreateLAF itself
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("quiet disk emitted %d spans", n)
	}
	if stats.ReadRequests != 0 || stats.WriteRequests != 0 {
		t.Errorf("quiet disk bumped counters: %+v", stats)
	}
}
