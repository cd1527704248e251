package trace

import (
	"strings"
	"testing"
)

func TestTracerEmitAndOrder(t *testing.T) {
	tr := NewTracer(2)
	r0, r1 := tr.Rank(0), tr.Rank(1)
	r1.Emit(Span{Kind: KindCompute, Start: 2, Dur: 1})
	r0.Emit(Span{Kind: KindSlabRead, Label: "a", Start: 0, Dur: 1})
	r0.Emit(Span{Kind: KindCompute, Start: 1, Dur: 1})
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Rank != 0 || spans[0].Kind != KindSlabRead || spans[0].Label != "a" {
		t.Errorf("first span wrong: %+v", spans[0])
	}
	if spans[2].Rank != 1 {
		t.Errorf("rank grouping wrong: %+v", spans)
	}
	if got := len(tr.RankSpans(0)); got != 2 {
		t.Errorf("RankSpans(0) = %d spans, want 2", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	rt := tr.Rank(0)
	if rt != nil {
		t.Fatal("nil tracer should hand out nil rank tracers")
	}
	rt.Emit(Span{Kind: KindCompute, Dur: 1}) // must not panic
	rt.Cross(1, Span{Kind: KindRecoveryComm})
	if tr.Spans() != nil || tr.RankSpans(0) != nil || tr.Procs() != 0 {
		t.Error("nil tracer should report no spans")
	}
	if NewTracer(2).Rank(5) != nil {
		t.Error("out-of-range rank should be nil")
	}
}

// A rank's spans are a plain slice: the tracer keeps every span it is
// given, in emission order, however many there are.
func TestTracerKeepsEverySpan(t *testing.T) {
	const n = 10000
	tr := NewTracer(1)
	rt := tr.Rank(0)
	for i := 0; i < n; i++ {
		rt.Emit(Span{Kind: KindCompute, Start: float64(i), Dur: 1})
	}
	spans := tr.RankSpans(0)
	if len(spans) != n {
		t.Fatalf("tracer kept %d spans, want %d", len(spans), n)
	}
	for i, s := range spans {
		if s.Start != float64(i) {
			t.Fatalf("span %d starts at %g, want %g (emission order)", i, s.Start, float64(i))
		}
	}
}

func TestTracerCross(t *testing.T) {
	tr := NewTracer(2)
	tr.Rank(0).Cross(1, Span{Kind: KindRecoveryComm, N: 3, Bytes: 64})
	if len(tr.RankSpans(0)) != 0 {
		t.Error("cross span should not land on the emitting rank")
	}
	got := tr.RankSpans(1)
	if len(got) != 1 || got[0].Rank != 1 || got[0].N != 3 {
		t.Errorf("cross span = %+v, want one span on rank 1", got)
	}
}

func TestGantt(t *testing.T) {
	tr := NewTracer(2)
	tr.Rank(0).Emit(Span{Kind: KindSlabRead, Label: "a", Start: 0, Dur: 5})
	tr.Rank(0).Emit(Span{Kind: KindCompute, Start: 5, Dur: 5})
	tr.Rank(1).Emit(Span{Kind: KindWait, Start: 0, Dur: 10})
	// Deferred and overlay spans are not painted.
	tr.Rank(1).Emit(Span{Kind: KindSlabWrite, Start: 0, Dur: 10, Deferred: true})
	tr.Rank(1).Emit(Span{Kind: KindNode, Label: "loop", Start: 0, Dur: 10})
	out := tr.Gantt(2, 20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "RRRRRRRRRRCCCCCCCCCC") {
		t.Errorf("lane 0 wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], strings.Repeat("w", 20)) {
		t.Errorf("lane 1 wrong: %q", lines[2])
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := NewTracer(2).Gantt(2, 40); !strings.Contains(out, "no spans") {
		t.Errorf("empty gantt = %q", out)
	}
	tr := NewTracer(1)
	tr.Rank(0).Emit(Span{Kind: KindCompute, Start: 0, Dur: 1})
	if out := tr.Gantt(1, 2); !strings.Contains(out, "no spans") {
		t.Errorf("narrow gantt should refuse: %q", out)
	}
}

func TestSummary(t *testing.T) {
	tr := NewTracer(2)
	tr.Rank(0).Emit(Span{Kind: KindSlabRead, Label: "a", Start: 0, Dur: 2})
	tr.Rank(1).Emit(Span{Kind: KindSlabRead, Label: "a", Start: 1, Dur: 1})
	tr.Rank(0).Emit(Span{Kind: KindCompute, Start: 2, Dur: 3})
	tr.Rank(0).Emit(Span{Kind: KindSlabRead, Label: "a", Start: 4, Dur: 7, Deferred: true})
	out := tr.Summary()
	if !strings.Contains(out, "slab-read a ") || !strings.Contains(out, "3.00s") {
		t.Errorf("summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "slab-read a (overlapped)") || !strings.Contains(out, "7.00s") {
		t.Errorf("overlapped line missing:\n%s", out)
	}
	if !strings.Contains(NewTracer(1).Summary(), "no spans") {
		t.Error("empty summary wrong")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := KindFromString("nonsense"); ok {
		t.Error("unknown name should not resolve")
	}
}
