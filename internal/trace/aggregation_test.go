package trace

import (
	"reflect"
	"testing"
)

// probeStats sets field i of a statistics struct to a distinguishable
// nonzero value and returns whether it managed to (unknown kinds fail
// the test at the call site).
func probeField(v reflect.Value, i int) bool {
	f := v.Field(i)
	switch f.Kind() {
	case reflect.Int64:
		f.SetInt(3)
	case reflect.Float64:
		f.SetFloat(3.5)
	case reflect.Struct:
		h, ok := f.Addr().Interface().(*SizeHistogram)
		if !ok {
			return false
		}
		h.Observe(1024)
	default:
		return false
	}
	return true
}

// TestEveryIOStatsFieldAggregated probes each field of IOStats
// individually: setting only that field on one side must change the
// result of Add, MaxIO and the Stats totals. A newly added counter that
// is not aggregated (or of an unsupported kind) fails here, so the
// hand-written-fold bug class cannot come back.
func TestEveryIOStatsFieldAggregated(t *testing.T) {
	typ := reflect.TypeOf(IOStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var probe IOStats
		if !probeField(reflect.ValueOf(&probe).Elem(), i) {
			t.Fatalf("IOStats.%s has a kind combineFields cannot aggregate", name)
		}
		var sum IOStats
		sum.Add(probe)
		if sum != probe {
			t.Errorf("IOStats.Add drops field %s", name)
		}
		s := NewStats(2)
		s.Procs[1].IO = probe
		if got := s.MaxIO(); got != probe {
			t.Errorf("Stats.MaxIO drops field %s", name)
		}
		if got := s.TotalIO(); got != probe {
			t.Errorf("Stats.TotalIO drops field %s", name)
		}
	}
}

func TestEveryCommStatsFieldAggregated(t *testing.T) {
	typ := reflect.TypeOf(CommStats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var probe CommStats
		if !probeField(reflect.ValueOf(&probe).Elem(), i) {
			t.Fatalf("CommStats.%s has a kind combineFields cannot aggregate", name)
		}
		var sum CommStats
		sum.Add(probe)
		if sum != probe {
			t.Errorf("CommStats.Add drops field %s", name)
		}
		s := NewStats(2)
		s.Procs[1].Comm = probe
		if got := s.TotalComm(); got != probe {
			t.Errorf("Stats.TotalComm drops field %s", name)
		}
	}
}

// TestMaxIOTakesPerFieldMaximum pins the semantics the old hand-written
// fold implemented: each field maximized independently across procs.
func TestMaxIOTakesPerFieldMaximum(t *testing.T) {
	s := NewStats(2)
	s.Procs[0].IO.SlabReads = 10
	s.Procs[0].IO.Seconds = 1.5
	s.Procs[1].IO.SlabReads = 4
	s.Procs[1].IO.Seconds = 2.5
	s.Procs[1].IO.ReadSizes.Observe(100)
	m := s.MaxIO()
	if m.SlabReads != 10 || m.Seconds != 2.5 || m.ReadSizes.Total() != 1 {
		t.Errorf("MaxIO = %+v", m)
	}
}

// TestFoldsDoNotAllocate pins the folds at no allocation per call: a run
// folds its statistics once per rank per consumer, and a fold that boxes
// its operands made up a quarter of what a phantom job at P=64 allocated.
func TestFoldsDoNotAllocate(t *testing.T) {
	s := NewStats(8)
	for i := range s.Procs {
		s.Procs[i].IO.SlabReads = int64(i)
		s.Procs[i].IO.ReadSizes.Observe(1 << i)
		s.Procs[i].Comm.Seconds = float64(i)
	}
	var io IOStats
	var comm CommStats
	var ps ProcStats
	req := Span{Kind: KindReadReq, Label: "a", Bytes: 4096}
	send := Span{Kind: KindSend, Dur: 1e-3, Peer: 1, Bytes: 4096}
	for name, fold := range map[string]func(){
		"IOStats.Add":    func() { io.Add(s.Procs[3].IO) },
		"CommStats.Add":  func() { comm.Add(s.Procs[3].Comm) },
		"TotalIO":        func() { io = s.TotalIO() },
		"MaxIO":          func() { io = s.MaxIO() },
		"TotalComm":      func() { comm = s.TotalComm() },
		"IOStats.Fold":   func() { io.Fold(req) },
		"ProcStats.Fold": func() { ps.Fold(send) },
	} {
		if n := testing.AllocsPerRun(100, fold); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
