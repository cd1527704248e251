package serve

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/exec"
)

// TestSharedImageServedJobs runs jobs of one cached GAXPY plan whose
// input files share the plan's images of A and B: two at once, held at
// pickup until both workers have one, then one whose rank 1 is killed
// and that resumes from its checkpoint on a respawned rank, then one
// more. Every reply's statistics and every array the run leaves, the
// inputs read through files that share the images included, must be
// bitwise those of a direct run of the same request, whose files share
// nothing: so the later jobs find the images as the first fills made
// them. The arena runs checked, so an image put back to it would be
// poisoned.
func TestSharedImageServedJobs(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	plain := Request{N: 64, Procs: 4, MemElems: 1 << 12}
	killed := Request{N: 64, Procs: 4, MemElems: 1 << 12, Checkpoint: 2, Parity: true, KillRank: "1@60"}
	type run struct {
		stats  []byte
		arrays map[string][]float64
	}
	want := map[*Request]run{}
	for _, req := range []*Request{&plain, &killed} {
		stats, arrays := directRun(t, *req)
		want[req] = run{stats, arrays}
	}

	s := New(Config{Workers: 2})
	defer s.Close()
	var mu sync.Mutex
	picked := 0
	both := make(chan struct{})
	s.pickupGate = func(*job) {
		mu.Lock()
		if picked++; picked == 2 {
			close(both)
		}
		mu.Unlock()
		<-both
	}
	// Each run's attempts and arrays, read before the run is closed.
	type served struct {
		attempts int
		arrays   map[string][]float64
	}
	var runs []served
	s.ranGate = func(out *exec.Result) {
		arrays := readArrays(t, out)
		mu.Lock()
		runs = append(runs, served{out.Attempts, arrays})
		mu.Unlock()
	}
	submit := func(what string, req *Request) {
		t.Helper()
		resp, err := s.Submit(context.Background(), *req)
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		if string(mustJSON(t, resp.Stats)) != string(want[req].stats) {
			t.Errorf("%s job: statistics differ from a direct run's", what)
		}
		if req.KillRank != "" && (resp.Attempts < 2 || resp.Recoveries < 1) {
			t.Errorf("%s job: attempts=%d recoveries=%d, want a survived loss", what, resp.Attempts, resp.Recoveries)
		}
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit("concurrent", &plain)
		}()
	}
	wg.Wait()
	submit("killed", &killed)
	submit("later", &plain)

	if len(runs) != 4 {
		t.Errorf("%d runs seen, want 4", len(runs))
	}
	for _, r := range runs {
		ref := want[&plain].arrays
		if r.attempts > 1 {
			ref = want[&killed].arrays
		}
		for name, data := range ref {
			if !slices.EqualFunc(r.arrays[name], data, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Errorf("a served run (%d attempts) left array %s unlike a direct run's", r.attempts, name)
			}
		}
	}
	if m := s.MetricsSnapshot(); m.Cache.Misses != 1 || m.Completed != 4 {
		t.Errorf("misses=%d completed=%d, want 1 and 4", m.Cache.Misses, m.Completed)
	}
}
