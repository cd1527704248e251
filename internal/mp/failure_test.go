package mp

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/sim"
)

// ringNode is a P-rank ring exchange: each iteration sends one element
// to the successor and receives one from the predecessor. Every rank
// performs exactly 2*iters counted operations.
func ringNode(iters int) NodeFunc {
	return func(p *Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		for i := 0; i < iters; i++ {
			p.Send(next, i, []float64{float64(p.Rank())})
			in := p.Recv(prev, i)
			if in[0] != float64(prev) {
				return fmt.Errorf("iter %d: got %v from rank %d", i, in[0], prev)
			}
			ReleaseBuf(in)
		}
		return nil
	}
}

// TestKillRankResolvesToTypedErrors pins the tentpole end to end at the
// mp level: an injected kill surfaces as RankFailure carrying the agreed
// failed set, the killed rank reports RankKilledError, and at least one
// survivor aborted with ErrRankDead instead of hanging.
func TestKillRankResolvesToTypedErrors(t *testing.T) {
	opts := Options{
		Faults: []Fault{{Rank: 2, Op: 3}},
	}
	_, err := RunOpts(sim.Delta(4), opts, ringNode(4))
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("error %v is not a RankFailure", err)
	}
	if len(rf.Failed) != 1 || rf.Failed[0] != 2 {
		t.Errorf("Failed = %v, want [2]", rf.Failed)
	}
	var killed *RankKilledError
	if !errors.As(err, &killed) || killed.Rank != 2 || killed.Op != 3 {
		t.Errorf("missing RankKilledError{2, 3} in %v", err)
	}
	var dead *ErrRankDead
	if !errors.As(err, &dead) {
		t.Fatalf("no survivor aborted with ErrRankDead in %v", err)
	}
	if strings.Contains(err.Error(), "deadlock") {
		t.Errorf("detection should resolve the failure, not a deadlock: %v", err)
	}
}

// TestSurvivorsAgreeOnFailedSet pins the agreement protocol: every
// survivor that aborts reports the identical failed-rank set.
func TestSurvivorsAgreeOnFailedSet(t *testing.T) {
	opts := Options{
		Faults: []Fault{{Rank: 1, Op: 5}},
	}
	_, err := RunOpts(sim.Delta(4), opts, ringNode(6))
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	sets := regexp.MustCompile(`agreed on failed ranks \[([^\]]*)\]`).
		FindAllStringSubmatch(err.Error(), -1)
	if len(sets) == 0 {
		t.Fatalf("no survivor reported an agreed set in %v", err)
	}
	for _, m := range sets {
		if m[1] != "1" {
			t.Errorf("a survivor agreed on [%s], want [1]: %v", m[1], err)
		}
	}
}

// TestDetectionChargesHeartbeatTimeout pins the simulated cost model of
// detection: the surviving rank stalls for exactly the heartbeat timeout
// past the death, and the detection counters record it.
func TestDetectionChargesHeartbeatTimeout(t *testing.T) {
	opts := Options{
		Faults: []Fault{{Rank: 1, Op: 0}},
	}
	stats, err := RunOpts(sim.Delta(2), opts, ringNode(1))
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	c := stats.Procs[0].Comm
	if c.Detections != 1 {
		t.Errorf("survivor Detections = %d, want 1", c.Detections)
	}
	if c.DetectSeconds <= 0 || c.DetectSeconds > sim.DetectionTimeout {
		t.Errorf("survivor DetectSeconds = %v, want in (0, %v]", c.DetectSeconds, sim.DetectionTimeout)
	}
	if c.Agreements != 1 {
		t.Errorf("survivor Agreements = %d, want 1", c.Agreements)
	}
	// The victim died at simulated time 0, so the survivor's clock ends
	// exactly at the heartbeat timeout: its pre-death progress is
	// subsumed by the stall.
	if got := stats.Procs[0].Seconds; got != sim.DetectionTimeout {
		t.Errorf("survivor clock = %v, want exactly the detection timeout %v", got, sim.DetectionTimeout)
	}
	if k := stats.Procs[1].Comm; k.Detections != 0 || k.Agreements != 0 {
		t.Errorf("killed rank recorded detection counters: %+v", k)
	}
}

// TestTwoKillsInOneAttempt kills two ranks of a ring in the same run:
// the failed set is both of them, and every survivor that aborts
// reports exactly that set, never a partial snapshot taken before the
// second death. Repeated to shake out scheduling orders.
func TestTwoKillsInOneAttempt(t *testing.T) {
	for i := 0; i < 50; i++ {
		opts := Options{
			Faults: []Fault{{Rank: 1, Op: 3}, {Rank: 3, Op: 5}},
		}
		_, err := RunOpts(sim.Delta(4), opts, ringNode(6))
		var rf *RankFailure
		if !errors.As(err, &rf) {
			t.Fatalf("run %d: error %v is not a RankFailure", i, err)
		}
		if fmt.Sprint(rf.Failed) != "[1 3]" {
			t.Fatalf("run %d: Failed = %v, want [1 3]", i, rf.Failed)
		}
		var survivors int
		for _, e := range errors.Unwrap(rf.Err).(interface{ Unwrap() []error }).Unwrap() {
			var dead *ErrRankDead
			if !errors.As(e, &dead) {
				continue
			}
			survivors++
			if fmt.Sprint(dead.Agreed) != "[1 3]" {
				t.Errorf("run %d: a survivor reports %v, want [1 3]: %v", i, dead.Agreed, e)
			}
		}
		if survivors == 0 {
			t.Fatalf("run %d: no survivor aborted with ErrRankDead in %v", i, err)
		}
		if strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("run %d resolved as a deadlock: %v", i, err)
		}
	}
}

// TestKillOutsideMachineRejected pins the kill schedule's validation: a
// rank outside [0, P) or a negative op fails the run before any rank
// starts, naming the rank and P, instead of silently never firing.
func TestKillOutsideMachineRejected(t *testing.T) {
	for _, k := range []Fault{{Rank: 9, Op: 150}, {Rank: -1, Op: 5}, {Rank: 4, Op: 0}, {Rank: 1, Op: -1}} {
		started := false
		_, err := RunOpts(sim.Delta(4), Options{Faults: []Fault{k}}, func(p *Proc) error {
			started = true
			return nil
		})
		if err == nil {
			t.Errorf("kill %+v on 4 ranks: run succeeded", k)
			continue
		}
		if started {
			t.Errorf("kill %+v: a rank started before the schedule was rejected", k)
		}
		if want := fmt.Sprintf("rank %d", k.Rank); !strings.Contains(err.Error(), want) {
			t.Errorf("kill %+v: error %q does not name %q", k, err, want)
		}
		if k.Op >= 0 && !strings.Contains(err.Error(), "4 processors") {
			t.Errorf("kill %+v: error %q does not name P", k, err)
		}
	}
	// An op past the rank's operation count is legal and never fires.
	if _, err := RunOpts(sim.Delta(4), Options{Faults: []Fault{{Rank: 1, Op: 1000}}}, ringNode(2)); err != nil {
		t.Errorf("a kill past the victim's last op failed the run: %v", err)
	}
}

// TestLoseDiskRunsHandlerOnVictim: a scheduled disk loss fires on the
// victim's own goroutine immediately before its Op'th operation, once,
// with the fault that fired; the rank runs on, so the run completes and
// every rank's op count is a plain run's. A rank that installed no
// handler ignores its loss, and an unknown kind is rejected up front.
func TestLoseDiskRunsHandlerOnVictim(t *testing.T) {
	const victim, at, iters = 2, 5, 4
	loss := Fault{Rank: victim, Op: at, Kind: LoseDisk}
	var fired []Fault
	var opsAtFire int64
	counts := make([]int64, 4)
	_, err := RunOpts(sim.Delta(4), Options{Faults: []Fault{loss}, OpCounts: counts}, func(p *Proc) error {
		p.OnDiskLoss(func(f Fault) {
			if p.Rank() != f.Rank {
				t.Errorf("rank %d ran the handler of %+v", p.Rank(), f)
			}
			fired = append(fired, f)
			opsAtFire = p.ops
		})
		return ringNode(iters)(p)
	})
	if err != nil {
		t.Fatalf("a disk loss failed the run: %v", err)
	}
	if len(fired) != 1 || fired[0] != loss {
		t.Fatalf("handler saw %+v, want one %+v", fired, loss)
	}
	if opsAtFire != at+1 {
		t.Errorf("handler ran after %d counted ops, want %d (op %d itself counted)", opsAtFire, at+1, at)
	}
	for r, n := range counts {
		if n != 2*iters {
			t.Errorf("rank %d counted %d ops, want %d", r, n, 2*iters)
		}
	}
	if _, err := RunOpts(sim.Delta(4), Options{Faults: []Fault{loss}}, ringNode(iters)); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Errorf("a disk loss with no handler: err %v, want the run failed naming the missing handler", err)
	}
	bad := Fault{Rank: 1, Op: 0, Kind: LoseDisk + 1}
	if _, err := RunOpts(sim.Delta(4), Options{Faults: []Fault{bad}}, ringNode(iters)); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("fault of unknown kind: err %v, want a rejection", err)
	}
}

// TestOpCountsProbeDeterministic pins the probe mechanism the executor's
// kill sweeps rely on: OpCounts reports each rank's exact operation
// count, identically across runs.
func TestOpCountsProbeDeterministic(t *testing.T) {
	probe := func() []int64 {
		counts := make([]int64, 3)
		if _, err := RunOpts(sim.Delta(3), Options{OpCounts: counts}, ringNode(5)); err != nil {
			t.Fatal(err)
		}
		return counts
	}
	first := probe()
	second := probe()
	for r, n := range first {
		if want := int64(2 * 5); n != want {
			t.Errorf("rank %d performed %d ops, want %d", r, n, want)
		}
		if second[r] != n {
			t.Errorf("rank %d op count not deterministic: %d vs %d", r, n, second[r])
		}
	}
}

// TestKillSweepNeverHangs kills one rank at every op index it would
// execute and checks each run resolves to a typed failure — never a
// deadlock, never a hang. This is the mp-level core of the ranksurvival
// experiment gate.
func TestKillSweepNeverHangs(t *testing.T) {
	const procs, iters, victim = 4, 3, 1
	counts := make([]int64, procs)
	if _, err := RunOpts(sim.Delta(procs), Options{OpCounts: counts}, ringNode(iters)); err != nil {
		t.Fatal(err)
	}
	for op := int64(0); op < counts[victim]; op++ {
		opts := Options{
			Faults: []Fault{{Rank: victim, Op: op}},
		}
		_, err := RunOpts(sim.Delta(procs), opts, ringNode(iters))
		if err == nil {
			t.Fatalf("kill at op %d: run succeeded", op)
		}
		var rf *RankFailure
		if !errors.As(err, &rf) {
			t.Fatalf("kill at op %d: error %v is not a RankFailure", op, err)
		}
		if len(rf.Failed) != 1 || rf.Failed[0] != victim {
			t.Errorf("kill at op %d: Failed = %v, want [%d]", op, rf.Failed, victim)
		}
		if strings.Contains(err.Error(), "deadlock") {
			t.Errorf("kill at op %d resolved as a deadlock: %v", op, err)
		}
	}
}

// TestKilledCollectiveReleasesBuffers pins the error-path leak audit for
// the collectives: a rank killed mid-AllReduce (and its aborting peer)
// must return every arena buffer, verified by the checked-mode arena
// balance.
func TestKilledCollectiveReleasesBuffers(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	opts := Options{
		Faults: []Fault{{Rank: 1, Op: 0}},
	}
	_, err := RunOpts(sim.Delta(2), opts, func(p *Proc) error {
		ReleaseBuf(p.AllReduce(7, []float64{float64(p.Rank()), 1, 2, 3}))
		return nil
	})
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("abort leaked arena buffers: %+v", s)
	}
}

// TestReduceLengthMismatchReleasesBuffers pins the leak audit for a
// plan-bug panic inside a collective: the accumulator and the received
// contribution both return to the arena when addInto panics.
func TestReduceLengthMismatchReleasesBuffers(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	_, err := Run(sim.Delta(2), func(p *Proc) error {
		data := make([]float64, 4-p.Rank()) // lengths 4 and 3: a plan bug
		ReleaseBuf(p.Reduce(0, 9, data))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("want length-mismatch failure, got %v", err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("panic path leaked arena buffers: %+v", s)
	}
}

// TestKillDuringSendOwnedReleasesPayload pins the ownership-transfer
// window: a kill landing on SendOwned's charge, after the caller has
// given the buffer up but before it reaches a mailbox, must not leak it.
func TestKillDuringSendOwnedReleasesPayload(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	opts := Options{
		Faults: []Fault{{Rank: 0, Op: 0}},
	}
	_, err := RunOpts(sim.Delta(2), opts, func(p *Proc) error {
		if p.Rank() == 0 {
			b := AcquireBuf(32)
			clear(b)
			p.SendOwned(1, 4, b) // dies on the charge
			return nil
		}
		ReleaseBuf(p.Recv(0, 4))
		return nil
	})
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("SendOwned kill window leaked arena buffers: %+v", s)
	}
}

// TestStrandedMailboxPayloadsReturned pins the end-of-run drain: data a
// dead rank's peers sent it but it never received is returned to the
// arena when the machine shuts down.
func TestStrandedMailboxPayloadsReturned(t *testing.T) {
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	opts := Options{
		Faults: []Fault{{Rank: 1, Op: 2}},
	}
	_, err := RunOpts(sim.Delta(2), opts, func(p *Proc) error {
		if p.Rank() == 0 {
			// Two payloads into rank 1's mailbox; it dies after draining
			// neither (its ops are its own sends).
			p.Send(1, 0, []float64{1, 2, 3})
			p.Send(1, 1, []float64{4, 5, 6})
			ReleaseBuf(p.Recv(1, 2))
			ReleaseBuf(p.Recv(1, 3))
			return nil
		}
		p.Send(0, 2, []float64{7})
		p.Send(0, 3, []float64{8})
		ReleaseBuf(p.Recv(0, 0)) // killed at op 2: never runs
		ReleaseBuf(p.Recv(0, 1))
		return nil
	})
	if err == nil {
		t.Fatal("killing a rank should fail the run")
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Errorf("stranded mailbox payloads leaked: %+v", s)
	}
}

// TestKillDisabledZeroOverhead pins "zero overhead when disabled" at the
// API level: a machine without Options carries no failState, and the
// per-op hook is a nil check (the alloc and wallclock pins in
// alloc_test.go and the bench gate cover the cost side).
func TestKillDisabledZeroOverhead(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		if p.m.fail != nil {
			return fmt.Errorf("plain run allocated a failState")
		}
		return nil
	})
}
