package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// cancelFS lands a real cancellation mid-run at a reproducible point
// without timers: it counts the run's file operations (create, open,
// remove, read, write, truncate) across all ranks and calls fire from
// inside the at'th. The context under test is an ordinary
// context.WithCancel, so Done and Err behave as the engine may assume of
// any context. only, when set, restricts the count to files whose name
// contains it (".p0." selects rank 0's local array files).
type cancelFS struct {
	iosim.FS
	at   int64
	only string
	fire func()
	ops  atomic.Int64
}

func (c *cancelFS) op(name string) {
	if c.only != "" && !strings.Contains(name, c.only) {
		return
	}
	if c.ops.Add(1) == c.at {
		c.fire()
	}
}

func (c *cancelFS) wrap(name string, f iosim.File, err error) (iosim.File, error) {
	if err != nil {
		return nil, err
	}
	return &cancelFile{File: f, fs: c, name: name}, nil
}

func (c *cancelFS) Create(name string) (iosim.File, error) {
	c.op(name)
	f, err := c.FS.Create(name)
	return c.wrap(name, f, err)
}

func (c *cancelFS) Open(name string) (iosim.File, error) {
	c.op(name)
	f, err := c.FS.Open(name)
	return c.wrap(name, f, err)
}

func (c *cancelFS) Remove(name string) error {
	c.op(name)
	return c.FS.Remove(name)
}

type cancelFile struct {
	iosim.File
	fs   *cancelFS
	name string
}

func (f *cancelFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.op(f.name)
	return f.File.ReadAt(p, off)
}

func (f *cancelFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.op(f.name)
	return f.File.WriteAt(p, off)
}

func (f *cancelFile) Truncate(size int64) error {
	f.fs.op(f.name)
	return f.File.Truncate(size)
}

// cancelAtOp returns a cancellable context and the FS that cancels it
// from inside the run's at'th file operation (never, when at is 0).
func cancelAtOp(at int64) (context.Context, *cancelFS) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, &cancelFS{FS: iosim.NewMemFS(), at: at, fire: cancel}
}

func compileGaxpy(t *testing.T, n, procs, mem int) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: n, Procs: procs, MemElems: mem, Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkCancelled asserts the two cancellation contracts on a run made
// in checked arena mode: the error wraps context.Canceled (through the
// per-rank error join), and every arena buffer — named slabs, staging,
// prefetched reader slabs, stranded mailbox payloads — is back in the
// pool. Checked mode counts every Get against a Put and panics on double
// release, so the balance is exact.
func checkCancelled(t *testing.T, label string, err error) {
	t.Helper()
	s := bufpool.Snapshot()
	if err == nil {
		t.Fatalf("%s: cancelled run completed", label)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: error does not wrap context.Canceled: %v", label, err)
	}
	if s.Gets != s.Puts+s.Drops {
		t.Fatalf("%s: arena leak on cancel: %+v", label, s)
	}
}

// TestCancelStopsAndReleasesBuffers sweeps the cancellation point from
// "before the first node" (the first array file is being created) to
// deep into the slab loops, with prefetch and write-behind on so the
// overlapped-I/O buffers are in flight when the run stops.
func TestCancelStopsAndReleasesBuffers(t *testing.T) {
	res := compileGaxpy(t, 64, 4, 1<<12)
	res.Program.Runtime = oocarray.Options{Prefetch: true, WriteBehind: true}
	opts := Options{Fill: sweepFills()}
	// A counting run that never cancels sizes the sweep: the deepest
	// point must still have op boundaries after it.
	ctx, fs := cancelAtOp(0)
	opts.FS = fs
	out, err := RunCtx(ctx, res.Program, sim.Delta(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	total := fs.ops.Load()
	out.Close()
	if total < 64 {
		t.Fatalf("run made only %d file operations; the sweep needs a multi-slab plan", total)
	}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	for _, at := range []int64{1, 2, 8, total / 8, total / 3, total / 2, 3 * total / 4} {
		bufpool.ResetStats()
		ctx, fs := cancelAtOp(at)
		opts.FS = fs
		_, err := RunCtx(ctx, res.Program, sim.Delta(4), opts)
		checkCancelled(t, fmt.Sprintf("cancel at file op %d of %d", at, total), err)
	}
}

// TestBytecodeCancelledAtOpBoundary: a cancellation that lands while the
// dispatch loop is running stops the ranks between two instructions and
// says so, wrapping context.Canceled.
func TestBytecodeCancelledAtOpBoundary(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, gaxpyScenarioOpts("row-slab"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, fs := cancelAtOp(5)
	_, err = RunCtx(ctx, res.Program, sim.Delta(4), Options{FS: fs})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run must surface context.Canceled, got: %v", err)
	}
	if !strings.Contains(err.Error(), "cancelled at op boundary") {
		t.Fatalf("cancellation must happen at an op boundary, got: %v", err)
	}
}

// parkedInRecv reports whether some goroutine is parked in mp's blocking
// mailbox receive, read off the goroutine dump.
func parkedInRecv() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		head, _, _ := strings.Cut(g, "\n")
		if strings.Contains(head, "[chan receive") && strings.Contains(g, "mp.(*Proc).recvMsg") {
			return true
		}
	}
	return false
}

// TestCancelWhilePeerParkedInRecv lands the cancellation while another
// rank sits in a blocking Recv, where it polls nothing: rank 0 is held
// inside a file operation of its slab loop until a peer is seen parked
// waiting for the reduction rank 0 has not joined, and only then is the
// context cancelled. Rank 0 stops at its next op boundary; the parked
// peer must be woken by rank 0's exit (its mailboxes close) rather than
// hang, and the run reports the cancellation with the arena balanced.
func TestCancelWhilePeerParkedInRecv(t *testing.T) {
	res := compileGaxpy(t, 64, 4, 1<<12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawParked := false
	fs := &cancelFS{FS: iosim.NewMemFS(), only: ".p0.", at: 40, fire: func() {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if sawParked = parkedInRecv(); sawParked {
				break
			}
		}
		cancel()
	}}
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	_, err := RunCtx(ctx, res.Program, sim.Delta(4), Options{
		FS: fs, Fill: sweepFills(),
	})
	if !sawParked {
		t.Fatal("no peer parked in Recv while rank 0 was held: the cancel did not land where the test means it to")
	}
	checkCancelled(t, "cancel with a peer parked in Recv", err)
}

// TestCompletedRunReleasesBuffers pins the same balance on the success
// path: releaseBufs returns the interpreter's final slab bindings, so a
// full run leaves the arena balanced too.
func TestCompletedRunReleasesBuffers(t *testing.T) {
	res := compileGaxpy(t, 48, 4, 1<<12)
	res.Program.Runtime.Prefetch = true
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	bufpool.ResetStats()
	out, err := RunCtx(context.Background(), res.Program, sim.Delta(4), Options{
		Fill: map[string]func(int, int) float64{
			res.Analysis.A: gaxpy.FillA, res.Analysis.B: gaxpy.FillB,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the result removes the run's files, which is what returns
	// their storage: the balance covers file bytes too.
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if s := bufpool.Snapshot(); s.Gets != s.Puts+s.Drops {
		t.Fatalf("arena leak on completed run: %+v", s)
	}
}

// TestDeadlineExpiredBeforeStart: an already-expired deadline stops every
// rank at its first op boundary and reports DeadlineExceeded.
func TestDeadlineExpiredBeforeStart(t *testing.T) {
	res := compileGaxpy(t, 32, 2, 1<<10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := RunCtx(ctx, res.Program, sim.Delta(2), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestCancelledResilientRunDoesNotRecover: cancellation must end the
// recovery loop, not trigger a parity rebuild + respawn of the
// "failed" attempt.
func TestCancelledResilientRunDoesNotRecover(t *testing.T) {
	res := compileGaxpy(t, 48, 4, 1<<12)
	ctx, fs := cancelAtOp(60)
	opts := Options{
		FS:         fs,
		Parity:     true,
		Checkpoint: &CheckpointSpec{Every: 1},
	}
	rr, err := RunCtx(ctx, res.Program, sim.Delta(4), opts)
	if err == nil {
		rr.Close()
		t.Fatal("cancelled resilient run completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}
