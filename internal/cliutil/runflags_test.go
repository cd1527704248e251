package cliutil

import (
	"flag"
	"slices"
	"testing"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

func TestParseRankOp(t *testing.T) {
	ks, err := ParseRankOp("1@200", mp.RankDeath)
	if err != nil {
		t.Fatal(err)
	}
	if ks != (mp.Fault{Rank: 1, Op: 200, Kind: mp.RankDeath}) {
		t.Fatalf("got %+v, want rank 1 op 200", ks)
	}
	for _, bad := range []string{"", "1", "@200", "x@200", "1@y", "1@"} {
		if _, err := ParseRankOp(bad, mp.RankDeath); err == nil {
			t.Errorf("ParseRankOp(%q): want error, got nil", bad)
		}
	}
}

// TestParseLoseDisk: -lose-disk takes the -kill-rank form, RANK@OP, and
// a file name is no longer a disk.
func TestParseLoseDisk(t *testing.T) {
	f, err := ParseRankOp("1@40", mp.LoseDisk)
	if err != nil {
		t.Fatal(err)
	}
	if f != (mp.Fault{Rank: 1, Op: 40, Kind: mp.LoseDisk}) {
		t.Fatalf("got %+v", f)
	}
	for _, bad := range []string{"@7", "c.p1.laf@40", "bogus"} {
		if _, err := ParseRankOp(bad, mp.LoseDisk); err == nil {
			t.Errorf("ParseRankOp(%q): want error, got nil", bad)
		}
	}
}

func TestMachineFor(t *testing.T) {
	for name, want := range map[string]sim.Config{
		"":       sim.Delta(4),
		"delta":  sim.Delta(4),
		"modern": sim.Modern(4),
	} {
		f, err := MachineFor(name)
		if err != nil {
			t.Fatalf("MachineFor(%q): %v", name, err)
		}
		if got := f(4); got != want {
			t.Errorf("MachineFor(%q)(4) = %+v, want %+v", name, got, want)
		}
	}
	if _, err := MachineFor("cray"); err == nil {
		t.Error("want error for unknown machine")
	}
}

func TestRegisterAndBuild(t *testing.T) {
	var rf RunFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	rf.Register(fs)
	err := fs.Parse([]string{
		"-sieve", "-prefetch",
		"-chaos", "0.01", "-chaos-seed", "7",
		"-lose-disk", "1@40",
		"-kill-rank", "1@200",
		"-checkpoint", "3", "-parity",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts, chaosFS, err := rf.Build(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if chaosFS == nil {
		t.Fatal("chaos probability set: want a ChaosFS")
	}
	if opts.FS != chaosFS {
		t.Error("options FS should be the chaos wrapper")
	}
	if opts.Resilience == nil {
		t.Error("fault injection without an explicit retry budget should still get the default policy")
	}
	if opts.Checkpoint == nil || opts.Checkpoint.Every != 3 {
		t.Errorf("checkpoint spec = %+v, want Every=3", opts.Checkpoint)
	}
	if !opts.Parity {
		t.Error("parity not carried over")
	}
	want := []mp.Fault{{Rank: 1, Op: 40, Kind: mp.LoseDisk}, {Rank: 1, Op: 200, Kind: mp.RankDeath}}
	if !slices.Equal(opts.Faults, want) {
		t.Errorf("fault schedule = %+v, want %+v", opts.Faults, want)
	}
	if rt := rf.Runtime(); !rt.Sieve || !rt.Prefetch {
		t.Errorf("runtime options = %+v", rt)
	}
}

func TestBuildDefaultsArePlain(t *testing.T) {
	var rf RunFlags
	rf.Retries = -1 // the flag default
	opts, chaosFS, err := rf.Build(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if chaosFS != nil {
		t.Error("no fault flags: want no ChaosFS")
	}
	if opts.Resilience != nil || opts.Checkpoint != nil || opts.Parity || len(opts.Faults) != 0 {
		t.Errorf("plain build grew extras: %+v", opts)
	}
	if opts.FS != nil {
		t.Error("nil base without fault injection should leave FS nil: the run's private store")
	}
}

// TestBuildLoseDiskKeepsResilience: a scheduled disk loss alone wraps no
// store (the loss is the machine's) and still gets the default retry
// policy, as every injected fault does.
func TestBuildLoseDiskKeepsResilience(t *testing.T) {
	rf := RunFlags{Retries: -1, LoseDisk: "2@7", Parity: true}
	opts, chaosFS, err := rf.Build(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if chaosFS != nil || opts.FS != nil {
		t.Errorf("a disk loss alone wrapped the store: chaos %v, FS %v", chaosFS, opts.FS)
	}
	if opts.Resilience == nil {
		t.Error("a disk loss without an explicit retry budget should get the default policy")
	}
	if len(opts.Faults) != 1 || opts.Faults[0] != (mp.Fault{Rank: 2, Op: 7, Kind: mp.LoseDisk}) {
		t.Errorf("fault schedule = %+v", opts.Faults)
	}
}

func TestBuildResumeForcesCheckpoint(t *testing.T) {
	var rf RunFlags
	rf.Retries = -1
	opts, _, err := rf.Build(iosim.NewMemFS(), true)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Checkpoint == nil || opts.Checkpoint.Every != 1 {
		t.Errorf("resume without -checkpoint should default Every=1, got %+v", opts.Checkpoint)
	}
	if !opts.Resume {
		t.Error("resume does not set Options.Resume")
	}
	if opts, _, _ = rf.Build(iosim.NewMemFS(), false); opts.Resume {
		t.Error("a fresh run's options ask for a resume")
	}
}

func TestBuildBadSpecs(t *testing.T) {
	var rf RunFlags
	rf.Retries = -1
	rf.LoseDisk = "nope"
	if _, _, err := rf.Build(nil, false); err == nil {
		t.Error("bad -lose-disk should fail Build")
	}
	rf = RunFlags{Retries: -1, KillRank: "x@1"}
	if _, _, err := rf.Build(nil, false); err == nil {
		t.Error("bad -kill-rank should fail Build")
	}
}

func TestFillsFor(t *testing.T) {
	res, err := compiler.CompileSource(hpf.GaxpySource, compiler.Options{
		N: 64, Procs: 4, MemElems: 1 << 12, Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	fills := FillsFor(res)
	if fills[res.Analysis.A] == nil || fills[res.Analysis.B] == nil {
		t.Fatalf("gaxpy fills missing: have %d entries", len(fills))
	}

	res, err = compiler.CompileSource(hpf.TransposeSource, compiler.Options{
		N: 64, Procs: 4, MemElems: 1 << 12, Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		t.Fatal(err)
	}
	fills = FillsFor(res)
	src := res.Analysis.Transpose.Src
	if fills[src] == nil {
		t.Fatal("transpose fill missing")
	}
	// Row-major sequence: element (i,j) of an n×n source is i*n+j+1.
	if got := fills[src](2, 3); got != float64(2*64+3+1) {
		t.Errorf("transpose fill(2,3) = %g", got)
	}
}
