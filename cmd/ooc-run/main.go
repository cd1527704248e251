// ooc-run compiles a mini-HPF program and executes it on the simulated
// distributed memory machine, with real out-of-core I/O through local
// array files, then reports the execution statistics and (for the
// built-in GAXPY inputs) verifies the result.
//
// Usage:
//
//	ooc-run [flags] [source.hpf]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/hpf"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

func main() {
	var (
		n        = flag.Int("n", 256, "problem size n (overrides the program parameter)")
		procs    = flag.Int("procs", 4, "processor count")
		mem      = flag.Int("mem", 1<<15, "node memory for slabs, in elements")
		force    = flag.String("force", "", "force a strategy: row-slab/column-slab, or direct/sieved/two-phase for transpose")
		dataDir  = flag.String("datadir", "", "keep local array files under this directory (default: in memory)")
		verify   = flag.Bool("verify", true, "check the result against the closed form")
		timeline = flag.Bool("timeline", false, "print an ASCII timeline, phase attribution and critical path")
		asJSON   = flag.Bool("json", false, "print the execution statistics as JSON")

		traceOut    = flag.String("trace", "", "write the successful attempt's Chrome trace (Perfetto) to this file after the run")
		traceStream = flag.String("trace-stream", "", "write the Chrome trace to this file while the run executes, one event per line, losslessly and across every recovery attempt")
		statsJSON   = flag.String("stats-json", "", "write the execution statistics snapshot as JSON to this file")

		resume  = flag.Bool("resume", false, "resume from the last checkpoint in -datadir instead of starting fresh")
		version = flag.Bool("version", false, "print build information and exit")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole command to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit, recording every allocation")
	)
	var rf cliutil.RunFlags
	rf.Register(nil)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.VersionLine("ooc-run"))
		return
	}
	startProfiles(*cpuProfile, *memProfile)

	src := hpf.GaxpySource
	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}

	res, err := compiler.CompileSource(src, compiler.Options{
		N: *n, Procs: *procs, MemElems: *mem, Force: *force, Runtime: rf.Runtime(),
		Policy: compiler.PolicyWeighted,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled %s: strategy %s on %d processors, n=%d\n",
		res.Program.Name, res.Program.Strategy, res.Program.Procs, res.Program.N)

	var baseFS iosim.FS
	if *dataDir != "" {
		osfs, err := iosim.NewOSFS(*dataDir)
		if err != nil {
			fatal(err)
		}
		baseFS = osfs
	} else if *resume {
		fatal(fmt.Errorf("-resume needs -datadir: an in-memory run leaves no checkpoint behind"))
	}

	eopts, err := rf.Build(baseFS, *resume)
	if err != nil {
		fatal(err)
	}
	resil := eopts.Resilience
	an := res.Analysis
	var tracer *trace.Tracer
	if *timeline || *traceOut != "" || *traceStream != "" {
		tracer = trace.NewTracer(res.Program.Procs)
	}
	if *traceStream != "" {
		f, err := os.Create(*traceStream)
		if err != nil {
			fatal(err)
		}
		// The file is an io.Closer, so CloseSink closes it after the
		// closing line.
		tracer.SetSink(trace.NewChromeSink(f, res.Program.Procs))
	}
	eopts.Fill = cliutil.FillsFor(res)
	eopts.Trace = tracer
	// An injected fail-stop loss (-kill-rank) is detected via heartbeats,
	// the dead rank's disk rebuilt from parity, and the run resumed from
	// the checkpoint; a lost disk (-lose-disk) is reconstructed online.
	out, err := exec.Run(res.Program, sim.Delta(res.Program.Procs), eopts)
	if err == nil && rf.KillRank != "" {
		// The surviving attempt's tracer carries the spans (and the
		// adopted stream sink).
		tracer = out.Trace
		for i, rec := range out.Recoveries {
			fmt.Printf("recovery %d: lost rank(s) %v; rebuilt %d file(s) (%d blocks, %s) in %.4fs simulated; resumed from checkpoint\n",
				i+1, rec.Failed, rec.RebuildIO.Reconstructions, rec.RebuildIO.ReconstructedBlocks,
				cliutil.FormatBytes(rec.RebuildIO.ReconstructedBytes), rec.RebuildSeconds)
		}
		fmt.Printf("survived %d rank failure(s) in %d attempt(s)\n", len(out.Recoveries), out.Attempts)
	}
	if err == nil && rf.LoseDisk != "" {
		for _, f := range out.DiskLosses {
			fmt.Printf("disk loss: rank %d lost its logical disk at its op %d\n", f.Rank, f.Op)
		}
		if len(out.DiskLosses) == 0 {
			fmt.Println("disk loss: the scheduled loss never fired")
		}
	}
	if out != nil && eopts.Chaos.Active() {
		c := out.Chaos
		fmt.Printf("chaos: %d ops, injected %d transient, %d permanent, %d corruptions, %d short reads, %d short writes\n",
			c.Ops, c.Transient, c.Permanent, c.Corruptions, c.ShortReads, c.ShortWrites)
	}
	if tracer != nil {
		// Finalize the stream (the closing line with the span count)
		// whether the run succeeded or not.
		if serr := tracer.CloseSink(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		fatalChain(err)
	}
	if *traceStream != "" {
		fmt.Printf("trace: streamed spans to %s (open in https://ui.perfetto.dev)\n", *traceStream)
	}
	if resil != nil {
		io := out.Stats.TotalIO()
		fmt.Printf("resilience: %d retries (%.4fs simulated backoff), %d corruptions detected, %d give-ups\n",
			io.Retries, io.RetrySeconds, io.Corruptions, io.GiveUps)
	}
	if rf.Parity {
		io := out.Stats.TotalIO()
		comm := out.Stats.TotalComm()
		fmt.Printf("parity: %d reads, %d writes (%s in, %s out) of redundancy maintenance\n",
			io.ParityReads, io.ParityWrites,
			cliutil.FormatBytes(io.ParityBytesRead), cliutil.FormatBytes(io.ParityBytesWritten))
		if io.Reconstructions > 0 || io.ParityRebuilds > 0 {
			fmt.Printf("recovery: %d files reconstructed (%d blocks, %s) via %d gather messages (%s); %d parity blocks rebuilt\n",
				io.Reconstructions, io.ReconstructedBlocks, cliutil.FormatBytes(io.ReconstructedBytes),
				comm.RecoveryMessages, cliutil.FormatBytes(comm.RecoveryBytes), io.ParityRebuilds)
		}
		if ps := out.ParityStore(); ps != nil && ps.Degraded() {
			fmt.Println("recovery: the run survived in degraded mode; full redundancy was rebuilt before completion")
		}
	}
	if *timeline {
		fmt.Print(tracer.Gantt(res.Program.Procs, 100))
		fmt.Printf("time by activity:\n%s", tracer.Summary())
		spans := tracer.Spans()
		elapsed := out.Stats.ElapsedSeconds()
		fmt.Print(trace.FormatPhaseReport(trace.PhaseReport(spans, res.Program.Procs, elapsed), elapsed))
		segs, pathElapsed := trace.CriticalPath(spans, res.Program.Procs)
		fmt.Print(trace.FormatCriticalPath(segs, pathElapsed, 5))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tracer.ExportChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
	if *statsJSON != "" {
		data, err := json.MarshalIndent(out.Stats.Snapshot(), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*statsJSON, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("stats: wrote %s\n", *statsJSON)
	}

	if *asJSON {
		data, err := json.MarshalIndent(out.Stats, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
	if tracer != nil {
		fmt.Printf("trace: %d spans\n", len(tracer.Spans()))
	}
	fmt.Printf("simulated execution: %s\n", out.Stats)
	for _, ps := range out.Stats.Procs {
		fmt.Printf("  proc %2d: %10.2fs | io %8.2fs (%6d reqs, %s) | comm %6.2fs | compute %8.2fs\n",
			ps.Proc, ps.Seconds, ps.IO.Seconds, ps.IO.Requests(),
			cliutil.FormatBytes(ps.IO.Bytes()), ps.Comm.Seconds, ps.ComputeSeconds)
	}
	totalIO := out.Stats.TotalIO()
	fmt.Printf("io request sizes: reads %s | writes %s\n",
		totalIO.ReadSizes.String(), totalIO.WriteSizes.String())
	if comm := out.Stats.TotalComm(); comm.ShuffleMessages > 0 {
		fmt.Printf("collective shuffle: %d messages, %s\n",
			comm.ShuffleMessages, cliutil.FormatBytes(comm.ShuffleBytes))
	}

	if *verify && !rf.Phantom && res.Analysis.Pattern == compiler.PatternGaxpy {
		c, err := out.ReadArray(an.C)
		if err != nil {
			fatal(err)
		}
		want := gaxpy.CExpected(res.Program.N)
		for j := 0; j < c.Cols; j++ {
			for i := 0; i < c.Rows; i++ {
				if c.At(i, j) != want(i, j) {
					fatal(fmt.Errorf("verification failed at C(%d,%d): %g != %g", i, j, c.At(i, j), want(i, j)))
				}
			}
		}
		fmt.Printf("verification: C matches the closed form exactly (%dx%d elements)\n", c.Rows, c.Cols)
	}
	if *verify && !rf.Phantom && res.Analysis.Pattern == compiler.PatternTranspose {
		b, err := out.ReadArray(an.Transpose.Dst)
		if err != nil {
			fatal(err)
		}
		fill := eopts.Fill[an.Transpose.Src]
		for j := 0; j < b.Cols; j++ {
			for i := 0; i < b.Rows; i++ {
				if b.At(i, j) != fill(j, i) {
					fatal(fmt.Errorf("verification failed at %s(%d,%d): %g != %g",
						an.Transpose.Dst, i, j, b.At(i, j), fill(j, i)))
				}
			}
		}
		fmt.Printf("verification: %s is the exact transpose of %s (%dx%d elements)\n",
			an.Transpose.Dst, an.Transpose.Src, b.Rows, b.Cols)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "ooc-run:", err)
		os.Exit(1)
	}
}

// stopProfiles finishes the profiles startProfiles began (a no-op
// without -cpuprofile and -memprofile). Every exit path calls it once.
var stopProfiles = func() error { return nil }

// startProfiles starts a CPU profile into cpuFile and arranges for an
// allocation profile to be written to memFile, both finished by
// stopProfiles, which every exit path calls. The allocation profile
// samples every allocation (runtime.MemProfileRate = 1): one run
// allocates a few hundred KiB, which the default one sample per 512 KiB
// would hardly see.
func startProfiles(cpuFile, memFile string) {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpu = f
	}
	if memFile != "" {
		runtime.MemProfileRate = 1
	}
	stopProfiles = func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memFile != "" {
			errs = append(errs, writeAllocProfile(memFile))
		}
		return errors.Join(errs...)
	}
}

func writeAllocProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC() // the profile is as of the last collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooc-run:", err)
	exitFailure()
}

// exitFailure finishes the profiles, so a failed run is profiled too, and
// exits with status 1.
func exitFailure() {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "ooc-run:", err)
	}
	os.Exit(1)
}

// fatalChain reports an unrecoverable execution error and exits non-zero.
// Joined fault chains (errors.Join of the original fault and everything
// the recovery path ran into) print one cause per line, so the full
// failure story survives into the exit message.
func fatalChain(err error) {
	fmt.Fprintln(os.Stderr, "ooc-run: unrecoverable:")
	for _, line := range strings.Split(err.Error(), "\n") {
		fmt.Fprintln(os.Stderr, "  "+line)
	}
	exitFailure()
}
