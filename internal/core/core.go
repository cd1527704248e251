// Package core is the library's high-level entry point: it couples the
// mini-HPF frontend, the out-of-core compiler, the simulated machine and
// the experiment drivers behind a small facade, so tools and examples can
// compile-and-run out-of-core data parallel programs in a few calls.
package core

import (
	"fmt"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/experiments"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/matrix"
	"github.com/ooc-hpf/passion/internal/plan"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// Session couples a machine model and a backing file system, so a
// compiled program's local array files persist across Compile/Run/Read
// calls.
type Session struct {
	Machine sim.Config
	FS      iosim.FS
}

// NewSession returns a session for a Delta-like machine with the given
// processor count, backed by an in-memory file system.
func NewSession(procs int) *Session {
	return &Session{Machine: sim.Delta(procs), FS: iosim.NewMemFS()}
}

// NewDiskSession is NewSession backed by real files under dir, making the
// out-of-core execution genuinely out of core.
func NewDiskSession(procs int, dir string) (*Session, error) {
	fs, err := iosim.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return &Session{Machine: sim.Delta(procs), FS: fs}, nil
}

// Compile translates mini-HPF source for this session's machine.
func (s *Session) Compile(source string, opts compiler.Options) (*compiler.Result, error) {
	if opts.Procs == 0 {
		opts.Procs = s.Machine.Procs
	}
	if opts.Machine.Procs == 0 {
		opts.Machine = s.Machine
	}
	return compiler.CompileSource(source, opts)
}

// Run executes a compiled program on the session's machine and file
// system.
func (s *Session) Run(p *plan.Program, opts exec.Options) (*exec.Result, error) {
	if opts.FS == nil {
		opts.FS = s.FS
	}
	mach := s.Machine
	mach.Procs = p.Procs
	return exec.Run(p, mach, opts)
}

// Outcome bundles a compile-and-run round trip.
type Outcome struct {
	Compiled *compiler.Result
	Executed *exec.Result
}

// Stats returns the execution statistics.
func (o *Outcome) Stats() *trace.Stats { return o.Executed.Stats }

// Array assembles a result array by name.
func (o *Outcome) Array(name string) (*matrix.Matrix, error) {
	return o.Executed.ReadArray(name)
}

// CompileAndRun compiles source and immediately executes it.
func (s *Session) CompileAndRun(source string, copts compiler.Options, eopts exec.Options) (*Outcome, error) {
	res, err := s.Compile(source, copts)
	if err != nil {
		return nil, err
	}
	out, err := s.Run(res.Program, eopts)
	if err != nil {
		return nil, err
	}
	return &Outcome{Compiled: res, Executed: out}, nil
}

// Experiment names every reproducible artifact of the paper.
var ExperimentNames = []string{"fig10", "table1", "table2", "eqcheck", "ablations", "lu", "twophase", "disksurvival", "ranksurvival"}

// RunExperiment regenerates the named table or figure and returns its
// formatted text (plus CSV where available).
func RunExperiment(name string, p experiments.Params) (text, csv string, err error) {
	switch name {
	case "fig10":
		r, err := experiments.Fig10(p)
		if err != nil {
			return "", "", err
		}
		return r.Format(), r.Table.CSV(), nil
	case "table1":
		r, err := experiments.Table1(p)
		if err != nil {
			return "", "", err
		}
		return r.Format(), r.CSV(), nil
	case "table2":
		r, err := experiments.Table2(p)
		if err != nil {
			return "", "", err
		}
		return r.Format(), r.CSV(), nil
	case "eqcheck":
		r, err := experiments.EqCheck(p)
		if err != nil {
			return "", "", err
		}
		if !r.AllMatch() {
			return r.Format(), "", fmt.Errorf("core: eqcheck found closed-form/measured mismatches")
		}
		return r.Format(), "", nil
	case "ablations":
		r, err := experiments.Ablations(p)
		if err != nil {
			return "", "", err
		}
		return r.Format(), "", nil
	case "lu":
		r, err := experiments.LU(p)
		if err != nil {
			return "", "", err
		}
		return r.Format(), "", nil
	case "twophase":
		r, err := experiments.TwoPhase(p)
		if err != nil {
			return "", "", err
		}
		if !r.AllBitwise() || !r.AllExact() || !r.SelectionAgrees() {
			return r.Format(), r.CSV(), fmt.Errorf("core: twophase validation failed (bitwise=%v exact=%v selection=%v)",
				r.AllBitwise(), r.AllExact(), r.SelectionAgrees())
		}
		return r.Format(), r.CSV(), nil
	case "disksurvival":
		r, err := experiments.DiskSurvival(p)
		if err != nil {
			return "", "", err
		}
		if gerr := r.Gate(); gerr != nil {
			return r.Format(), r.CSV(), fmt.Errorf("core: disksurvival validation failed: %w", gerr)
		}
		return r.Format(), r.CSV(), nil
	case "ranksurvival":
		r, err := experiments.RankSurvival(p)
		if err != nil {
			return "", "", err
		}
		if gerr := r.Gate(); gerr != nil {
			return r.Format(), r.CSV(), fmt.Errorf("core: ranksurvival validation failed: %w", gerr)
		}
		return r.Format(), r.CSV(), nil
	default:
		return "", "", fmt.Errorf("core: unknown experiment %q (have %v)", name, ExperimentNames)
	}
}
