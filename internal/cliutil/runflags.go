package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// RunFlags is the one flags→options mapping shared by every entry point
// that compiles and executes a program — ooc-run, ooc-serve and the
// ooc-bench serve harness all take Runtime into the compile options and
// Build the rest the same way, so a job submitted to the server runs
// under exactly the options the CLI would have used.
type RunFlags struct {
	Sieve    bool
	Prefetch bool
	Phantom  bool

	Chaos        float64
	ChaosCorrupt float64
	ChaosSeed    int64
	LoseDisk     string
	Retries      int

	Checkpoint int
	Parity     bool
	KillRank   string
}

// Register declares the shared execution flags on fs (nil means the
// process-wide default set).
func (f *RunFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.BoolVar(&f.Sieve, "sieve", false, "use data sieving for discontiguous slabs")
	fs.BoolVar(&f.Prefetch, "prefetch", false, "overlap slab reads with computation")
	fs.BoolVar(&f.Phantom, "phantom", false, "accounting-only mode (no data, no verification)")
	fs.Var((*probability)(&f.Chaos), "chaos", "probability in [0, 1] of a transient fault per file operation")
	fs.Var((*probability)(&f.ChaosCorrupt), "chaos-corrupt", "probability in [0, 1] of a flipped bit per file read")
	fs.StringVar(&f.LoseDisk, "lose-disk", "", "lose RANK's logical disk at its OPth message/IO operation, as RANK@OP (e.g. 1@40); surviving it needs -parity")
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 1, "seed of the deterministic fault injection")
	fs.IntVar(&f.Retries, "retries", -1, "retry budget per I/O operation (-1: default policy when faults are injected)")
	fs.IntVar(&f.Checkpoint, "checkpoint", 0, "checkpoint every K eligible slab-loop iterations (0: off)")
	fs.BoolVar(&f.Parity, "parity", false, "protect local array files with rotated XOR parity (survives one lost disk)")
	fs.StringVar(&f.KillRank, "kill-rank", "", "fail-stop RANK at its OPth message/IO operation, as RANK@OP (e.g. 1@200); surviving it needs -checkpoint and -parity")
}

// Runtime is the flags' runtime switches, a compile option: the plan
// carries them to every run (compiler.Options.Runtime).
func (f RunFlags) Runtime() oocarray.Options {
	return oocarray.Options{Sieve: f.Sieve, Prefetch: f.Prefetch}
}

// Build materializes the other flags into execution options over the
// backing store base. A nil base leaves Options.FS nil, so the run works
// on its plan's private in-memory store (exec.RunLowered). resume sets
// exec.Options.Resume and forces a checkpoint spec so the resume finds
// one. Drawn I/O faults go on exec.Options.Chaos (their counts come back
// on exec.Result.Chaos), the rank deaths and disk losses on
// exec.Options.Faults. Any injected fault implies the default retry
// policy. The caller layers on whatever Build cannot know: Fill and
// Trace.
func (f *RunFlags) Build(base iosim.FS, resume bool) (exec.Options, error) {
	var opts exec.Options
	for _, sched := range []struct {
		flag, spec string
		kind       mp.FaultKind
	}{{"-lose-disk", f.LoseDisk, mp.LoseDisk}, {"-kill-rank", f.KillRank, mp.RankDeath}} {
		if sched.spec == "" {
			continue
		}
		ft, err := ParseRankOp(sched.spec, sched.kind)
		if err != nil {
			return opts, fmt.Errorf("%s: %w", sched.flag, err)
		}
		opts.Faults = append(opts.Faults, ft)
	}
	opts.Chaos = iosim.ChaosConfig{Seed: f.ChaosSeed, PTransient: f.Chaos, PCorrupt: f.ChaosCorrupt}
	if f.Retries >= 0 || opts.Chaos.Active() || f.LoseDisk != "" {
		policy := iosim.DefaultRetryPolicy()
		if f.Retries >= 0 {
			policy.MaxRetries = f.Retries
		}
		opts.Resilience = iosim.NewResilience(policy)
	}
	if f.Checkpoint > 0 || resume {
		every := f.Checkpoint
		if every < 1 {
			every = 1
		}
		opts.Checkpoint = &exec.CheckpointSpec{Every: every}
	}
	opts.FS = base
	opts.Phantom = f.Phantom
	opts.Parity = f.Parity
	opts.Resume = resume
	return opts, nil
}

// CheckProbability rejects a fault probability outside [0, 1], NaN
// included: the -chaos and -chaos-corrupt flags and the served jobs'
// chaos and chaos_corrupt fields take only probabilities.
func CheckProbability(p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("%v is not a probability in [0, 1]", p)
	}
	return nil
}

// probability is a float64 flag that takes only probabilities.
type probability float64

func (p *probability) String() string { return strconv.FormatFloat(float64(*p), 'g', -1, 64) }

func (p *probability) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	if err := CheckProbability(v); err != nil {
		return err
	}
	*p = probability(v)
	return nil
}

// ParseRankOp parses a scheduled fault of the given kind written
// RANK@OP: a rank death (-kill-rank) or a disk loss (-lose-disk).
func ParseRankOp(s string, kind mp.FaultKind) (mp.Fault, error) {
	k := strings.LastIndex(s, "@")
	if k <= 0 {
		return mp.Fault{}, fmt.Errorf("want RANK@OP, got %q", s)
	}
	rank, err := strconv.Atoi(s[:k])
	if err != nil {
		return mp.Fault{}, fmt.Errorf("bad rank in %q", s)
	}
	op, err := strconv.ParseInt(s[k+1:], 10, 64)
	if err != nil {
		return mp.Fault{}, fmt.Errorf("bad operation index in %q", s)
	}
	return mp.Fault{Rank: rank, Op: op, Kind: kind}, nil
}

// MachineFor maps a machine-model name to its configuration factory.
func MachineFor(name string) (func(int) sim.Config, error) {
	switch name {
	case "", "delta":
		return sim.Delta, nil
	case "modern":
		return sim.Modern, nil
	default:
		return nil, fmt.Errorf("unknown machine %q (want delta or modern)", name)
	}
}

// FillsFor returns the deterministic input fills every entry point uses
// for a compiled program: the paper's GAXPY operands and the
// row-major-sequence transpose source. Patterns without canonical
// inputs (elementwise, shift) start from zeroed arrays, exactly as
// ooc-run always has.
func FillsFor(res *compiler.Result) map[string]func(gi, gj int) float64 {
	fills := map[string]func(gi, gj int) float64{}
	an := res.Analysis
	switch an.Pattern {
	case compiler.PatternGaxpy:
		fills[an.A] = gaxpy.FillA
		fills[an.B] = gaxpy.FillB
	case compiler.PatternTranspose:
		nn := res.Program.N
		fills[an.Transpose.Src] = func(gi, gj int) float64 { return float64(gi*nn + gj + 1) }
	}
	return fills
}
