package cliutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/ooc-hpf/passion/internal/compiler"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/gaxpy"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
)

// RunFlags is the one flags→exec.Options mapping shared by every entry
// point that executes a compiled program — ooc-run, ooc-serve and the
// ooc-bench serve harness all Build the same way, so a job submitted to
// the server runs under exactly the options the CLI would have used.
type RunFlags struct {
	Sieve    bool
	Prefetch bool
	Phantom  bool

	Chaos         float64
	ChaosCorrupt  float64
	ChaosDiskLoss float64
	ChaosSeed     int64
	LoseDisk      string
	Retries       int

	Checkpoint int
	Parity     bool
	KillRank   string
	Watchdog   time.Duration
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
	fs.Float64Var(&f.Chaos, "chaos", 0, "probability of a transient fault per file operation")
	fs.Float64Var(&f.ChaosCorrupt, "chaos-corrupt", 0, "probability of a flipped bit per file read")
	fs.Float64Var(&f.ChaosDiskLoss, "chaos-disk-loss", 0, "probability that a file operation takes down its whole logical disk")
	fs.StringVar(&f.LoseDisk, "lose-disk", "", "lose the disk holding FILE at its OPth operation, as FILE@OP (e.g. c.p1.laf@40)")
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 1, "seed of the deterministic fault injection")
	fs.IntVar(&f.Retries, "retries", -1, "retry budget per I/O operation (-1: default policy when faults are injected)")
	fs.IntVar(&f.Checkpoint, "checkpoint", 0, "checkpoint every K eligible slab-loop iterations (0: off)")
	fs.BoolVar(&f.Parity, "parity", false, "protect local array files with rotated XOR parity (survives one lost disk)")
	fs.StringVar(&f.KillRank, "kill-rank", "", "fail-stop RANK at its OPth message/IO operation, as RANK@OP (e.g. 1@200); surviving it needs -checkpoint and -parity")
	fs.DurationVar(&f.Watchdog, "watchdog", 0, "deadlock watchdog: fail with a blocked-op dump after this much wall-clock quiet time (0: off, or 30s whenever -kill-rank is set)")
}

// Build materializes the flags into execution options over the backing
// store base (nil means a fresh in-memory file system). resume forces a
// checkpoint spec so exec.Resume finds one. The returned ChaosFS is
// non-nil exactly when fault injection wrapped the store, for
// end-of-run injection reporting. The caller layers on whatever Build
// cannot know: Fill and Trace.
func (f *RunFlags) Build(base iosim.FS, resume bool) (exec.Options, *iosim.ChaosFS, error) {
	var opts exec.Options
	fs := base
	if fs == nil {
		fs = iosim.NewMemFS()
	}
	var schedule []iosim.ScheduledFault
	if f.LoseDisk != "" {
		sf, err := ParseFileOp(f.LoseDisk)
		if err != nil {
			return opts, nil, fmt.Errorf("-lose-disk: %w", err)
		}
		schedule = append(schedule, sf)
	}
	if f.KillRank != "" {
		ks, err := ParseRankOp(f.KillRank)
		if err != nil {
			return opts, nil, fmt.Errorf("-kill-rank: %w", err)
		}
		opts.Kill = append(opts.Kill, ks)
	}
	var chaosFS *iosim.ChaosFS
	if f.Chaos > 0 || f.ChaosCorrupt > 0 || f.ChaosDiskLoss > 0 || len(schedule) > 0 {
		chaosFS = iosim.NewChaosFS(fs, iosim.ChaosConfig{
			Seed:       f.ChaosSeed,
			PTransient: f.Chaos,
			PCorrupt:   f.ChaosCorrupt,
			PDiskLoss:  f.ChaosDiskLoss,
			Schedule:   schedule,
		})
		fs = chaosFS
	}
	if f.Retries >= 0 || chaosFS != nil {
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
	opts.FS = fs
	opts.Phantom = f.Phantom
	opts.Runtime = oocarray.Options{Sieve: f.Sieve, Prefetch: f.Prefetch}
	opts.Parity = f.Parity
	opts.StallTimeout = f.Watchdog
	return opts, chaosFS, nil
}

// ParseRankOp parses a fail-stop kill point written RANK@OP.
func ParseRankOp(s string) (mp.KillSpec, error) {
	head, op, err := splitAtOp(s, "RANK@OP")
	if err != nil {
		return mp.KillSpec{}, err
	}
	rank, err := strconv.Atoi(head)
	if err != nil {
		return mp.KillSpec{}, fmt.Errorf("bad rank in %q", s)
	}
	return mp.KillSpec{Rank: rank, Op: op}, nil
}

// ParseFileOp parses a scheduled disk loss written FILE@OP.
func ParseFileOp(s string) (iosim.ScheduledFault, error) {
	file, op, err := splitAtOp(s, "FILE@OP")
	if err != nil {
		return iosim.ScheduledFault{}, err
	}
	return iosim.ScheduledFault{File: file, Op: op, Kind: iosim.KindDiskLoss}, nil
}

// splitAtOp splits "head@op", parsing the trailing operation index.
func splitAtOp(s, form string) (string, int64, error) {
	k := strings.LastIndex(s, "@")
	if k <= 0 {
		return "", 0, fmt.Errorf("want %s, got %q", form, s)
	}
	op, err := strconv.ParseInt(s[k+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad operation index in %q", s)
	}
	return s[:k], op, nil
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
