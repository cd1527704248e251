// ooc-bench regenerates the paper's evaluation artifacts — Figure 10,
// Table 1, Table 2, the Equations 3-6 validation and the design-choice
// ablations — on the simulated Touchstone Delta.
//
// Usage:
//
//	ooc-bench -experiment all                # paper scale, accounting mode
//	ooc-bench -experiment table1 -n 256      # reduced scale
//	ooc-bench -experiment table1 -real -n 256 # real data movement
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/core"
	"github.com/ooc-hpf/passion/internal/experiments"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/serve"
	"github.com/ooc-hpf/passion/internal/serve/loadtest"
	"github.com/ooc-hpf/passion/internal/wallbench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig10, table1, table2, eqcheck, ablations, lu, twophase, disksurvival, ranksurvival or all")
		n          = flag.Int("n", 0, "matrix extent (0 = the paper's scale per experiment)")
		procsList  = flag.String("procs", "", "comma-separated processor counts (default per experiment)")
		ratioList  = flag.String("ratios", "", "comma-separated slab-ratio denominators, e.g. 8,4,2,1")
		real       = flag.Bool("real", false, "move real data and do real arithmetic (slow at paper scale)")
		sieve      = flag.Bool("sieve", false, "enable data sieving in the runtime")
		prefetch   = flag.Bool("prefetch", false, "enable prefetching in the runtime")
		csvPath    = flag.String("csv", "", "also write CSV output to this file (table1/fig10/table2)")
		machine    = flag.String("machine", "delta", "machine model: delta (paper calibration) or modern (NVMe-class)")

		wallclock    = flag.Bool("wallclock", false, "run the wall-clock benchmark suite instead of the paper experiments")
		wallKernels  = flag.String("wallclock-kernels", "", "comma-separated kernel subset (default: all)")
		wallOut      = flag.String("wallclock-out", "", "write the wall-clock report to this JSON file")
		wallBaseline = flag.String("wallclock-baseline", "", "compare against this committed baseline and fail on regression")
		wallNsFactor = flag.Float64("wallclock-ns-factor", 2.0, "allowed ns/op slowdown factor vs the baseline")

		serveMode     = flag.Bool("serve", false, "drive an in-process ooc-serve with concurrent jobs instead of the paper experiments")
		serveJobs     = flag.Int("serve-jobs", 500, "total jobs to submit in -serve mode")
		serveConc     = flag.Int("serve-concurrency", 32, "concurrent submitters in -serve mode")
		serveTenants  = flag.Int("serve-tenants", 4, "tenant names the load is spread over")
		serveWorkers  = flag.Int("serve-workers", 4, "server worker pool size in -serve mode")
		serveGate     = flag.Bool("serve-gate", false, "fail unless every job completed and the cache hit ratio clears -serve-hit-ratio")
		serveHitRatio = flag.Float64("serve-hit-ratio", 0.9, "minimum cache hit ratio for -serve-gate")
		serveJournal  = flag.String("serve-journal", "", "journal the served jobs: 'mem' for an in-memory store, else a directory path (empty disables)")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.VersionLine("ooc-bench"))
		return
	}

	if *wallclock {
		runWallclock(*wallKernels, *wallOut, *wallBaseline, *wallNsFactor)
		return
	}
	if *serveMode {
		runServe(*serveJobs, *serveConc, *serveTenants, *serveWorkers, *serveGate, *serveHitRatio, *serveJournal)
		return
	}

	params := experiments.Params{
		N:    *n,
		Real: *real,
		Opts: oocarray.Options{Sieve: *sieve, Prefetch: *prefetch},
	}
	var err error
	if params.Machine, err = cliutil.MachineFor(*machine); err != nil {
		fatal(err)
	}
	if params.Procs, err = cliutil.ParseInts(*procsList); err != nil {
		fatal(err)
	}
	if params.Ratios, err = cliutil.ParseInts(*ratioList); err != nil {
		fatal(err)
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = core.ExperimentNames
	}
	for _, name := range names {
		text, csv, err := core.RunExperiment(name, params)
		if text != "" {
			fmt.Printf("=== %s ===\n%s\n", name, text)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if *csvPath != "" && csv != "" {
			path := *csvPath
			if len(names) > 1 {
				path = strings.TrimSuffix(path, ".csv") + "-" + name + ".csv"
			}
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("(csv written to %s)\n\n", path)
		}
	}
}

// runWallclock runs the wall-clock suite (the cost of the simulator
// itself, not the simulated machine), optionally writing the report and
// gating it against a committed baseline.
func runWallclock(kernels, out, baseline string, nsFactor float64) {
	var names []string
	if kernels != "" {
		names = strings.Split(kernels, ",")
	}
	rep, err := wallbench.RunSuite(names)
	if err != nil {
		fatal(err)
	}
	text, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", text)
	if out != "" {
		if err := rep.WriteFile(out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wallbench: report written to %s\n", out)
	}
	if baseline != "" {
		base, err := wallbench.LoadReport(baseline)
		if err != nil {
			fatal(err)
		}
		if err := wallbench.Compare(rep, base, nsFactor); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wallbench: within baseline %s (ns/op factor %.1f, allocs exact)\n", baseline, nsFactor)
	}
}

// runServe starts an in-process ooc-serve, floods it with the loadtest
// mix over HTTP, and prints the report; with gate on, a lost job or a
// cold cache fails the run. A journal store makes every submission
// durable and tags each job with an idempotency key, gating the
// journaled write path under the same load.
func runServe(jobs, concurrency, tenants, workers int, gate bool, minHitRatio float64, journal string) {
	cfg := serve.Config{Workers: workers}
	if journal != "" {
		var jfs iosim.FS
		if journal == "mem" {
			jfs = iosim.NewMemFS()
		} else {
			osfs, err := iosim.NewOSFS(journal)
			if err != nil {
				fatal(err)
			}
			jfs = osfs
		}
		cfg.Journal = &serve.JournalConfig{FS: jfs}
	}
	s, err := serve.Open(cfg)
	if err != nil {
		fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	rep, err := loadtest.Run(ts.URL, loadtest.Config{
		Jobs:            jobs,
		Concurrency:     concurrency,
		Tenants:         tenants,
		IdempotencyKeys: journal != "",
	})
	ts.Close()
	s.Close()
	if rep != nil {
		text, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Printf("%s\n", text)
	}
	if err != nil {
		fatal(err)
	}
	if gate {
		if err := loadtest.Gate(rep, minHitRatio); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serve: %d jobs completed, 0 errors, cache hit ratio %.3f (gate %.3f)\n",
			rep.Completed, rep.CacheHitRatio, minHitRatio)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooc-bench:", err)
	os.Exit(1)
}
