// Command bench is the repository's benchmark: six named workloads
// driven through the product's stable surfaces (serve.Server over HTTP
// or Submit, the compile pipeline), measured end to end on the host
// clock, checked against in-core oracles, and — in a separate traced
// pass — attributed layer by layer with spans recorded from this side
// of each layer's public functions. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [-out FILE]
//	bench -compare BASE.json CHANGE.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds the whole process: a run that has not finished by
// then dumps its goroutines and exits 2 rather than hang its caller.
const runDeadline = 170 * time.Second

// traceDir is where the traced pass writes its span files, relative to
// the working directory (the root of the checkout).
const traceDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the job order and tenant assignment")
		seconds = flag.Float64("seconds", 10, "how long the timed segment runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, nothing recording; 1: per-layer metrics from the traced pass")
		out     = flag.String("out", "", "append the run's full record to this file, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare BASE CHANGE")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare BASE.json CHANGE.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, err.Error())
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(2, fmt.Sprintf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(2, "want --seconds > 0 and --trace 0 or 1")
	}

	goroutines := runtime.NumGoroutine()
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "bench: no result after %v; goroutines:\n", runDeadline)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(2)
	})

	// At least 100 timed jobs, so the 90th percentile has ten samples
	// beyond it and each of the run's parts has five.
	o := runOpts{seed: *seed, seconds: *seconds, scale: 1, minJobs: 100}
	var (
		r   *result
		err error
	)
	if *trace == 1 {
		r, err = runTraced(w, o, traceDir)
	} else {
		r, err = runUntraced(w, o)
	}
	if err != nil {
		fatal(1, err.Error())
	}
	watchdog.Stop()
	if err := settle(goroutines); err != nil {
		r.fail(err)
	}

	report(r)
	if *out != "" {
		if err := appendRecord(*out, r); err != nil {
			fatal(1, err.Error())
		}
	}
	// The contract line: exactly these four keys, last on stdout.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(1, err.Error())
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// settle waits for the goroutine count to return to what it was before
// the run: servers, listeners, clients and samplers must all be gone.
func settle(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			return fmt.Errorf("%d goroutines still running after the run, started with %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// report prints the run for a person, on standard error so standard
// output stays machine-readable.
func report(r *result) {
	h := r.Header
	fmt.Fprintf(os.Stderr, "workload %s  seed %d  seconds %g  trace %d  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", name, v.Value, v.Unit)
	}
	if r.Whole != nil {
		fmt.Fprintf(os.Stderr, "  whole run, not gated: %.6g jobs/s, job_p90_ms %.6g\n",
			r.Whole["jobs_per_s"], r.Whole["job_p90_ms"])
	}
	fmt.Fprintf(os.Stderr, "  %d jobs attempted, %d failed; latency percentiles over %d samples; %s\n",
		r.Attempted, r.Failed, r.Samples, r.Checks)
	for _, e := range r.Errors {
		fmt.Fprintln(os.Stderr, "  FAILED:", e)
	}
}

// appendRecord adds the run to path as one JSON line.
func appendRecord(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
