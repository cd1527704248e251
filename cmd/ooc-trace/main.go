// ooc-trace analyzes span timelines written by ooc-run and ooc-serve:
// it validates the trace as it decodes it, reports per-phase time
// attribution and the critical path through the run, and — given the
// matching statistics snapshot from ooc-run -stats-json — verifies that
// the spans reconcile exactly with the accounted statistics. It reads
// the one trace format every writer produces: Chrome trace events, one
// per line (ooc-run -trace, ooc-run -trace-stream, and a served job's
// GET /jobs/{id}/trace).
//
// The tail subcommand follows a live span stream from ooc-serve,
// rendering rolling phase and imbalance figures while the job runs.
//
// Usage:
//
//	ooc-trace [flags] trace.json
//	ooc-trace tail [flags] http://host:port/jobs/<id>/trace
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"github.com/ooc-hpf/passion/internal/cliutil"
	"github.com/ooc-hpf/passion/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "tail" {
		tailMain(os.Args[2:])
		return
	}
	var (
		reconcile = flag.String("reconcile", "", "stats snapshot JSON (from ooc-run -stats-json) to reconcile the spans against")
		topK      = flag.Int("top", 5, "how many bottleneck contributors to list")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.VersionLine("ooc-trace"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ooc-trace [flags] trace.json")
		fmt.Fprintln(os.Stderr, "       ooc-trace tail [flags] <url>/jobs/<id>/trace")
		flag.PrintDefaults()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	tl, err := trace.ParseTrace(data)
	if err != nil {
		fatal(err)
	}
	fmt.Println("validate: well-formed Chrome trace, one event per line")
	warnIncomplete("", tl)

	elapsed := 0.0
	for _, s := range tl.Spans {
		if !s.Deferred && s.End() > elapsed {
			elapsed = s.End()
		}
	}
	if *reconcile != "" {
		// A trace that records drops or lacks its closing line cannot
		// reconcile: spans are missing by construction. Fail loudly
		// instead of reporting a misleading counter mismatch (or, worse,
		// an accidental match).
		if tl.Dropped > 0 {
			fatal(fmt.Errorf("reconcile: refusing — the trace itself records %d dropped span(s), so the export is incomplete", tl.Dropped))
		}
		if !tl.Complete {
			fatal(fmt.Errorf("reconcile: refusing — the trace has no closing line, so the stream was cut off and is incomplete"))
		}
		sdata, err := os.ReadFile(*reconcile)
		if err != nil {
			fatal(err)
		}
		var snap trace.Snapshot
		if err := json.Unmarshal(sdata, &snap); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *reconcile, err))
		}
		stats := &trace.Stats{Procs: snap.Procs}
		if err := trace.Reconcile(tl.Spans, stats, nil); err != nil {
			fatal(err)
		}
		fmt.Println("reconcile: spans replay to the accounted statistics exactly")
		elapsed = snap.ElapsedSeconds
	}

	fmt.Printf("trace: %d spans over %d ranks, %.4fs simulated\n", len(tl.Spans), tl.Procs, elapsed)
	fmt.Print(trace.FormatPhaseReport(trace.PhaseReport(tl.Spans, tl.Procs, elapsed), elapsed))
	segs, pathElapsed := trace.CriticalPath(tl.Spans, tl.Procs)
	fmt.Print(trace.FormatCriticalPath(segs, pathElapsed, *topK))
}

// warnIncomplete flags a trace that lost spans or was cut off.
func warnIncomplete(prefix string, tl trace.Timeline) {
	if tl.Dropped > 0 {
		fmt.Printf("%sWARNING: the trace records %d dropped span(s); it is incomplete\n", prefix, tl.Dropped)
	}
	if !tl.Complete {
		fmt.Printf("%sWARNING: the trace has no closing line; it was cut off and is incomplete\n", prefix)
	}
}

// tailMain follows a live SSE span stream from ooc-serve, printing a
// rolling phase/imbalance line as spans arrive and the full phase
// report once the stream ends.
func tailMain(args []string) {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	every := fs.Int("every", 200, "refresh the rolling phase line every this many spans")
	topK := fs.Int("top", 5, "how many bottleneck contributors to list at the end")
	version := fs.Bool("version", false, "print build information and exit")
	fs.Parse(args)
	if *version {
		fmt.Println(cliutil.VersionLine("ooc-trace"))
		return
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ooc-trace tail [flags] <url>/jobs/<id>/trace")
		fs.PrintDefaults()
		os.Exit(2)
	}
	url := fs.Arg(0)
	if !strings.Contains(url, "follow=") {
		if strings.Contains(url, "?") {
			url += "&follow=1"
		} else {
			url += "?follow=1"
		}
	}
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		fatal(fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(body.String())))
	}

	// Each SSE data frame is one line of the trace.
	var dec trace.Decoder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: end" {
			break
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		n := len(dec.Spans)
		if err := dec.Line([]byte(data)); err != nil {
			fatal(err)
		}
		if *every > 0 && len(dec.Spans) > n && len(dec.Spans)%*every == 0 {
			fmt.Print(rollingLine(dec.Spans, dec.Procs))
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}

	spans, procs := dec.Spans, dec.Procs
	elapsed := 0.0
	for _, s := range spans {
		if !s.Deferred && s.End() > elapsed {
			elapsed = s.End()
		}
	}
	fmt.Printf("tail: stream ended: %d spans over %d ranks, %.4fs simulated\n", len(spans), procs, elapsed)
	warnIncomplete("tail: ", dec.Timeline)
	fmt.Print(trace.FormatPhaseReport(trace.PhaseReport(spans, procs, elapsed), elapsed))
	segs, pathElapsed := trace.CriticalPath(spans, procs)
	fmt.Print(trace.FormatCriticalPath(segs, pathElapsed, *topK))
}

// rollingLine condenses the running phase attribution into one line:
// span count, top phases by share, and the worst per-phase imbalance.
func rollingLine(spans []trace.Span, procs int) string {
	elapsed := 0.0
	for _, s := range spans {
		if !s.Deferred && s.End() > elapsed {
			elapsed = s.End()
		}
	}
	shares := trace.PhaseReport(spans, procs, elapsed)
	var b strings.Builder
	fmt.Fprintf(&b, "tail: %6d spans %9.3fs", len(spans), elapsed)
	worst := 0.0
	for i, sh := range shares {
		if i < 3 {
			fmt.Fprintf(&b, " | %s %.0f%%", sh.Phase, sh.Pct)
		}
		if sh.Imbalance > worst {
			worst = sh.Imbalance
		}
	}
	fmt.Fprintf(&b, " | imbalance %.2f\n", worst)
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ooc-trace:", err)
	os.Exit(1)
}
