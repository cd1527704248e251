package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readRecords loads a file written with -out: one result per line.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(values, n=4) gives them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's runs of one (workload, metric) pair.
type side struct {
	values []float64
	median float64
	spread float64 // (q3-q1)/median
}

func newSide(values []float64) side {
	q1, q2, q3 := quartiles(values)
	s := side{values: values, median: q2}
	if q2 != 0 {
		s.spread = (q3 - q1) / q2
	}
	return s
}

// verdict judges one end-to-end pair by the rule in the metrics guide:
// worse than the bound is a regression, and a spread wider than the
// bound leaves the pair unresolved unless every run of the change reads
// better than every run of the base.
func verdict(d metricDef, base, change side) string {
	sign := 1.0 // lower is better
	if d.Better == "higher" {
		sign = -1
	}
	worsening := sign * (change.median - base.median) / base.median
	if base.spread > d.Bound || change.spread > d.Bound {
		for _, c := range change.values {
			for _, b := range base.values {
				if sign*(c-b) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if worsening > d.Bound {
		return "REGRESSION"
	}
	return "ok"
}

// compareFiles prints every (workload, metric) pair of the two files in
// its own row, with the ratio and its base.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		label string
		path  string
		runs  []result
	}{{"base", basePath, base}, {"change", changePath, change}} {
		h := f.runs[0].Header
		seeds := map[int64]bool{}
		for _, r := range f.runs {
			seeds[r.Header.Seed] = true
		}
		fmt.Fprintf(w, "%-6s %s: %d runs, %d seeds, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
			f.label, f.path, len(f.runs), len(seeds), h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
		for _, r := range f.runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "%-6s %s seed %d: %d of %d jobs failed, correct=%t\n",
					f.label, r.Header.Workload, r.Header.Seed, r.Failed, r.Attempted, r.Correct)
			}
		}
	}
	collect := func(runs []result, workload, metric string) []float64 {
		var v []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Header.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "\n%-15s %-28s %-6s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "base", "change", "ratio", "spread_b", "spread_c", "bound", "verdict")
	flagged := 0
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				bv, cv := collect(base, wl.name, d.Name), collect(change, wl.name, d.Name)
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				b, c := newSide(bv), newSide(cv)
				ratio := "-"
				if b.median != 0 {
					ratio = fmt.Sprintf("%.4f", c.median/b.median)
				}
				bound, v := "", ""
				switch {
				case d.Bound > 0:
					bound = fmt.Sprintf("%.0f%%", d.Bound*100)
					v = verdict(d, b, c)
				case b.median == c.median && b.spread == 0 && c.spread == 0:
					v = "identical"
				}
				if v == "REGRESSION" || v == "unresolved" {
					flagged++
				}
				fmt.Fprintf(w, "%-15s %-28s %-6s %14.6g %14.6g %9s %7.1f%% %7.1f%% %6s  %s\n",
					wl.name, d.Name, d.Unit, b.median, c.median, ratio, b.spread*100, c.spread*100, bound, v)
			}
		}
	}
	fmt.Fprintf(w, "\nratio is change/base of the medians; %d end-to-end pairs are beyond their bound or unresolved\n", flagged)
	return nil
}
