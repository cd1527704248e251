package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarations pins the tables in metrics.go and workloads.go to
// BENCHMARK.json: names, units, directions, bounds and reasons.
func TestDeclarations(t *testing.T) {
	d := readDeclared(t)
	if !reflect.DeepEqual(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from metrics.go:\n%+v\n%+v", d.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from metrics.go:\n%+v\n%+v", d.PerLayer, perLayer)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, workloads.go has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go has %q (%q)",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is not a legal name", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q is declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}

// TestSmoke runs every workload at about a hundredth of its size, in
// both modes, and requires a correct run that emits exactly the declared
// metrics, with the simulated clock identical between the two runs.
func TestSmoke(t *testing.T) {
	o := runOpts{seed: 1, seconds: 0.02, scale: 0.01, setups: 1, minJobs: 2}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runUntraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, o, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				r    *result
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted == 0 {
					t.Errorf("trace %d: correct=%t, %d of %d jobs failed: %v",
						c.r.Header.Trace, c.r.Correct, c.r.Failed, c.r.Attempted, c.r.Errors)
				}
				if len(c.r.Metrics) != len(c.defs) {
					t.Errorf("trace %d: emitted %d metrics, declared %d", c.r.Header.Trace, len(c.r.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if m, ok := c.r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace %d: metric %s: emitted %+v (present=%t), declared unit %s",
							c.r.Header.Trace, d.Name, m, ok, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.Name, plain.Metrics[d.Name].Value)
				}
			}
			if plain.simS == 0 || plain.simS != traced.simS || traced.Metrics["sim_s"].Value != plain.simS {
				t.Errorf("sim_s differs between two runs: %v, %v (reported %v)",
					plain.simS, traced.simS, traced.Metrics["sim_s"].Value)
			}
			if _, err := os.Stat(dir + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
