package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; spec.go is what the
// program measures. They must say the same thing.
func TestBenchmarkJSONMatchesTheSpec(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	var gated []workloadSpec
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in spec.go", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, spec has %q / %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var contract []metricSpec
	for _, m := range endToEnd {
		if m.Contract {
			contract = append(contract, m)
		}
	}
	same := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: %+v, spec has %s %s %s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound %v, spec has %v", kind, m.Name, g.Bound, m.Bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, contract, true)
	same("per_layer", bj.PerLayer, perLayer, false)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, contract...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) breaks the contract's naming rules or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v above the contract's 0.25", m.Name, m.Bound)
		}
	}
}
