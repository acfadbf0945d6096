package main

import "testing"

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json and the metrics this
// program reports together: same workloads, names, units, directions
// and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not run by the program", w.Name)
		}
	}
	same := func(kind string, json, code []metricSpec) {
		if len(json) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(json), len(code))
			return
		}
		for i := range json {
			if json[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, json[i], code[i])
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
	var setup *metricSpec
	for i, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = &sp.EndToEnd[i]
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}
