package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json and the metric lists the benchmark reports must agree.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metricDef, want []metricDef) {
		t.Helper()
		wantBy := map[string]metricDef{}
		for _, m := range want {
			wantBy[m.name] = m
		}
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m.name] {
				t.Errorf("%s: %s listed twice", kind, m.name)
			}
			seen[m.name] = true
			if !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, m)
			}
			if w, ok := wantBy[m.name]; !ok || w != m {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark reports %+v", kind, m, w)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1, &tally{}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}
