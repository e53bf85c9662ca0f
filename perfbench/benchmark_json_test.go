package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json, the benchmark's
// declaration, in step with the workloads and metrics this program
// actually runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, code %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range endToEnd {
		d := b.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit {
			t.Errorf("end-to-end %d: declared %s [%s], code %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
	}
	for _, d := range b.EndToEnd {
		if d.Name == "setup_s" && (d.Better != "lower" || d.Bound != maxBound) {
			t.Errorf("setup_s must be lower-is-better with the largest bound, got %+v", d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := b.PerLayer[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("per-layer %d: declared %s [%s], code %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
}
