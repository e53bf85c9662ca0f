package cluster

import (
	"reflect"
	"strings"
	"testing"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/serve"
	"latenttruth/internal/shard"
)

var testPriors = core.Priors{FP: 1, TN: 9, TP: 9, FN: 1, True: 1, Fls: 1}

func pq(seq int64, counts map[string][2][2]float64) serve.PartitionQuality {
	return serve.PartitionQuality{Seq: seq, Threshold: 0.5, Priors: testPriors, Counts: counts}
}

// TestMergeQualitySinglePartitionIdentity: merging one partition's counts
// reproduces exactly the rows the shared closed form gives on those
// counts — bit-identical, including the Table 8 ranking.
func TestMergeQualitySinglePartitionIdentity(t *testing.T) {
	counts := map[string][2][2]float64{
		"good":  {{30.2, 0.8}, {1.1, 40.9}},
		"messy": {{20.7, 10.3}, {3.9, 33.1}},
	}
	merged, err := MergeQuality([]serve.PartitionQuality{pq(3, counts)})
	if err != nil {
		t.Fatal(err)
	}
	want := core.RankedQuality([]model.SourceQuality{
		core.QualityFromCounts("good", counts["good"], testPriors),
		core.QualityFromCounts("messy", counts["messy"], testPriors),
	})
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged %+v != closed form %+v", merged, want)
	}
}

// TestMergeQualityEqualsJointCounts: splitting a count table between
// partitions and merging gives bit-identical quality to the closed form
// over the partition-order sum — MergeCounts is the fold, QualityFromCounts
// the read-off, so the equality is exact, not approximate.
func TestMergeQualityEqualsJointCounts(t *testing.T) {
	p0 := map[string][2][2]float64{
		"good":   {{10.25, 0.5}, {0.125, 20.75}},
		"shared": {{5.5, 1.25}, {0.75, 7.875}},
	}
	p1 := map[string][2][2]float64{
		"shared": {{4.125, 2.5}, {1.5, 9.25}},
		"other":  {{8.875, 3.75}, {2.25, 11.5}},
	}
	merged, err := MergeQuality([]serve.PartitionQuality{pq(2, p0), pq(2, p1)})
	if err != nil {
		t.Fatal(err)
	}
	joint := shard.MergeCounts(nil, p0)
	joint = shard.MergeCounts(joint, p1)
	byName := make(map[string]int)
	for i, row := range merged {
		byName[row.Source] = i
	}
	if len(merged) != 3 {
		t.Fatalf("got %d sources, want 3: %+v", len(merged), merged)
	}
	for name, e := range joint {
		want := core.QualityFromCounts(name, e, testPriors)
		got := merged[byName[name]]
		if got != want {
			t.Fatalf("source %s: merged %+v != joint closed form %+v", name, got, want)
		}
	}
	// The shared source's cells really are sums, not either side's.
	wantShared := [2][2]float64{{5.5 + 4.125, 1.25 + 2.5}, {0.75 + 1.5, 7.875 + 9.25}}
	if joint["shared"] != wantShared {
		t.Fatalf("shared counts %v, want %v", joint["shared"], wantShared)
	}
}

func TestMergeQualityRejectsConfigDrift(t *testing.T) {
	c := map[string][2][2]float64{"s": {{1, 1}, {1, 1}}}
	bad := pq(1, c)
	bad.Priors.TP++
	if _, err := MergeQuality([]serve.PartitionQuality{pq(1, c), bad}); err == nil {
		t.Fatal("mismatched priors must not merge")
	}
	bad = pq(1, c)
	bad.Threshold = 0.7
	if _, err := MergeQuality([]serve.PartitionQuality{pq(1, c), bad}); err == nil {
		t.Fatal("mismatched thresholds must not merge")
	}
	if _, err := MergeQuality(nil); err == nil {
		t.Fatal("empty merge must fail")
	}
}

// TestStatsMergeRules enumerates EVERY /stats field with explicit merged
// expectations over two synthetic partitions, so each rule is asserted by
// value — a field silently switched to the wrong rule fails here.
func TestStatsMergeRules(t *testing.T) {
	p0 := map[string]any{
		"ready": true, "seq": 5.0, "mode": "full", "policy": "dirty",
		"pending": 2.0, "ingested_total": 100.0, "refits": 5.0,
		"full_refits": 2.0, "dirty_refits": 3.0, "last_refit_ms": 120.0,
		"freshness_ms": 40.0, "dirty_entities": 7.0, "uptime_s": 400.0,
		"encode_failures": 1.0, "entities": 30.0, "sources": 3.0,
		"facts": 90.0, "claims": 300.0, "positive_claims": 200.0,
		"negative_claims": 100.0, "labeled": 10.0,
		"storage": map[string]any{"resident_rows": 300.0, "disk_rows": 280.0, "segments": 4.0},
	}
	p1 := map[string]any{
		"ready": true, "seq": 7.0, "mode": "dirty", "policy": "dirty",
		"pending": 1.0, "ingested_total": 80.0, "refits": 7.0,
		"full_refits": 3.0, "dirty_refits": 4.0, "last_refit_ms": 90.0,
		"freshness_ms": 55.0, "dirty_entities": 2.0, "uptime_s": 350.0,
		"encode_failures": 0.0, "entities": 25.0, "sources": 3.0,
		"facts": 70.0, "claims": 250.0, "positive_claims": 180.0,
		"negative_claims": 70.0, "labeled": 8.0,
		"storage": map[string]any{"resident_rows": 250.0, "disk_rows": 0.0, "segments": 0.0},
	}
	merged, err := MergeStats([]map[string]any{p0, p1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"ready":           true,    // AND: every partition ready
		"seq":             5.0,     // MIN: the refit round all partitions reached
		"mode":            "mixed", // COMMON: partitions disagree
		"policy":          "dirty", // COMMON: partitions agree
		"pending":         3.0,     // SUM
		"ingested_total":  180.0,   // SUM
		"refits":          12.0,    // SUM
		"full_refits":     5.0,     // SUM
		"dirty_refits":    7.0,     // SUM
		"last_refit_ms":   120.0,   // MAX: slowest refit anywhere
		"freshness_ms":    55.0,    // MAX: worst staleness bound anywhere
		"dirty_entities":  9.0,     // SUM
		"uptime_s":        350.0,   // MIN: youngest member bounds cluster uptime
		"encode_failures": 1.0,     // SUM
		"entities":        55.0,    // SUM: entities are partition-disjoint
		"sources":         4.0,     // UNION: sources span partitions (supplied)
		"facts":           160.0,   // SUM
		"claims":          550.0,   // SUM
		"positive_claims": 380.0,   // SUM
		"negative_claims": 170.0,   // SUM
		"labeled":         18.0,    // SUM
		// STORAGE: every nested count sums across disjoint partitions.
		"storage": map[string]any{"resident_rows": 550.0, "disk_rows": 280.0, "segments": 4.0},
	}
	if !reflect.DeepEqual(merged, want) {
		for f, w := range want {
			if got, ok := merged[f]; !ok || !reflect.DeepEqual(got, w) {
				t.Errorf("field %q: merged %v, want %v", f, got, w)
			}
		}
		for f := range merged {
			if _, ok := want[f]; !ok {
				t.Errorf("unexpected merged field %q", f)
			}
		}
		t.FailNow()
	}

	// One partition not ready flips the cluster floor.
	p1["ready"] = false
	merged, err = MergeStats([]map[string]any{p0, p1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if merged["ready"] != false {
		t.Fatal("cluster must not be ready when any partition is not")
	}

	// Unknown sources union falls back to the per-partition max.
	delete(p1, "ready")
	p1["ready"] = true
	merged, err = MergeStats([]map[string]any{p0, p1}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if merged["sources"] != 3.0 {
		t.Fatalf("sources fallback %v, want max 3", merged["sources"])
	}
}

// TestStatsMergeRejectsUnknownField is the no-silent-default guard: a
// field serve starts emitting without a rule entry errors loudly.
func TestStatsMergeRejectsUnknownField(t *testing.T) {
	_, err := MergeStats([]map[string]any{{"brand_new_counter": 1.0}}, -1)
	if err == nil {
		t.Fatal("expected an error for a field with no merge rule")
	}
	if !strings.Contains(err.Error(), "brand_new_counter") {
		t.Fatalf("error should name the field: %v", err)
	}
}

// TestStatsMergeRejectsWrongTypes: rules are typed; a partition sending a
// mistyped field errors instead of being coerced.
func TestStatsMergeRejectsWrongTypes(t *testing.T) {
	for field, v := range map[string]any{
		"ready":  "yes",  // ruleAnd wants bool
		"mode":   1.0,    // ruleCommon wants string
		"claims": "many", // ruleSum wants number
		// ruleStorage wants an object of numbers only.
		"storage": map[string]any{"kind": "segments"},
	} {
		if _, err := MergeStats([]map[string]any{{field: v}}, -1); err == nil {
			t.Fatalf("field %q with %T value must error", field, v)
		}
	}
}
