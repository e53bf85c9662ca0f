package cluster

import (
	"fmt"
	"sort"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/serve"
	"latenttruth/internal/shard"
)

// MergeQuality folds the partitions' per-source expected confusion counts
// (their GET /partition/quality payloads, in partition order) into one
// global count table and reads the merged quality off the shared closed
// form — the cluster-level reconcile barrier of internal/shard, applied
// once at read time instead of every S sweeps.
//
// The sum is exact in the partition structure: every claim lives in
// exactly one partition, so no cell is counted twice, and summing in
// fixed partition order makes the float accumulation deterministic. The
// returned rows are in Table 8 order (decreasing sensitivity), matching
// a single server's /quality; for a single contributing partition the
// rows are bit-identical to that partition's own /quality table.
//
// All partitions must agree on priors and threshold — a mismatch means
// the cluster is misconfigured (the merged counts would mix incompatible
// Beta bases), and the merge fails loudly instead of averaging it away.
func MergeQuality(parts []serve.PartitionQuality) ([]model.SourceQuality, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("cluster: no partition quality to merge")
	}
	base := parts[0]
	for i, p := range parts[1:] {
		if p.Priors != base.Priors {
			return nil, fmt.Errorf("cluster: partition %d priors %+v != partition 0 priors %+v",
				i+1, p.Priors, base.Priors)
		}
		if p.Threshold != base.Threshold {
			return nil, fmt.Errorf("cluster: partition %d threshold %v != partition 0 threshold %v",
				i+1, p.Threshold, base.Threshold)
		}
	}
	var global map[string][2][2]float64
	for _, p := range parts {
		global = shard.MergeCounts(global, p.Counts)
	}
	names := make([]string, 0, len(global))
	for name := range global {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]model.SourceQuality, 0, len(names))
	for _, name := range names {
		rows = append(rows, core.QualityFromCounts(name, global[name], base.Priors))
	}
	return core.RankedQuality(rows), nil
}

// mergeRule is how one /stats field combines across partitions.
type mergeRule int

const (
	// ruleSum adds the partitions' values: additive counters and corpus
	// sizes, valid because partitions are disjoint in entities/claims.
	ruleSum mergeRule = iota
	// ruleMin takes the minimum: cluster-wide floors, e.g. seq (the refit
	// round every partition has reached) and uptime (the youngest member
	// bounds how long the whole cluster has been continuously up).
	ruleMin
	// ruleMax takes the maximum: cluster-wide staleness/latency bounds,
	// e.g. freshness_ms (the worst ingest-to-publish wait anywhere is the
	// bound a cluster client must assume) and last_refit_ms.
	ruleMax
	// ruleAnd ANDs booleans: the cluster is ready iff every partition is.
	ruleAnd
	// ruleCommon keeps the value when all partitions agree and reports
	// "mixed" otherwise (policies can legitimately differ transiently,
	// e.g. one partition's last refit took the dirty path).
	ruleCommon
	// ruleSources is the per-source cardinality: sources span partitions,
	// so the merged value is the size of the union of source names (from
	// the merged quality counts), which the caller supplies — a sum would
	// double-count every source claiming in more than one partition.
	ruleSources
	// ruleStorage merges the nested storage object field by field: every
	// field is a row, segment, byte or skip count, all additive across
	// disjoint partitions.
	ruleStorage
)

// statsMergeRules assigns every /stats field its merge rule. MergeStats
// fails loudly on a field absent from this table, so adding a field to
// serve's statsResponse without deciding its cluster merge semantics is
// an error surfaced by the first routed /stats call (and by the rule
// coverage test), never a silently wrong default.
var statsMergeRules = map[string]mergeRule{
	"ready":           ruleAnd,
	"seq":             ruleMin,
	"mode":            ruleCommon,
	"policy":          ruleCommon,
	"pending":         ruleSum,
	"ingested_total":  ruleSum,
	"refits":          ruleSum,
	"full_refits":     ruleSum,
	"dirty_refits":    ruleSum,
	"last_refit_ms":   ruleMax,
	"freshness_ms":    ruleMax,
	"dirty_entities":  ruleSum,
	"uptime_s":        ruleMin,
	"encode_failures": ruleSum,
	// A healthy cluster runs one build; "mixed" flags a rolling deploy.
	"version":         ruleCommon,
	"commit":          ruleCommon,
	"entities":        ruleSum,
	"sources":         ruleSources,
	"facts":           ruleSum,
	"claims":          ruleSum,
	"positive_claims": ruleSum,
	"negative_claims": ruleSum,
	"labeled":         ruleSum,
	"storage":         ruleStorage,
}

// MergeStats combines the partitions' decoded /stats payloads field by
// field per statsMergeRules. sources is the size of the merged source-name
// union (from MergeQuality's input), or -1 when unknown — then the field
// falls back to the per-partition maximum, a documented lower bound.
// A field with no rule is an error: new /stats fields must pick a rule.
func MergeStats(parts []map[string]any, sources int) (map[string]any, error) {
	out := make(map[string]any)
	for pi, part := range parts {
		for field, v := range part {
			rule, ok := statsMergeRules[field]
			if !ok {
				return nil, fmt.Errorf("cluster: no merge rule for /stats field %q (add one to statsMergeRules)", field)
			}
			prev, seen := out[field]
			switch rule {
			case ruleAnd:
				b, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("cluster: /stats field %q: partition %d sent %T, want bool", field, pi, v)
				}
				if !seen {
					out[field] = b
				} else {
					out[field] = prev.(bool) && b
				}
			case ruleCommon:
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("cluster: /stats field %q: partition %d sent %T, want string", field, pi, v)
				}
				if !seen {
					out[field] = s
				} else if prev.(string) != s {
					out[field] = "mixed"
				}
			case ruleStorage:
				m, ok := v.(map[string]any)
				if !ok {
					return nil, fmt.Errorf("cluster: /stats field %q: partition %d sent %T, want object", field, pi, v)
				}
				var acc map[string]any
				if !seen {
					acc = make(map[string]any, len(m))
					out[field] = acc
				} else {
					acc = prev.(map[string]any)
				}
				for k, sv := range m {
					val, ok := sv.(float64)
					if !ok {
						return nil, fmt.Errorf("cluster: /stats storage field %q: partition %d sent %T, want number", k, pi, sv)
					}
					cur, _ := acc[k].(float64)
					acc[k] = cur + val
				}
			default:
				f, ok := v.(float64)
				if !ok {
					return nil, fmt.Errorf("cluster: /stats field %q: partition %d sent %T, want number", field, pi, v)
				}
				switch {
				case !seen:
					out[field] = f
				case rule == ruleMin && f < prev.(float64):
					out[field] = f
				case rule == ruleMax || rule == ruleSources:
					if f > prev.(float64) {
						out[field] = f
					}
				case rule == ruleSum:
					out[field] = prev.(float64) + f
				}
			}
		}
	}
	if sources >= 0 {
		out["sources"] = float64(sources)
	}
	return out, nil
}

// StatsMergeRuleNames returns the fields covered by the merge rule table,
// for the coverage test that pins the table to serve's statsResponse.
func StatsMergeRuleNames() []string {
	names := make([]string, 0, len(statsMergeRules))
	for f := range statsMergeRules {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}
