package main

import (
	"bytes"
	"fmt"

	lt "latenttruth"
)

// corpusClaims is the size every workload's corpus is generated at.
const corpusClaims = 1_000_000

// corpus is a workload's input, generated from its seed. The system
// under test only ever receives the triples; the labels and the entity
// list stay on the benchmark's side for checks and load generation.
type corpus struct {
	triplesCSV []byte
	labelsCSV  []byte
	rows       []lt.Row // released once the servers are set up
	nRows      int
	entities   []string
	sources    []string
	facts      int
	// labels maps entity → attribute → truth for the labeled facts.
	labels map[string]map[string]bool
	nLabel int
}

// genCorpus builds the ScaleCorpus of a seed: its positive claims are
// the triples the system receives. With csv set it also renders them,
// and the labels, as the CSV a truthfind user would hold.
func genCorpus(seed int64, csv bool) (*corpus, error) {
	ds, err := lt.ScaleCorpus(lt.ScaleSpec{Claims: corpusClaims, Seed: seed})
	if err != nil {
		return nil, err
	}
	c := &corpus{
		entities: append([]string(nil), ds.Entities...),
		sources:  append([]string(nil), ds.Sources...),
		facts:    ds.NumFacts(),
		labels:   map[string]map[string]bool{},
	}
	// Every (fact, source) pair has at most one claim, so the rows are
	// distinct without de-duplication.
	for _, cl := range ds.Claims {
		if cl.Observation {
			f := ds.Facts[cl.Fact]
			c.rows = append(c.rows, lt.Row{Entity: ds.Entities[f.Entity], Attribute: f.Attribute, Source: ds.Sources[cl.Source]})
		}
	}
	c.nRows = len(c.rows)
	for f, truth := range ds.Labels {
		e := ds.Entities[ds.Facts[f].Entity]
		if c.labels[e] == nil {
			c.labels[e] = map[string]bool{}
		}
		c.labels[e][ds.Facts[f].Attribute] = truth
		c.nLabel++
	}
	if csv {
		var tb, lb bytes.Buffer
		if err := lt.WriteTriplesRows(&tb, c.rows); err != nil {
			return nil, fmt.Errorf("writing triples: %w", err)
		}
		if err := lt.WriteLabels(&lb, ds); err != nil {
			return nil, fmt.Errorf("writing labels: %w", err)
		}
		c.triplesCSV, c.labelsCSV = tb.Bytes(), lb.Bytes()
	}
	return c, nil
}

// accuracy scores served truth against the labels: the share of labeled
// facts whose thresholded decision matches. lookup returns the served
// decisions of one entity's facts by attribute.
func (c *corpus) accuracy(lookup func(entity string) (map[string]bool, error)) (float64, error) {
	right := 0
	for e, attrs := range c.labels {
		got, err := lookup(e)
		if err != nil {
			return 0, err
		}
		for a, truth := range attrs {
			p, ok := got[a]
			if !ok {
				return 0, fmt.Errorf("labeled fact (%s, %s) is not served", e, a)
			}
			if p == truth {
				right++
			}
		}
	}
	return float64(right) / float64(c.nLabel), nil
}

// snapshotDecisions reads one entity's decisions from a snapshot.
func snapshotDecisions(sn *lt.TruthSnapshot, entity string) (map[string]bool, error) {
	rows, err := lt.QueryTruth(sn, lt.TruthQueryOptions{Entity: entity})
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for {
		r, ok := rows.Next()
		if !ok {
			return out, nil
		}
		out[r.Attribute] = r.Predicted
	}
}
