package model

import (
	"fmt"
	"sort"
)

// Row is one record of the raw database DB (Definition 1): source c claims
// that entity e has attribute value a.
type Row struct {
	Entity    string
	Attribute string
	Source    string
}

// RawDB is the raw input database: an ordered, de-duplicated collection of
// rows. Each (entity, attribute, source) triple appears at most once, as
// required by Definition 1.
type RawDB struct {
	rows []Row
	seen map[Row]struct{}
}

// NewRawDB returns an empty raw database.
func NewRawDB() *RawDB {
	return &RawDB{seen: make(map[Row]struct{})}
}

// Add appends the triple (entity, attribute, source) if it is not already
// present, and reports whether it was inserted. Empty components are
// rejected with a panic since they always indicate a loader bug.
func (db *RawDB) Add(entity, attribute, source string) bool {
	if entity == "" || attribute == "" || source == "" {
		panic(fmt.Sprintf("model: empty component in triple (%q, %q, %q)", entity, attribute, source))
	}
	r := Row{Entity: entity, Attribute: attribute, Source: source}
	if _, ok := db.seen[r]; ok {
		return false
	}
	db.seen[r] = struct{}{}
	db.rows = append(db.rows, r)
	return true
}

// AddRow is Add for a Row value.
func (db *RawDB) AddRow(r Row) bool { return db.Add(r.Entity, r.Attribute, r.Source) }

// Len returns the number of distinct rows.
func (db *RawDB) Len() int { return len(db.rows) }

// Rows returns the rows in insertion order. The returned slice is shared;
// callers must not modify it.
func (db *RawDB) Rows() []Row { return db.rows }

// Fact is a distinct entity–attribute pair (Definition 2). ID is the
// fact's primary key: its index into Dataset.Facts.
type Fact struct {
	ID        int
	Entity    int // index into Dataset.Entities
	Attribute string
}

// Claim records that a source asserted (Observation true) or implicitly
// denied (Observation false) a fact (Definition 3).
type Claim struct {
	Fact        int  // index into Dataset.Facts
	Source      int  // index into Dataset.Sources
	Observation bool // true: positive claim; false: negative claim
}

// Dataset is the fully derived, indexed form of a raw database: the fact
// table, the claim table, and the access paths every inference method needs.
// Datasets are immutable once built.
type Dataset struct {
	Entities []string // entity id -> name
	Sources  []string // source id -> name
	Facts    []Fact
	Claims   []Claim

	// ClaimsByFact[f] lists indices into Claims of fact f's claims (C_f).
	ClaimsByFact [][]int
	// ClaimsBySource[s] lists indices into Claims of source s's claims.
	ClaimsBySource [][]int
	// FactsByEntity[e] lists fact ids of entity e.
	FactsByEntity [][]int

	// Labels holds ground truth for the labeled evaluation subset:
	// fact id -> true/false. Facts absent from Labels are unlabeled.
	Labels map[int]bool
}

// NumEntities returns the number of distinct entities.
func (d *Dataset) NumEntities() int { return len(d.Entities) }

// NumSources returns the number of distinct sources.
func (d *Dataset) NumSources() int { return len(d.Sources) }

// NumFacts returns the number of distinct facts.
func (d *Dataset) NumFacts() int { return len(d.Facts) }

// NumClaims returns the number of claims, positive and negative.
func (d *Dataset) NumClaims() int { return len(d.Claims) }

// NumPositiveClaims returns the number of positive claims.
func (d *Dataset) NumPositiveClaims() int {
	n := 0
	for _, c := range d.Claims {
		if c.Observation {
			n++
		}
	}
	return n
}

// EntityName returns the name of the fact's entity.
func (d *Dataset) EntityName(f Fact) string { return d.Entities[f.Entity] }

// SourceIndex returns the id of the named source, or -1 when absent.
func (d *Dataset) SourceIndex(name string) int {
	for i, s := range d.Sources {
		if s == name {
			return i
		}
	}
	return -1
}

// FactIndex returns the id of the fact with the given entity and attribute
// names, or -1 when absent.
func (d *Dataset) FactIndex(entity, attribute string) int {
	for _, f := range d.Facts {
		if f.Attribute == attribute && d.Entities[f.Entity] == entity {
			return f.ID
		}
	}
	return -1
}

// LabeledFacts returns the ids of labeled facts in ascending order.
func (d *Dataset) LabeledFacts() []int {
	ids := make([]int, 0, len(d.Labels))
	for id := range d.Labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Build derives the Dataset from a raw database following Definitions 2–3:
//
//  1. facts are the distinct (entity, attribute) pairs, in first-appearance
//     order;
//  2. for each fact f and each source s that asserted f, a positive claim
//     (f, s, true) is emitted;
//  3. for each source s that did not assert f but asserted some other fact
//     of f's entity, a negative claim (f, s, false) is emitted;
//  4. sources unrelated to f's entity make no claim on f.
//
// Claim order is deterministic: facts in id order, and for each fact its
// claiming sources in source-id order.
func Build(db *RawDB) *Dataset { return BuildRows(db.Rows()) }

// BuildRows is Build over a bare row slice, for stores that hold rows
// outside a RawDB. Rows must be duplicate-free and in insertion order:
// ids are assigned by first appearance, so the same rows in the same order
// always derive the identical dataset regardless of where they were held.
func BuildRows(rows []Row) *Dataset {
	d := &Dataset{Labels: make(map[int]bool)}

	entityID := make(map[string]int)
	sourceID := make(map[string]int)
	factID := make(map[[2]string]int) // (entity, attribute) -> fact id

	// positives[f] is the set of sources with a positive claim on fact f.
	var positives []map[int]struct{}
	// entitySources[e] is the set of sources that asserted any fact of e.
	var entitySources []map[int]struct{}

	for _, r := range rows {
		e, ok := entityID[r.Entity]
		if !ok {
			e = len(d.Entities)
			entityID[r.Entity] = e
			d.Entities = append(d.Entities, r.Entity)
			d.FactsByEntity = append(d.FactsByEntity, nil)
			entitySources = append(entitySources, make(map[int]struct{}))
		}
		s, ok := sourceID[r.Source]
		if !ok {
			s = len(d.Sources)
			sourceID[r.Source] = s
			d.Sources = append(d.Sources, r.Source)
		}
		key := [2]string{r.Entity, r.Attribute}
		f, ok := factID[key]
		if !ok {
			f = len(d.Facts)
			factID[key] = f
			d.Facts = append(d.Facts, Fact{ID: f, Entity: e, Attribute: r.Attribute})
			d.FactsByEntity[e] = append(d.FactsByEntity[e], f)
			positives = append(positives, make(map[int]struct{}))
		}
		positives[f][s] = struct{}{}
		entitySources[e][s] = struct{}{}
	}

	// Emit claims in deterministic order.
	for f := range d.Facts {
		e := d.Facts[f].Entity
		srcs := make([]int, 0, len(entitySources[e]))
		for s := range entitySources[e] {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		for _, s := range srcs {
			_, pos := positives[f][s]
			d.Claims = append(d.Claims, Claim{Fact: f, Source: s, Observation: pos})
		}
	}
	d.reindex()
	return d
}

// reindex rebuilds ClaimsByFact and ClaimsBySource from Claims.
func (d *Dataset) reindex() {
	d.ClaimsByFact = make([][]int, len(d.Facts))
	d.ClaimsBySource = make([][]int, len(d.Sources))
	for i, c := range d.Claims {
		d.ClaimsByFact[c.Fact] = append(d.ClaimsByFact[c.Fact], i)
		d.ClaimsBySource[c.Source] = append(d.ClaimsBySource[c.Source], i)
	}
}

// ValidateBasic checks the invariants every dataset must satisfy
// regardless of origin: index bounds, fact-id density, at most one claim
// per fact–source pair, and label references. Synthetic claim tables that
// do not come from a raw database (e.g. the dense §6.1.1 dataset, where a
// fact may receive only negative claims) satisfy ValidateBasic but not the
// stricter Validate.
func (d *Dataset) ValidateBasic() error {
	for i, f := range d.Facts {
		if f.ID != i {
			return fmt.Errorf("model: fact %d has id %d", i, f.ID)
		}
		if f.Entity < 0 || f.Entity >= len(d.Entities) {
			return fmt.Errorf("model: fact %d references entity %d of %d", i, f.Entity, len(d.Entities))
		}
	}
	type pair struct{ f, s int }
	seen := make(map[pair]struct{}, len(d.Claims))
	for i, c := range d.Claims {
		if c.Fact < 0 || c.Fact >= len(d.Facts) {
			return fmt.Errorf("model: claim %d references fact %d of %d", i, c.Fact, len(d.Facts))
		}
		if c.Source < 0 || c.Source >= len(d.Sources) {
			return fmt.Errorf("model: claim %d references source %d of %d", i, c.Source, len(d.Sources))
		}
		p := pair{c.Fact, c.Source}
		if _, dup := seen[p]; dup {
			return fmt.Errorf("model: duplicate claim for fact %d source %d", c.Fact, c.Source)
		}
		seen[p] = struct{}{}
	}
	for id := range d.Labels {
		if id < 0 || id >= len(d.Facts) {
			return fmt.Errorf("model: label references fact %d of %d", id, len(d.Facts))
		}
	}
	return nil
}

// Validate checks the structural invariants of a dataset derived from a
// raw database (Definitions 2–3): everything ValidateBasic checks, plus
// at least one positive claim per fact and a claim from every source
// covering the fact's entity. It returns the first violation found.
func (d *Dataset) Validate() error {
	if err := d.ValidateBasic(); err != nil {
		return err
	}
	hasPositive := make([]bool, len(d.Facts))
	for _, c := range d.Claims {
		if c.Observation {
			hasPositive[c.Fact] = true
		}
	}
	for f, ok := range hasPositive {
		if !ok {
			return fmt.Errorf("model: fact %d has no positive claim", f)
		}
	}
	// Every source claiming any fact of an entity must claim all its facts.
	for e, facts := range d.FactsByEntity {
		cover := make(map[int]struct{})
		for _, f := range facts {
			for _, ci := range d.ClaimsByFact[f] {
				cover[d.Claims[ci].Source] = struct{}{}
			}
		}
		for _, f := range facts {
			if len(d.ClaimsByFact[f]) != len(cover) {
				return fmt.Errorf("model: entity %d fact %d has %d claims, %d covering sources",
					e, f, len(d.ClaimsByFact[f]), len(cover))
			}
		}
	}
	return nil
}
