package query

import (
	"fmt"
	"sort"
	"strings"

	"latenttruth/internal/model"
	"latenttruth/internal/store"
)

// ClaimsOptions selects raw claims from a storage reader. Entity and
// Prefix are mutually exclusive; Source composes with either (or stands
// alone). A zero options value selects everything.
type ClaimsOptions struct {
	// Entity selects claims about exactly this entity.
	Entity string
	// Prefix selects claims about entities with this name prefix.
	Prefix string
	// Source selects claims asserted by this source.
	Source string
	// Limit caps the number of returned rows (0 = unlimited).
	Limit int
}

// ScanClaims executes a raw-claims query against rd with predicate
// pushdown: an entity filter becomes a point scan, a prefix filter
// becomes a range scan bounded by PrefixUpper, and a bare source filter
// becomes a source scan — over sealed rows each of those consults the
// per-segment zone maps and bloom filters, so segments (and pages) that
// cannot contain a match are never read. Results are returned in
// (entity, attribute, source) order, which is a total order over the
// de-duplicated corpus and therefore independent of how much of it is
// sealed and of the physical scan order.
func ScanClaims(rd *store.View, opts ClaimsOptions) ([]model.Row, error) {
	if opts.Entity != "" && opts.Prefix != "" {
		return nil, fmt.Errorf("query: entity and prefix are mutually exclusive")
	}
	if opts.Limit < 0 {
		return nil, fmt.Errorf("query: negative limit %d", opts.Limit)
	}
	var out []model.Row
	collect := func(r model.Row) {
		if opts.Source != "" && r.Source != opts.Source {
			return
		}
		out = append(out, r)
	}
	var err error
	switch {
	case opts.Entity != "":
		err = rd.ScanEntities(map[string]struct{}{opts.Entity: {}}, collect)
	case opts.Prefix != "":
		// The range scan over-approximates (its upper bound is a whole
		// string, not a prefix language), so the exact prefix test stays.
		err = rd.ScanEntityRange(opts.Prefix, PrefixUpper(opts.Prefix), func(r model.Row) {
			if strings.HasPrefix(r.Entity, opts.Prefix) {
				collect(r)
			}
		})
	case opts.Source != "":
		err = rd.ScanSource(opts.Source, func(r model.Row) { out = append(out, r) })
	default:
		for _, r := range rd.Rows() {
			collect(r)
		}
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		if a.Attribute != b.Attribute {
			return a.Attribute < b.Attribute
		}
		return a.Source < b.Source
	})
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out, nil
}

// PrefixUpper returns the smallest string greater than every string with
// the given prefix, for use as an inclusive range upper bound: the prefix
// with its last non-0xff byte incremented (and the bytes after it
// dropped). An all-0xff prefix has no such bound and returns "", which
// ScanEntityRange treats as unbounded above.
func PrefixUpper(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}
