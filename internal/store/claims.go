package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"latenttruth/internal/model"
	"latenttruth/internal/segment"
)

// Claims is the claim store the serving layer programs against: an
// append-only, duplicate-free raw-claim store with an insertion-order row
// view (the substrate every dataset build derives ids from) and a
// lock-free point-in-time View for scoped scans.
//
// Rows always live on the heap — the model is heap-resident regardless.
// A store with a directory also seals them into immutable on-disk segments
// (package internal/segment) at checkpoint time: each Seal covers only the
// rows appended since the previous one, so checkpoint cost is O(new rows),
// recovery reopens segments instead of re-parsing history, and scoped
// scans consult zone maps and blooms to skip whole segments and pages. A
// store without a directory never seals; its scans walk the heap rows.
// Either way, AddRow in the same order yields the same Rows() sequence.
type Claims struct {
	mu   sync.Mutex
	db   *model.RawDB
	dir  string
	view atomic.Pointer[View]
}

// View is an immutable snapshot of a store's rows supporting the scoped
// scans refits and claim queries need. The rows slice's backing array is
// never mutated below its length; rows[:sealed] are covered by segs.
// Scans pass over each matching row exactly once, in an unspecified order.
type View struct {
	rows   []model.Row
	segs   []*segment.Segment
	sealed int
	bytes  int64
	stats  *scanStats
}

// StorageStats reports a store's shape and skipping telemetry, split by
// residency: Resident counts heap rows, OnDisk counts rows covered by
// sealed segments (zero for a store without a directory).
type StorageStats struct {
	Resident     int   `json:"resident_rows"`
	OnDisk       int   `json:"disk_rows"`
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	// SegmentsScanned counts scan legs that had to open a segment;
	// SegmentsSkipped counts legs pruned by zone map or bloom without any
	// I/O; PagesScanned counts pages decoded inside scanned segments.
	SegmentsScanned uint64 `json:"segments_scanned"`
	SegmentsSkipped uint64 `json:"segments_skipped"`
	PagesScanned    uint64 `json:"pages_scanned"`
}

// scanStats aggregates skipping telemetry across all views of a store.
type scanStats struct {
	scanned atomic.Uint64
	skipped atomic.Uint64
	pages   atomic.Uint64
}

// New returns an empty store sealing into dir, which must exist. An empty
// dir gives the directory-less store, which never seals.
func New(dir string) *Claims {
	return Open(dir, nil, model.NewRawDB())
}

// Open adopts recovered state: db holds the full row set (segment rows
// plus any replayed tail) and segs the open, verified segments covering a
// contiguous prefix of it, in order — the shape wal.Recover returns, which
// has already checked coverage, duplicates and every CRC.
func Open(dir string, segs []*segment.Segment, db *model.RawDB) *Claims {
	c := &Claims{db: db, dir: dir}
	v := &View{rows: db.Rows(), segs: segs, stats: &scanStats{}}
	for _, s := range segs {
		v.sealed += s.Ref().Rows
		v.bytes += s.Ref().Bytes
	}
	c.view.Store(v)
	return c
}

// publish refreshes the lock-free view; callers hold c.mu.
func (c *Claims) publish(segs []*segment.Segment, sealed int, bytes int64) {
	c.view.Store(&View{rows: c.db.Rows(), segs: segs, sealed: sealed, bytes: bytes, stats: c.view.Load().stats})
}

// AddRow appends the triple if it is not already present and reports
// whether it was inserted.
func (c *Claims) AddRow(r model.Row) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.db.AddRow(r) {
		return false
	}
	v := c.view.Load()
	c.publish(v.segs, v.sealed, v.bytes)
	return true
}

// Len returns the number of distinct rows.
func (c *Claims) Len() int { return len(c.view.Load().rows) }

// Rows returns all rows in insertion order; the slice is shared and must
// not be modified.
func (c *Claims) Rows() []model.Row { return c.view.Load().rows }

// Reader returns an immutable point-in-time view. It never blocks on
// writers and is safe to use while AddRow and Seal proceed.
func (c *Claims) Reader() *View { return c.view.Load() }

// Stats reports storage-shape counters. It is lock-free and safe to call
// from metrics scrapes at any time.
func (c *Claims) Stats() StorageStats {
	v := c.view.Load()
	return StorageStats{
		Resident:        len(v.rows),
		OnDisk:          v.sealed,
		Segments:        len(v.segs),
		SegmentBytes:    v.bytes,
		SegmentsScanned: v.stats.scanned.Load(),
		SegmentsSkipped: v.stats.skipped.Load(),
		PagesScanned:    v.stats.pages.Load(),
	}
}

// Seal freezes every row appended since the previous seal into one new
// immutable segment with the given id and returns the full ref list for
// the checkpoint manifest (unchanged when no rows arrived since the last
// seal). Ids must be unique per live segment; a leftover file from a
// crashed earlier seal of the same id is replaced.
func (c *Claims) Seal(id uint64) ([]segment.Ref, error) {
	if c.dir == "" {
		return nil, fmt.Errorf("store: sealing requires a directory")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view.Load()
	if rows := c.db.Rows(); v.sealed < len(rows) {
		ref, err := segment.Write(c.dir, id, v.sealed, rows[v.sealed:])
		if err != nil {
			return nil, err
		}
		s, err := segment.Open(c.dir, ref)
		if err != nil {
			return nil, fmt.Errorf("store: reopening just-sealed segment: %w", err)
		}
		// Copy-on-append so published views keep their shorter slices.
		segs := append(v.segs[:len(v.segs):len(v.segs)], s)
		c.publish(segs, len(rows), v.bytes+ref.Bytes)
		v = c.view.Load()
	}
	refs := make([]segment.Ref, len(v.segs))
	for i, s := range v.segs {
		refs[i] = s.Ref()
	}
	return refs, nil
}

// Close releases all open segment mappings. Views taken earlier must not
// be scanned afterwards.
func (c *Claims) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view.Load()
	var first error
	for _, s := range v.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.view.Store(&View{rows: v.rows, stats: v.stats})
	return first
}

// Rows returns the view's rows in insertion order.
func (v *View) Rows() []model.Row { return v.rows }

// ScanEntities streams rows whose entity is in probe: the sealed prefix
// via segments (skipping those whose zone map or bloom excludes every
// probe), the unsealed tail linearly from the heap.
func (v *View) ScanEntities(probe map[string]struct{}, fn func(model.Row)) error {
	for _, s := range v.segs {
		hit := false
		for e := range probe {
			if s.MayContainEntity(e) {
				hit = true
				break
			}
		}
		if !hit {
			v.stats.skipped.Add(1)
			continue
		}
		v.stats.scanned.Add(1)
		pages, err := s.ScanEntities(probe, fn)
		v.stats.pages.Add(uint64(pages))
		if err != nil {
			return err
		}
	}
	for _, r := range v.rows[v.sealed:] {
		if _, ok := probe[r.Entity]; ok {
			fn(r)
		}
	}
	return nil
}

// ScanEntityRange streams rows with lo <= entity <= hi (empty hi =
// unbounded above), skipping segments whose zone map lies outside the
// range.
func (v *View) ScanEntityRange(lo, hi string, fn func(model.Row)) error {
	for _, s := range v.segs {
		if !s.OverlapsEntityRange(lo, hi) {
			v.stats.skipped.Add(1)
			continue
		}
		v.stats.scanned.Add(1)
		pages, err := s.ScanEntityRange(lo, hi, fn)
		v.stats.pages.Add(uint64(pages))
		if err != nil {
			return err
		}
	}
	for _, r := range v.rows[v.sealed:] {
		if r.Entity >= lo && (hi == "" || r.Entity <= hi) {
			fn(r)
		}
	}
	return nil
}

// ScanSource streams rows asserted by the named source, skipping segments
// whose source bloom excludes it.
func (v *View) ScanSource(name string, fn func(model.Row)) error {
	for _, s := range v.segs {
		if !s.MayContainSource(name) {
			v.stats.skipped.Add(1)
			continue
		}
		v.stats.scanned.Add(1)
		pages, err := s.ScanSource(name, fn)
		v.stats.pages.Add(uint64(pages))
		if err != nil {
			return err
		}
	}
	for _, r := range v.rows[v.sealed:] {
		if r.Source == name {
			fn(r)
		}
	}
	return nil
}
