package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"latenttruth/internal/model"
)

// Magic trails every segment file; a file without it is not a segment.
const Magic = "LTSEG001"

// formatVersion is bumped on any incompatible layout change.
const formatVersion = 1

// targetPageBytes bounds the encoded payload of one page. Pages are the
// unit of checksumming and of zone-map skipping inside a segment.
const targetPageBytes = 64 << 10

// trailerLen is the fixed-size tail: footerLen(4) + footerCRC(4) + magic(8).
const trailerLen = 16

// castagnoli is the CRC32C polynomial table shared with the WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Ref identifies a sealed segment inside a checkpoint manifest: enough to
// locate the file, cross-check its identity, and size recovery buffers
// without opening it.
type Ref struct {
	ID       uint64 `json:"id"`        // file name stem: seg-<ID>.seg
	Rows     int    `json:"rows"`      // row count
	FirstRow int    `json:"first_row"` // global index of the first covered row
	Bytes    int64  `json:"bytes"`     // file size
	CRC      uint32 `json:"crc"`       // footer CRC32C, pinned at seal time
}

// Filename returns the segment's file name within a segment directory.
func (r Ref) Filename() string { return fmt.Sprintf("seg-%08d.seg", r.ID) }

// pageMeta is one page's entry in the footer page index.
type pageMeta struct {
	Off       int64  `json:"off"`
	Len       int    `json:"len"`
	Rows      int    `json:"rows"`
	CRC       uint32 `json:"crc"`
	MinEntity string `json:"min_entity"`
	MaxEntity string `json:"max_entity"`
}

// footer is the JSON-encoded segment directory: identity, zone maps,
// bloom filters and the page index. JSON keeps sealed state debuggable
// with standard tools; the hot row bytes stay binary.
type footer struct {
	Format    int        `json:"format"`
	ID        uint64     `json:"id"`
	Rows      int        `json:"rows"`
	FirstRow  int        `json:"first_row"`
	MinEntity string     `json:"min_entity"`
	MaxEntity string     `json:"max_entity"`
	Pages     []pageMeta `json:"pages"`
	Entities  *Bloom     `json:"entity_bloom"`
	Sources   *Bloom     `json:"source_bloom"`
}

// indexedRow pairs a row with its global insertion index so entity-sorting
// for locality never loses the order the corpus was ingested in.
type indexedRow struct {
	global int
	row    model.Row
}

// Write seals rows (insertion order, global indices firstRow..firstRow+n-1)
// into an immutable segment file at dir/seg-<id>.seg and returns its Ref.
// Rows are stably re-sorted by entity name so each entity's claims form one
// contiguous run; pages are cut at ~64KiB with per-page CRC32C and entity
// zone entries. The file is written to a temp name, fsynced, and renamed
// into place — an orphan left by a crashed earlier seal of the same id is
// silently replaced, never appended to.
func Write(dir string, id uint64, firstRow int, rows []model.Row) (Ref, error) {
	if len(rows) == 0 {
		return Ref{}, fmt.Errorf("segment: refusing to seal empty segment %d", id)
	}
	// Stable re-sort by entity as a counting sort: number the distinct
	// entities, sort only their names, and place each row in its entity's
	// run in insertion order. Rows are never compared with each other, so
	// a seal costs O(rows + entities·log entities) string work.
	ord := make(map[string]int)
	var names []string
	rowEnt := make([]int, len(rows))
	for i, r := range rows {
		e, ok := ord[r.Entity]
		if !ok {
			e = len(names)
			ord[r.Entity] = e
			names = append(names, r.Entity)
		}
		rowEnt[i] = e
	}
	byName := make([]int, len(names))
	for e := range byName {
		byName[e] = e
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	runStart := make([]int, len(names))
	for _, e := range rowEnt {
		runStart[e]++
	}
	off := 0
	for _, e := range byName {
		off, runStart[e] = off+runStart[e], off
	}
	idx := make([]indexedRow, len(rows))
	for i, r := range rows {
		e := rowEnt[i]
		idx[runStart[e]] = indexedRow{global: firstRow + i, row: r}
		runStart[e]++
	}

	ft := footer{
		Format:    formatVersion,
		ID:        id,
		Rows:      len(rows),
		FirstRow:  firstRow,
		MinEntity: idx[0].row.Entity,
		MaxEntity: idx[len(idx)-1].row.Entity,
		Entities:  newBloom(len(names)),
	}
	for _, name := range names {
		ft.Entities.Add(name)
	}
	srcSet := make(map[string]struct{})
	for _, r := range rows {
		srcSet[r.Source] = struct{}{}
	}
	ft.Sources = newBloom(len(srcSet))
	for s := range srcSet {
		ft.Sources.Add(s)
	}

	var body []byte
	var page []byte
	var scratch [binary.MaxVarintLen64]byte
	pageStart := 0
	prevEntity := ""
	flush := func(endExclusive int) {
		if len(page) == 0 {
			return
		}
		ft.Pages = append(ft.Pages, pageMeta{
			Off:       int64(len(body)),
			Len:       len(page),
			Rows:      endExclusive - pageStart,
			CRC:       crc32.Checksum(page, castagnoli),
			MinEntity: idx[pageStart].row.Entity,
			MaxEntity: idx[endExclusive-1].row.Entity,
		})
		body = append(body, page...)
		page = page[:0]
		pageStart = endExclusive
		prevEntity = ""
	}
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		page = append(page, scratch[:n]...)
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		page = append(page, s...)
	}
	for i, ir := range idx {
		putUvarint(uint64(ir.global - firstRow))
		// A zero entity length means "same entity as the previous row of
		// this page" — legal because empty components are rejected at Add.
		if ir.row.Entity == prevEntity {
			putUvarint(0)
		} else {
			putString(ir.row.Entity)
			prevEntity = ir.row.Entity
		}
		putString(ir.row.Attribute)
		putString(ir.row.Source)
		if len(page) >= targetPageBytes {
			flush(i + 1)
		}
	}
	flush(len(idx))

	ftJSON, err := json.Marshal(ft)
	if err != nil {
		return Ref{}, fmt.Errorf("segment: encoding footer: %w", err)
	}
	ftCRC := crc32.Checksum(ftJSON, castagnoli)
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(ftJSON)))
	binary.LittleEndian.PutUint32(trailer[4:8], ftCRC)
	copy(trailer[8:], Magic)

	ref := Ref{
		ID:       id,
		Rows:     len(rows),
		FirstRow: firstRow,
		Bytes:    int64(len(body) + len(ftJSON) + trailerLen),
		CRC:      ftCRC,
	}

	if err := publish(dir, ref.Filename(), body, ftJSON, trailer[:]); err != nil {
		return Ref{}, err
	}
	return ref, nil
}

// publish writes parts as dir/name through a temp file that is fsynced
// and renamed into place (then the directory is synced), so a crash never
// leaves a partial segment under a valid name and an orphan of the same
// name is replaced, never appended to.
func publish(dir, name string, parts ...[]byte) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("segment: creating %s: %w", tmp, err)
	}
	for _, b := range parts {
		if _, err := f.Write(b); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("segment: writing %s: %w", tmp, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: publishing %s: %w", final, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Install places a segment image received verbatim from elsewhere (a
// replication primary) into dir and verifies it. The image's size and
// footer CRC are checked against ref before anything is written; the
// installed file is then opened, which CRC-checks every page and the
// footer identity, and removed again if that fails. On success the file
// is exactly what Write would have produced for ref.
func Install(dir string, ref Ref, data []byte) error {
	name := ref.Filename()
	if int64(len(data)) != ref.Bytes {
		return fmt.Errorf("segment: %s is %d bytes, manifest says %d", name, len(data), ref.Bytes)
	}
	_, crc, err := footerOf(data, name)
	if err != nil {
		return err
	}
	if crc != ref.CRC {
		return fmt.Errorf("segment: %s footer CRC %08x does not match manifest %08x", name, crc, ref.CRC)
	}
	if err := publish(dir, name, data); err != nil {
		return err
	}
	s, err := Open(dir, ref)
	if err != nil {
		os.Remove(filepath.Join(dir, name))
		return err
	}
	return s.Close()
}

// Segment is an open, fully verified segment. All reads go through the
// (possibly memory-mapped) file image; a Segment is immutable and safe for
// concurrent use.
type Segment struct {
	ref   Ref
	ft    footer
	data  []byte
	unmap func() error
}

// Open maps dir/seg-<id>.seg and verifies it completely: trailing magic,
// footer CRC, the Ref cross-check, and the CRC32C of every page. Any
// mismatch — flipped page bytes, a truncated footer, a missing file — is a
// loud error; a Segment that opens serves exactly the rows that were
// sealed, never a partial or silently corrupted view.
func Open(dir string, ref Ref) (*Segment, error) {
	path := filepath.Join(dir, ref.Filename())
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: stat %s: %w", path, err)
	}
	if ref.Bytes != 0 && st.Size() != ref.Bytes {
		f.Close()
		return nil, fmt.Errorf("segment: %s is %d bytes, manifest says %d", path, st.Size(), ref.Bytes)
	}
	data, unmap, err := mapFile(f, st.Size())
	f.Close() // the mapping (or copy) outlives the descriptor
	if err != nil {
		return nil, fmt.Errorf("segment: mapping %s: %w", path, err)
	}
	s := &Segment{ref: ref, data: data, unmap: unmap}
	if err := s.verify(path); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// footerOf checks a segment image's trailer (magic, footer bounds, footer
// CRC) and returns the footer bytes with their CRC.
func footerOf(data []byte, path string) ([]byte, uint32, error) {
	if len(data) < trailerLen {
		return nil, 0, fmt.Errorf("segment: %s truncated: %d bytes", path, len(data))
	}
	tr := data[len(data)-trailerLen:]
	if string(tr[8:]) != Magic {
		return nil, 0, fmt.Errorf("segment: %s has bad magic %q", path, tr[8:])
	}
	ftLen := int(binary.LittleEndian.Uint32(tr[0:4]))
	ftCRC := binary.LittleEndian.Uint32(tr[4:8])
	if ftLen <= 0 || ftLen > len(data)-trailerLen {
		return nil, 0, fmt.Errorf("segment: %s footer length %d out of bounds", path, ftLen)
	}
	ftStart := len(data) - trailerLen - ftLen
	ftJSON := data[ftStart : ftStart+ftLen]
	if got := crc32.Checksum(ftJSON, castagnoli); got != ftCRC {
		return nil, 0, fmt.Errorf("segment: %s footer CRC mismatch: got %08x want %08x", path, got, ftCRC)
	}
	return ftJSON, ftCRC, nil
}

func (s *Segment) verify(path string) error {
	ftJSON, ftCRC, err := footerOf(s.data, path)
	if err != nil {
		return err
	}
	ftStart := len(s.data) - trailerLen - len(ftJSON)
	if err := json.Unmarshal(ftJSON, &s.ft); err != nil {
		return fmt.Errorf("segment: %s footer does not parse: %w", path, err)
	}
	if s.ft.Format != formatVersion {
		return fmt.Errorf("segment: %s has format %d, want %d", path, s.ft.Format, formatVersion)
	}
	if s.ref.CRC != 0 && ftCRC != s.ref.CRC {
		return fmt.Errorf("segment: %s footer CRC %08x does not match manifest %08x", path, ftCRC, s.ref.CRC)
	}
	if s.ft.ID != s.ref.ID || s.ft.Rows != s.ref.Rows || s.ft.FirstRow != s.ref.FirstRow {
		return fmt.Errorf("segment: %s identity (id=%d rows=%d first=%d) does not match manifest (id=%d rows=%d first=%d)",
			path, s.ft.ID, s.ft.Rows, s.ft.FirstRow, s.ref.ID, s.ref.Rows, s.ref.FirstRow)
	}
	rows := 0
	for i, p := range s.ft.Pages {
		if p.Off < 0 || p.Len <= 0 || p.Off+int64(p.Len) > int64(ftStart) {
			return fmt.Errorf("segment: %s page %d extent [%d,+%d) out of bounds", path, i, p.Off, p.Len)
		}
		if got := crc32.Checksum(s.data[p.Off:p.Off+int64(p.Len)], castagnoli); got != p.CRC {
			return fmt.Errorf("segment: %s page %d CRC mismatch: got %08x want %08x", path, i, got, p.CRC)
		}
		rows += p.Rows
	}
	if rows != s.ft.Rows {
		return fmt.Errorf("segment: %s page index covers %d rows, footer says %d", path, rows, s.ft.Rows)
	}
	return nil
}

// Close releases the file mapping.
func (s *Segment) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	s.data = nil
	return u()
}

// Ref returns the segment's manifest reference.
func (s *Segment) Ref() Ref { return s.ref }

// Pages returns the number of pages in the segment.
func (s *Segment) Pages() int { return len(s.ft.Pages) }

// MayContainEntity reports whether the segment can hold rows of the named
// entity: the segment zone map prunes by name range, the bloom by
// membership. False is definitive.
func (s *Segment) MayContainEntity(name string) bool {
	if name < s.ft.MinEntity || name > s.ft.MaxEntity {
		return false
	}
	return s.ft.Entities.MayContain(name)
}

// MayContainSource reports whether the segment can hold rows by the named
// source. False is definitive.
func (s *Segment) MayContainSource(name string) bool {
	return s.ft.Sources.MayContain(name)
}

// OverlapsEntityRange reports whether the segment's entity zone map
// intersects [lo, hi]; an empty hi means unbounded above.
func (s *Segment) OverlapsEntityRange(lo, hi string) bool {
	if hi != "" && s.ft.MinEntity > hi {
		return false
	}
	return s.ft.MaxEntity >= lo
}

// decodePage decodes one page, calling fn for every row with its global
// index. Decode errors are reported, not panicked: CRC verification at
// open makes them unreachable short of a writer bug, but a reader must
// never trust length prefixes unchecked.
func (s *Segment) decodePage(p pageMeta, fn func(global int, r model.Row)) error {
	buf := s.data[p.Off : p.Off+int64(p.Len)]
	entity := ""
	readString := func() (string, error) {
		n, w := binary.Uvarint(buf)
		if w <= 0 || uint64(len(buf)-w) < n {
			return "", fmt.Errorf("segment: %d: corrupt string header in page", s.ref.ID)
		}
		str := string(buf[w : w+int(n)])
		buf = buf[w+int(n):]
		return str, nil
	}
	for i := 0; i < p.Rows; i++ {
		delta, w := binary.Uvarint(buf)
		if w <= 0 {
			return fmt.Errorf("segment: %d: corrupt row index in page", s.ref.ID)
		}
		buf = buf[w:]
		e, err := readString()
		if err != nil {
			return err
		}
		if e != "" {
			entity = e
		}
		a, err := readString()
		if err != nil {
			return err
		}
		src, err := readString()
		if err != nil {
			return err
		}
		fn(s.ft.FirstRow+int(delta), model.Row{Entity: entity, Attribute: a, Source: src})
	}
	return nil
}

// ScanEntities streams every row whose entity is in the probe set,
// skipping pages whose zone entry excludes all probes. It returns the
// number of pages actually decoded (the skipping telemetry the claim
// store aggregates).
func (s *Segment) ScanEntities(probe map[string]struct{}, fn func(model.Row)) (int, error) {
	decoded := 0
	for _, p := range s.ft.Pages {
		hit := false
		for e := range probe {
			if e >= p.MinEntity && e <= p.MaxEntity {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		decoded++
		if err := s.decodePage(p, func(_ int, r model.Row) {
			if _, ok := probe[r.Entity]; ok {
				fn(r)
			}
		}); err != nil {
			return decoded, err
		}
	}
	return decoded, nil
}

// ScanEntityRange streams every row whose entity name falls in [lo, hi]
// (empty hi = unbounded), skipping pages outside the range. Returns pages
// decoded.
func (s *Segment) ScanEntityRange(lo, hi string, fn func(model.Row)) (int, error) {
	decoded := 0
	for _, p := range s.ft.Pages {
		if (hi != "" && p.MinEntity > hi) || p.MaxEntity < lo {
			continue
		}
		decoded++
		if err := s.decodePage(p, func(_ int, r model.Row) {
			if r.Entity >= lo && (hi == "" || r.Entity <= hi) {
				fn(r)
			}
		}); err != nil {
			return decoded, err
		}
	}
	return decoded, nil
}

// ScanSource streams every row asserted by the named source. Pages carry
// no per-source zone entries (sources are scattered across entity runs),
// so a source scan that survives the segment bloom decodes all pages.
func (s *Segment) ScanSource(name string, fn func(model.Row)) (int, error) {
	decoded := 0
	for _, p := range s.ft.Pages {
		decoded++
		if err := s.decodePage(p, func(_ int, r model.Row) {
			if r.Source == name {
				fn(r)
			}
		}); err != nil {
			return decoded, err
		}
	}
	return decoded, nil
}

// ReadRows decodes the whole segment, placing each row at its global
// insertion index in dst. dst must cover [FirstRow, FirstRow+Rows); this
// is the recovery path that reconstructs exact RawDB order from
// entity-sorted storage.
func (s *Segment) ReadRows(dst []model.Row) error {
	for _, p := range s.ft.Pages {
		if err := s.decodePage(p, func(global int, r model.Row) {
			dst[global] = r
		}); err != nil {
			return err
		}
	}
	return nil
}
