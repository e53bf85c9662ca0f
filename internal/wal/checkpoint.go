package wal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"latenttruth/internal/dataset"
	"latenttruth/internal/model"
	claimseg "latenttruth/internal/segment"
)

// Checkpoint file layout: one directory per checkpoint,
//
//	checkpoints/chk-<seq>/quality.csv   accumulated source quality
//	checkpoints/chk-<seq>/posterior.csv published per-fact posterior
//	checkpoints/chk-<seq>/MANIFEST.json metadata, per-file CRCs and the
//	                                    segment refs covering the corpus
//
// written under a ".tmp-" name, fsynced, and renamed into place, so a
// crash can never leave a half-written checkpoint under a valid name. The
// corpus itself lives in the immutable segment files the manifest lists
// (segments/seg-<id>.seg beside the log): segments are append-only across
// checkpoints, so each checkpoint seals only the rows ingested since the
// previous one.
//
// quality.csv is for operators and offline tooling (dataset.ReadQuality):
// recovery itself restores the accumulator from the manifest's policy
// state, which carries the counts at full float64 precision where the CSV
// rounds to 6 decimals. posterior.csv (optional; present when the serving
// layer checkpoints a published snapshot) carries the per-fact posterior
// at full precision so recovery and followers can reconstruct the previous
// snapshot exactly — what makes a replayed dirty refit bit-identical to
// the original.
//
// Data directories written before segments became the only format hold a
// cumulative triples.csv in each checkpoint instead of segment refs.
// Recovery still reads those (CRC-checked) once, to migrate them; nothing
// writes the file any more.
const (
	manifestName   = "MANIFEST.json"
	triplesName    = "triples.csv"
	qualityName    = "quality.csv"
	posteriorName  = "posterior.csv"
	chkPrefix      = "chk-"
	chkTmpPrefix   = ".tmp-"
	manifestFormat = 1
)

// PosteriorName is the file name of the optional posterior part, exported
// for transports that ship checkpoint directories file-by-file.
const PosteriorName = posteriorName

// Manifest ties a checkpoint's files to the log position and serving state
// they capture. Policy is opaque to this package: the serving layer stores
// whatever it needs to resume its refit policy bit-identically (for LTM,
// the accumulated per-source confusion counts and resolved priors).
type Manifest struct {
	Format int `json:"format"`
	// Seq is the snapshot sequence number the checkpoint captures.
	Seq int64 `json:"seq"`
	// WALSeq is the newest log record folded into the checkpoint: recovery
	// replays records with sequence numbers strictly above it.
	WALSeq uint64 `json:"wal_seq"`
	// ConfigHash fingerprints the serving configuration that produced the
	// state; a mismatch on recovery means the policy state is not safely
	// reusable (the triples always are).
	ConfigHash string `json:"config_hash,omitempty"`
	// Refits / FullRefits / DirtyRefits / IngestedTotal restore the
	// server's counters.
	Refits        int64 `json:"refits"`
	FullRefits    int64 `json:"full_refits"`
	DirtyRefits   int64 `json:"dirty_refits,omitempty"`
	IngestedTotal int64 `json:"ingested_total"`
	// QualityCRC is the CRC32C checksum of quality.csv.
	QualityCRC uint32 `json:"quality_crc"`
	// TriplesCRC is the CRC32C of a legacy checkpoint's triples.csv; zero
	// in every checkpoint written since segments became the only format.
	TriplesCRC uint32 `json:"triples_crc,omitempty"`
	// PosteriorCRC is the CRC32C of the optional posterior.csv; zero means
	// the checkpoint carries no posterior (written before snapshot
	// restoration existed, or the serving layer had nothing published).
	PosteriorCRC uint32 `json:"posterior_crc,omitempty"`
	// Mode is the refit policy that produced the checkpointed snapshot and
	// DirtyEntities its dirty fast-path sweep size — together the dirty-set
	// watermark recovery reports for a restored partial refit.
	Mode          string `json:"mode,omitempty"`
	DirtyEntities int    `json:"dirty_entities,omitempty"`
	// CreatedAt records when the checkpoint was written.
	CreatedAt time.Time `json:"created_at"`
	// Policy is the serving layer's opaque refit-policy state.
	Policy json.RawMessage `json:"policy_state,omitempty"`
	// Segments lists the immutable on-disk segments covering the corpus,
	// contiguously from row 0, in order.
	Segments []claimseg.Ref `json:"segments,omitempty"`
}

// Store manages a directory of checkpoints.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a checkpoint directory and clears
// leftover temporary directories from interrupted writes.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), chkTmpPrefix) {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("wal: clearing stale checkpoint temp: %w", err)
			}
		}
	}
	return &Store{dir: dir}, nil
}

// Checkpoint is one on-disk checkpoint with its parsed manifest.
type Checkpoint struct {
	Dir      string
	Manifest Manifest
}

// checkpointDirName returns the directory name for a snapshot sequence.
func checkpointDirName(seq int64) string {
	return fmt.Sprintf("%s%016d", chkPrefix, seq)
}

// Write persists a checkpoint: quality and (optionally) the posterior are
// produced by the given writers (CRCs are computed in-line and recorded in
// the manifest; a nil posterior writer omits the file), everything is
// fsynced in a temporary directory, and the directory is atomically
// renamed into place. The parent directory is fsynced last, so after
// Write returns the checkpoint survives power loss. The segments m lists
// must already be durable: the manifest only references them.
func (st *Store) Write(m Manifest, quality, posterior func(io.Writer) error) error {
	m.Format = manifestFormat
	if m.CreatedAt.IsZero() {
		m.CreatedAt = time.Now().UTC()
	}
	final := filepath.Join(st.dir, checkpointDirName(m.Seq))
	tmp := filepath.Join(st.dir, chkTmpPrefix+checkpointDirName(m.Seq))
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			os.RemoveAll(tmp)
		}
	}()

	var err error
	if m.QualityCRC, err = writeFileCRC(filepath.Join(tmp, qualityName), quality); err != nil {
		return err
	}
	if posterior != nil {
		if m.PosteriorCRC, err = writeFileCRC(filepath.Join(tmp, posteriorName), posterior); err != nil {
			return err
		}
	} else {
		m.PosteriorCRC = 0
	}
	manifest, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: encoding manifest: %w", err)
	}
	if _, err := writeFileCRC(filepath.Join(tmp, manifestName), func(w io.Writer) error {
		_, werr := w.Write(append(manifest, '\n'))
		return werr
	}); err != nil {
		return err
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	ok = true
	return syncDir(st.dir)
}

// writeFileCRC writes via fn into path, fsyncs it, and returns the CRC32C
// of the bytes written.
func writeFileCRC(path string, fn func(io.Writer) error) (uint32, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	h := crc32.New(castagnoli)
	if err := fn(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: fsync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("wal: closing %s: %w", path, err)
	}
	return h.Sum32(), nil
}

// Checkpoints returns the store's checkpoints with parseable manifests, in
// ascending sequence order. Directories whose manifest is missing or
// malformed are skipped (and counted), not fatal: recovery falls back to
// an older checkpoint.
func (st *Store) Checkpoints() (cps []Checkpoint, skipped int, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), chkPrefix) {
			continue
		}
		if _, perr := strconv.ParseInt(strings.TrimPrefix(e.Name(), chkPrefix), 10, 64); perr != nil {
			continue
		}
		dir := filepath.Join(st.dir, e.Name())
		raw, rerr := os.ReadFile(filepath.Join(dir, manifestName))
		if rerr != nil {
			skipped++
			continue
		}
		var m Manifest
		if jerr := json.Unmarshal(raw, &m); jerr != nil || m.Format != manifestFormat {
			skipped++
			continue
		}
		cps = append(cps, Checkpoint{Dir: dir, Manifest: m})
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].Manifest.Seq < cps[j].Manifest.Seq })
	return cps, skipped, nil
}

// Count returns the number of checkpoint directories.
func (st *Store) Count() int {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), chkPrefix) {
			n++
		}
	}
	return n
}

// Prune deletes all but the newest retain checkpoints and returns the ones
// that remain (ascending). retain < 1 is treated as 1: the newest
// checkpoint is never deleted.
func (st *Store) Prune(retain int) ([]Checkpoint, error) {
	if retain < 1 {
		retain = 1
	}
	cps, _, err := st.Checkpoints()
	if err != nil {
		return nil, err
	}
	if len(cps) <= retain {
		return cps, nil
	}
	for _, cp := range cps[:len(cps)-retain] {
		if err := os.RemoveAll(cp.Dir); err != nil {
			return nil, fmt.Errorf("wal: pruning checkpoint: %w", err)
		}
	}
	if err := syncDir(st.dir); err != nil {
		return nil, err
	}
	return cps[len(cps)-retain:], nil
}

// SegmentRows checks that the manifest's segments cover the corpus
// contiguously from row 0 and returns how many rows they cover.
func (m Manifest) SegmentRows() (int, error) {
	total := 0
	for _, ref := range m.Segments {
		if ref.FirstRow != total {
			return 0, fmt.Errorf("wal: segment %d starts at row %d, want %d (coverage gap)", ref.ID, ref.FirstRow, total)
		}
		total += ref.Rows
	}
	return total, nil
}

// Legacy reports whether the manifest predates segments: its checkpoint
// carries a cumulative triples.csv instead of segment refs. Every
// checkpoint written since lists at least one segment, because a
// checkpoint only follows a refit, and a refit needs at least one row.
func (m Manifest) Legacy() bool {
	return len(m.Segments) == 0
}

// ReadTriples loads and CRC-verifies a legacy checkpoint's cumulative raw
// database. Row order is preserved, so the dataset built from it is
// bit-identical to the one the checkpointed server had.
func (c Checkpoint) ReadTriples() (*model.RawDB, error) {
	db, crc, err := readCRC(filepath.Join(c.Dir, triplesName), func(r io.Reader) (*model.RawDB, error) {
		return dataset.ReadTriples(r)
	})
	if err != nil {
		return nil, err
	}
	if crc != c.Manifest.TriplesCRC {
		return nil, fmt.Errorf("wal: checkpoint %d: triples CRC mismatch (have %08x, manifest %08x)",
			c.Manifest.Seq, crc, c.Manifest.TriplesCRC)
	}
	return db, nil
}

// ReadQuality loads and CRC-verifies the checkpoint's source-quality table.
func (c Checkpoint) ReadQuality() ([]model.SourceQuality, error) {
	q, crc, err := readCRC(filepath.Join(c.Dir, qualityName), func(r io.Reader) ([]model.SourceQuality, error) {
		return dataset.ReadQuality(r)
	})
	if err != nil {
		return nil, err
	}
	if crc != c.Manifest.QualityCRC {
		return nil, fmt.Errorf("wal: checkpoint %d: quality CRC mismatch (have %08x, manifest %08x)",
			c.Manifest.Seq, crc, c.Manifest.QualityCRC)
	}
	return q, nil
}

// ReadPosterior loads and CRC-verifies the checkpoint's per-fact posterior,
// aligned to ds (the dataset built from the checkpoint's own triples).
// Checkpoints without a posterior return (nil, false, nil).
func (c Checkpoint) ReadPosterior(ds *model.Dataset) ([]float64, bool, error) {
	if c.Manifest.PosteriorCRC == 0 {
		return nil, false, nil
	}
	prob, crc, err := readCRC(filepath.Join(c.Dir, posteriorName), func(r io.Reader) ([]float64, error) {
		return dataset.ReadPosterior(r, ds)
	})
	if err != nil {
		return nil, false, err
	}
	if crc != c.Manifest.PosteriorCRC {
		return nil, false, fmt.Errorf("wal: checkpoint %d: posterior CRC mismatch (have %08x, manifest %08x)",
			c.Manifest.Seq, crc, c.Manifest.PosteriorCRC)
	}
	return prob, true, nil
}

// readCRC parses path via fn while accumulating the CRC32C of every byte
// consumed, draining any remainder so the checksum covers the whole file.
func readCRC[T any](path string, fn func(io.Reader) (T, error)) (T, uint32, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	v, err := fn(io.TeeReader(f, h))
	if err != nil {
		return zero, 0, err
	}
	if _, err := io.Copy(h, f); err != nil {
		return zero, 0, fmt.Errorf("wal: %w", err)
	}
	return v, h.Sum32(), nil
}
