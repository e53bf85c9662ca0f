package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latenttruth/internal/model"
	claimseg "latenttruth/internal/segment"
)

func TestRecoverColdStart(t *testing.T) {
	rec, err := Recover(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if !rec.Stats.ColdStart || rec.Checkpoint != nil || len(rec.Tail) != 0 || rec.DB.Len() != 0 {
		t.Fatalf("cold start got %+v (db %d rows)", rec.Stats, rec.DB.Len())
	}
	if seq, err := rec.Log.Append(testRows(0, 2)); err != nil || seq != 1 {
		t.Fatalf("first append after cold start: seq %d, err %v", seq, err)
	}
}

// buildDurableState appends nBatches to a fresh data dir, checkpoints the
// first ckptBatches of them at snapshot seq 1 (sealed as one segment), and
// closes the log — the on-disk shape after "refit then more ingest then
// crash".
func buildDurableState(t *testing.T, dataDir string, nBatches, ckptBatches int) []Batch {
	t.Helper()
	rec, err := Recover(dataDir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var batches []Batch
	for i := 0; i < nBatches; i++ {
		rows := testRows(i, 3)
		seq, err := rec.Log.Append(rows)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, Batch{Seq: seq, Rows: rows})
	}
	if ckptBatches > 0 {
		sealCheckpoint(t, dataDir, rec.Store, 1, nil, batches[:ckptBatches])
	}
	rec.Log.Close()
	return batches
}

// sealCheckpoint seals the rows of batches (which follow the rows prior
// covers) into one new segment and writes checkpoint seq referencing
// prior plus it, covering the log up to the last batch. It returns the
// checkpoint's refs.
func sealCheckpoint(t *testing.T, dataDir string, st *Store, seq int64, prior []claimseg.Ref, batches []Batch) []claimseg.Ref {
	t.Helper()
	first := 0
	for _, ref := range prior {
		first += ref.Rows
	}
	var rows []model.Row
	for _, b := range batches {
		rows = append(rows, b.Rows...)
	}
	if err := os.MkdirAll(SegmentDir(dataDir), 0o755); err != nil {
		t.Fatal(err)
	}
	ref, err := claimseg.Write(SegmentDir(dataDir), uint64(seq), first, rows)
	if err != nil {
		t.Fatal(err)
	}
	refs := append(append([]claimseg.Ref(nil), prior...), ref)
	m := Manifest{Seq: seq, WALSeq: batches[len(batches)-1].Seq, IngestedTotal: int64(first + len(rows)), Segments: refs}
	if err := st.Write(m, testQuality, nil); err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestRecoverCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	batches := buildDurableState(t, dir, 7, 4)

	rec, err := Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if rec.Stats.ColdStart || rec.Checkpoint == nil {
		t.Fatalf("expected warm recovery, got %+v", rec.Stats)
	}
	if rec.Stats.CheckpointSeq != 1 || rec.Stats.CheckpointWALSeq != 4 {
		t.Fatalf("checkpoint identity %+v", rec.Stats)
	}
	if rec.DB.Len() != 3*4 {
		t.Fatalf("checkpoint db has %d rows, want %d", rec.DB.Len(), 12)
	}
	// The segments come back open, once, for the claim store to adopt.
	if len(rec.Segments) != 1 || rec.Segments[0].Ref().Rows != 12 || rec.Legacy {
		t.Fatalf("recovered segments %d (legacy=%v)", len(rec.Segments), rec.Legacy)
	}
	closeSegments(rec.Segments)
	mustEqualBatches(t, rec.Tail, batches[4:])
	if rec.Stats.ReplayedBatches != 3 || rec.Stats.ReplayedRows != 9 {
		t.Fatalf("replay stats %+v", rec.Stats)
	}
	// Appends continue after the recovered tail.
	if seq, err := rec.Log.Append(testRows(99, 1)); err != nil || seq != 8 {
		t.Fatalf("append after recovery: seq %d, err %v", seq, err)
	}
}

func TestRecoverCheckpointNoTail(t *testing.T) {
	dir := t.TempDir()
	buildDurableState(t, dir, 5, 5)
	rec, err := Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if len(rec.Tail) != 0 || rec.DB.Len() != 15 || rec.Stats.ColdStart {
		t.Fatalf("recovery %+v, tail %d, db %d", rec.Stats, len(rec.Tail), rec.DB.Len())
	}
	if seq, err := rec.Log.Append(testRows(99, 1)); err != nil || seq != 6 {
		t.Fatalf("append: seq %d, err %v", seq, err)
	}
}

func TestRecoverFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	batches := buildDurableState(t, dir, 6, 3)

	// Add a newer checkpoint sealing batches 4-5 into a second segment,
	// then corrupt that segment: recovery must fall back to the older
	// checkpoint (whose refs are a prefix) and replay from ITS seq.
	st, err := OpenStore(CheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	cps, _, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	refs := sealCheckpoint(t, dir, st, 2, cps[0].Manifest.Segments, batches[3:5])
	flipPageByte(t, filepath.Join(SegmentDir(dir), refs[1].Filename()))

	rec, err := Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if rec.Stats.CheckpointSeq != 1 || rec.Stats.CheckpointsSkipped == 0 {
		t.Fatalf("expected fallback to checkpoint 1, got %+v", rec.Stats)
	}
	// Tail re-derived from the older checkpoint's coverage: batches 4..6
	// are all still in the log because truncation honors the oldest
	// retained checkpoint.
	mustEqualBatches(t, rec.Tail, batches[3:])
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	batches := buildDurableState(t, dir, 6, 2)
	path := tailSegment(t, LogDir(dir))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if rec.Stats.TornBytes == 0 {
		t.Fatalf("expected torn bytes, got %+v", rec.Stats)
	}
	mustEqualBatches(t, rec.Tail, batches[2:5])
}

func TestRecoverRefusesPartialState(t *testing.T) {
	// All checkpoints unreadable + WAL truncated behind them: recovery
	// must fail loudly rather than serve the surviving suffix as if it
	// were the whole history.
	dir := t.TempDir()
	buildDurableState(t, dir, 6, 4)
	st, err := OpenStore(CheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	cps, _, err := st.Checkpoints()
	if err != nil || len(cps) == 0 {
		t.Fatalf("no checkpoints (err=%v)", err)
	}
	for _, cp := range cps {
		for _, ref := range cp.Manifest.Segments {
			if err := os.Truncate(filepath.Join(SegmentDir(dir), ref.Filename()), 3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Recover(dir, Options{Sync: SyncNever}); err == nil {
		t.Fatal("Recover served partial state with no readable checkpoint")
	}

	// Same refusal when there are no checkpoints at all but the log does
	// not start at seq 1 — a truncated prefix with nothing covering it.
	dir2 := t.TempDir()
	l, _, err := Open(Options{Dir: LogDir(dir2), SegmentBytes: 4 << 10, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendBatches(t, l, 0, 200)
	if err := l.TruncateBefore(100); err != nil { // drops whole early segments
		t.Fatal(err)
	}
	l.Close()
	if _, err := Recover(dir2, Options{SegmentBytes: 4 << 10, Sync: SyncNever}); err == nil {
		t.Fatal("Recover served a log with a missing prefix and no checkpoint")
	}
}

// flipPageByte flips one bit of the first page of the segment at path.
func flipPageByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusesBadSegments corrupts the only checkpoint's segment
// coverage in each way the loader guards against; every one must leave no
// readable checkpoint, so recovery refuses instead of serving a partial or
// corrupt corpus.
func TestRecoverRefusesBadSegments(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, dir string, refs []claimseg.Ref) []claimseg.Ref{
		"page_crc": func(t *testing.T, dir string, refs []claimseg.Ref) []claimseg.Ref {
			flipPageByte(t, filepath.Join(SegmentDir(dir), refs[0].Filename()))
			return refs
		},
		"missing_file": func(t *testing.T, dir string, refs []claimseg.Ref) []claimseg.Ref {
			if err := os.Remove(filepath.Join(SegmentDir(dir), refs[1].Filename())); err != nil {
				t.Fatal(err)
			}
			return refs
		},
		"coverage_gap": func(t *testing.T, dir string, refs []claimseg.Ref) []claimseg.Ref {
			return refs[1:]
		},
		"ref_identity": func(t *testing.T, dir string, refs []claimseg.Ref) []claimseg.Ref {
			bad := append([]claimseg.Ref(nil), refs...)
			bad[1].CRC ^= 1
			return bad
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			batches := buildDurableState(t, dir, 6, 3)
			st, err := OpenStore(CheckpointDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			cps, _, err := st.Checkpoints()
			if err != nil {
				t.Fatal(err)
			}
			refs := sealCheckpoint(t, dir, st, 2, cps[0].Manifest.Segments, batches[3:])
			if err := os.RemoveAll(cps[0].Dir); err != nil { // no fallback
				t.Fatal(err)
			}
			m := Manifest{Seq: 3, WALSeq: 6, Segments: corrupt(t, dir, refs)}
			if err := st.Write(m, testQuality, nil); err != nil {
				t.Fatal(err)
			}
			if err := os.RemoveAll(filepath.Join(CheckpointDir(dir), checkpointDirName(2))); err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(dir, Options{Sync: SyncNever}); err == nil ||
				!strings.Contains(err.Error(), "no readable checkpoint") {
				t.Fatalf("Recover over %s: %v", name, err)
			}
		})
	}
}

// TestRecoverMigratesLegacyCheckpoint opens a directory written before
// segments: the corpus comes back from the CRC-checked triples.csv in
// insertion order, flagged for migration, with nothing sealed.
func TestRecoverMigratesLegacyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	rec, err := Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	batches := appendBatches(t, rec.Log, 0, 5)
	db := model.NewRawDB()
	for _, b := range batches[:3] {
		for _, r := range b.Rows {
			db.AddRow(r)
		}
	}
	writeLegacyCheckpoint(t, rec.Store, Manifest{Seq: 1, WALSeq: 3}, db)
	rec.Log.Close()

	rec, err = Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if !rec.Legacy || rec.Segments != nil || rec.Stats.CheckpointSeq != 1 {
		t.Fatalf("legacy recovery: legacy=%v segments=%d stats %+v", rec.Legacy, len(rec.Segments), rec.Stats)
	}
	if got, want := rec.DB.Rows(), db.Rows(); len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
		t.Fatalf("legacy corpus: %d rows, want %d in insertion order", len(got), len(want))
	}
	mustEqualBatches(t, rec.Tail, batches[3:])
}
