package wal

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latenttruth/internal/dataset"
	"latenttruth/internal/model"
	claimseg "latenttruth/internal/segment"
)

// testQuality writes a one-source quality table.
func testQuality(w io.Writer) error {
	return dataset.WriteQuality(w, []model.SourceQuality{
		{Source: "s1", Sensitivity: 0.9, Specificity: 0.8, Precision: 0.7, Accuracy: 0.6},
	})
}

// testDB returns n batches of testRows as one raw database.
func testDB(n int) *model.RawDB {
	db := model.NewRawDB()
	for i := 0; i < n; i++ {
		for _, r := range testRows(i, 3) {
			db.AddRow(r)
		}
	}
	return db
}

// writeTestCheckpoint writes a checkpoint whose manifest references one
// segment sealed from n batches of testRows under segDir, and returns the
// database it persisted.
func writeTestCheckpoint(t *testing.T, st *Store, segDir string, seq int64, walSeq uint64, n int) *model.RawDB {
	t.Helper()
	db := testDB(n)
	ref, err := claimseg.Write(segDir, uint64(seq), 0, db.Rows())
	if err != nil {
		t.Fatal(err)
	}
	m := Manifest{
		Seq:           seq,
		WALSeq:        walSeq,
		ConfigHash:    "deadbeef",
		Refits:        seq,
		IngestedTotal: int64(db.Len()),
		Policy:        json.RawMessage(`{"batches":1}`),
		Segments:      []claimseg.Ref{ref},
	}
	if err := st.Write(m, testQuality, nil); err != nil {
		t.Fatalf("checkpoint write: %v", err)
	}
	return db
}

// writeLegacyCheckpoint writes a checkpoint in the pre-segment format: no
// segment refs, the whole corpus in a CRC-pinned triples.csv.
func writeLegacyCheckpoint(t *testing.T, st *Store, m Manifest, db *model.RawDB) {
	t.Helper()
	if err := st.Write(m, testQuality, nil); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(st.dir, checkpointDirName(m.Seq))
	crc, err := writeFileCRC(filepath.Join(dir, triplesName), func(w io.Writer) error {
		return dataset.WriteTriples(w, db)
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var written Manifest
	if err := json.Unmarshal(raw, &written); err != nil {
		t.Fatal(err)
	}
	written.TriplesCRC = crc
	if raw, err = json.Marshal(written); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, st, dir, 3, 17, 5)

	cps, skipped, err := st.Checkpoints()
	if err != nil || skipped != 0 || len(cps) != 1 {
		t.Fatalf("Checkpoints: %d cps, %d skipped, err=%v", len(cps), skipped, err)
	}
	cp := cps[0]
	if cp.Manifest.Seq != 3 || cp.Manifest.WALSeq != 17 || cp.Manifest.Format != manifestFormat {
		t.Fatalf("manifest %+v", cp.Manifest)
	}
	if cp.Manifest.Legacy() || len(cp.Manifest.Segments) != 1 || cp.Manifest.Segments[0].Rows != 15 {
		t.Fatalf("segment refs %+v", cp.Manifest.Segments)
	}
	// The corpus lives in the segments: the checkpoint writes no CSV copy.
	if _, err := os.Stat(filepath.Join(cp.Dir, triplesName)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint has a %s (err=%v)", triplesName, err)
	}
	q, err := cp.ReadQuality()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0].Source != "s1" {
		t.Fatalf("quality %+v", q)
	}
}

// TestCheckpointCorruptTriplesDetected reads a legacy checkpoint: the
// order-preserving round trip recovery's migration depends on, and a
// flipped byte failing the CRC.
func TestCheckpointCorruptTriplesDetected(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	want := testDB(4)
	writeLegacyCheckpoint(t, st, Manifest{Seq: 1, WALSeq: 5}, want)
	cps, _, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if !cps[0].Manifest.Legacy() {
		t.Fatalf("legacy checkpoint not recognised: %+v", cps[0].Manifest)
	}
	db, err := cps[0].ReadTriples()
	if err != nil {
		t.Fatal(err)
	}
	wr, gr := want.Rows(), db.Rows()
	if len(wr) != len(gr) {
		t.Fatalf("%d rows, want %d", len(gr), len(wr))
	}
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("row %d: %+v, want %+v", i, gr[i], wr[i])
		}
	}
	path := filepath.Join(cps[0].Dir, triplesName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20 // flip a bit inside some row
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cps[0].ReadTriples(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt triples read err = %v, want CRC mismatch", err)
	}
}

func TestCheckpointPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 5; seq++ {
		writeTestCheckpoint(t, st, dir, seq, uint64(seq*10), 2)
	}
	left, err := st.Prune(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 || left[0].Manifest.Seq != 4 || left[1].Manifest.Seq != 5 {
		t.Fatalf("prune left %+v", left)
	}
	if st.Count() != 2 {
		t.Fatalf("Count = %d, want 2", st.Count())
	}
	// retain < 1 never deletes the newest checkpoint.
	if left, err = st.Prune(0); err != nil || len(left) != 1 || left[0].Manifest.Seq != 5 {
		t.Fatalf("Prune(0) -> %+v, %v", left, err)
	}
}

func TestOpenStoreClearsStaleTemp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "checkpoints")
	if err := os.MkdirAll(filepath.Join(dir, chkTmpPrefix+"chk-0000000000000009"), 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), chkTmpPrefix) {
			t.Fatalf("stale temp %s survived OpenStore", e.Name())
		}
	}
	// A bad manifest is skipped, not fatal.
	bad := filepath.Join(dir, checkpointDirName(7))
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cps, skipped, err := st.Checkpoints()
	if err != nil || len(cps) != 0 || skipped != 1 {
		t.Fatalf("Checkpoints with bad manifest: %d cps, %d skipped, err=%v", len(cps), skipped, err)
	}
}
