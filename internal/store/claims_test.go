package store

import (
	"math/rand"
	"reflect"
	"testing"

	"latenttruth/internal/model"
	"latenttruth/internal/segment"
)

// fillStores adds the same rows to a directory-less store and a sealing
// one, sealing the latter every sealEvery rows so several segments plus an
// unsealed tail exist.
func fillStores(t *testing.T, rows []model.Row, sealEvery int) (heap, sealed *Claims) {
	t.Helper()
	heap = New("")
	sealed = New(t.TempDir())
	t.Cleanup(func() { sealed.Close() })
	id := uint64(1)
	for i, r := range rows {
		if heap.AddRow(r) != sealed.AddRow(r) {
			t.Fatalf("row %d: stores disagree on insertion", i)
		}
		if sealEvery > 0 && (i+1)%sealEvery == 0 {
			if _, err := sealed.Seal(id); err != nil {
				t.Fatalf("Seal: %v", err)
			}
			id++
		}
	}
	return heap, sealed
}

func collect(t *testing.T, scan func(fn func(model.Row)) error) map[model.Row]int {
	t.Helper()
	got := make(map[model.Row]int)
	if err := scan(func(r model.Row) { got[r]++ }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBackendScanEquivalence is the scan contract: sealing never changes
// the insertion-order rows (the bit-identity substrate), and scans through
// the segments' zone maps and blooms return exactly what a walk of the
// heap rows returns for entity sets, entity ranges and sources — while
// skipping at least one segment on scoped probes.
func TestBackendScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 50, 4, 12, 4000)
	heap, seg := fillStores(t, rows, 700) // several sealed segments + tail

	if !reflect.DeepEqual(heap.Rows(), seg.Rows()) {
		t.Fatal("sealing changed the insertion-order rows")
	}
	hr, sr := heap.Reader(), seg.Reader()

	probe := map[string]struct{}{"e003": {}, "e042": {}}
	gh := collect(t, func(fn func(model.Row)) error { return hr.ScanEntities(probe, fn) })
	gs := collect(t, func(fn func(model.Row)) error { return sr.ScanEntities(probe, fn) })
	if !reflect.DeepEqual(gh, gs) {
		t.Fatalf("ScanEntities differs: heap %d rows, segments %d rows", len(gh), len(gs))
	}

	gh = collect(t, func(fn func(model.Row)) error { return hr.ScanEntityRange("e010", "e019", fn) })
	gs = collect(t, func(fn func(model.Row)) error { return sr.ScanEntityRange("e010", "e019", fn) })
	if !reflect.DeepEqual(gh, gs) {
		t.Fatal("ScanEntityRange differs between heap and segments")
	}

	gh = collect(t, func(fn func(model.Row)) error { return hr.ScanSource("s05", fn) })
	gs = collect(t, func(fn func(model.Row)) error { return sr.ScanSource("s05", fn) })
	if !reflect.DeepEqual(gh, gs) {
		t.Fatal("ScanSource differs between heap and segments")
	}

	st := seg.Stats()
	if st.Segments == 0 || st.OnDisk == 0 {
		t.Fatalf("segment stats look wrong: %+v", st)
	}
	if st.Resident != len(seg.Rows()) {
		t.Fatalf("resident %d != rows %d", st.Resident, len(seg.Rows()))
	}
	if st.SegmentsScanned == 0 {
		t.Error("scoped scans never opened a segment")
	}
	if hs := heap.Stats(); hs.OnDisk != 0 || hs.Segments != 0 || hs.Resident != st.Resident {
		t.Fatalf("directory-less store stats: %+v", hs)
	}
	if _, err := heap.Seal(1); err == nil {
		t.Fatal("a directory-less store sealed")
	}
}

// TestSegmentBackedReopen seals, reopens from the sealed segments (the
// recovery shape) and checks rows, stats and a further seal all survive
// the round trip.
func TestSegmentBackedReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, 30, 3, 8, 1500)
	dir := t.TempDir()
	seg := New(dir)
	defer seg.Close()
	for _, r := range rows {
		seg.AddRow(r)
	}
	if _, err := seg.Seal(1); err != nil {
		t.Fatal(err)
	}
	// More rows + a second seal: refs accumulate, earlier segments stay.
	extra := randomRows(rng, 30, 3, 8, 500)
	for _, r := range extra {
		seg.AddRow(r)
	}
	refs, err := seg.Seal(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("got %d refs, want 2", len(refs))
	}
	if again, err := seg.Seal(3); err != nil || !reflect.DeepEqual(again, refs) {
		t.Fatalf("empty seal changed refs: %v (err %v)", again, err)
	}

	// Recovery: rebuild the RawDB from the segments alone, then adopt the
	// open segments without reopening them.
	loaded := make([]model.Row, refs[1].FirstRow+refs[1].Rows)
	var segs []*segment.Segment
	for _, ref := range refs {
		s, err := segment.Open(dir, ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ReadRows(loaded); err != nil {
			t.Fatal(err)
		}
		segs = append(segs, s)
	}
	db := model.NewRawDB()
	for _, r := range loaded {
		db.AddRow(r)
	}
	tail := model.Row{Entity: "tail", Attribute: "a", Source: "s"}
	db.AddRow(tail)
	re := Open(dir, segs, db)
	defer re.Close()
	want := append(append([]model.Row(nil), seg.Rows()...), tail)
	if !reflect.DeepEqual(re.Rows(), want) {
		t.Fatal("reopened store rows differ from original insertion order")
	}
	st := re.Stats()
	if st.OnDisk != re.Len()-1 || st.Segments != 2 || st.SegmentBytes != refs[0].Bytes+refs[1].Bytes {
		t.Fatalf("reopened stats: %+v", st)
	}
	got := collect(t, func(fn func(model.Row)) error {
		return re.Reader().ScanEntities(map[string]struct{}{"tail": {}}, fn)
	})
	if got[tail] != 1 || len(got) != 1 {
		t.Fatalf("unsealed tail scan: %v", got)
	}
	// The next seal covers only the replayed tail.
	refs, err = re.Seal(4)
	if err != nil || len(refs) != 3 || refs[2].FirstRow != re.Len()-1 || refs[2].Rows != 1 {
		t.Fatalf("seal after reopen: %+v (err %v)", refs, err)
	}
}
