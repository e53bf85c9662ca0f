package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"latenttruth/internal/dataset"
	"latenttruth/internal/model"
	"latenttruth/internal/segment"
	"latenttruth/internal/store"
	"latenttruth/internal/wal"
)

// getBody fetches path from ts and returns the status code and body.
func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// fittedAtRe masks the one wall-clock field in snapshot responses.
var fittedAtRe = regexp.MustCompile(`"fitted_at":"[^"]*"`)

// TestSegmentBackendBitIdentical is the sealing acceptance property: a
// durable server, whose checkpoints seal every compacted row into segments
// that its scans then read through zone maps and blooms, and a server
// without a directory, which never seals and scans heap rows, fed the
// identical schedule publish bit-identical snapshots and serve
// byte-identical /truth, /quality, /records and /claims responses, across
// every refit policy. /stats is compared modulo its timing fields and the
// storage block, which reports the (deliberately different) residency.
func TestSegmentBackendBitIdentical(t *testing.T) {
	for _, policy := range []RefitPolicy{RefitFull, RefitDirty} {
		t.Run(string(policy), func(t *testing.T) {
			mem, err := New(testConfig(policy))
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			seg, err := New(durableConfig(policy, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()

			for r := 0; r < 5; r++ {
				mustIngest(t, mem, batchRows(r))
				mustIngest(t, seg, batchRows(r))
				mustEqualSnapshots(t, mustRefit(t, seg), mustRefit(t, mem))
			}

			tsMem := httptest.NewServer(mem.Handler())
			defer tsMem.Close()
			tsSeg := httptest.NewServer(seg.Handler())
			defer tsSeg.Close()
			for _, path := range []string{
				"/truth",
				"/truth?min_prob=0.4&limit=20",
				"/quality",
				"/records?limit=100",
				"/claims",
				"/claims?entity=e03",
				"/claims?prefix=e0",
				"/claims?source=s1&limit=5",
			} {
				cm, bm := getBody(t, tsMem, path)
				cs, bs := getBody(t, tsSeg, path)
				if cm != http.StatusOK || cs != http.StatusOK {
					t.Fatalf("GET %s: status heap=%d sealed=%d", path, cm, cs)
				}
				// fitted_at is the one wall-clock field; everything else
				// must match byte for byte.
				bm = fittedAtRe.ReplaceAll(bm, []byte(`"fitted_at":"T"`))
				bs = fittedAtRe.ReplaceAll(bs, []byte(`"fitted_at":"T"`))
				if string(bm) != string(bs) {
					t.Fatalf("GET %s differs once sealed:\nheap:   %s\nsealed: %s", path, bm, bs)
				}
			}

			// /stats must agree on everything except uptime/timings and the
			// storage block (which reports the residency by design).
			var sm, ss map[string]any
			_, bm := getBody(t, tsMem, "/stats")
			_, bs := getBody(t, tsSeg, "/stats")
			if err := json.Unmarshal(bm, &sm); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(bs, &ss); err != nil {
				t.Fatal(err)
			}
			if disk := ss["storage"].(map[string]any)["disk_rows"].(float64); disk == 0 {
				t.Fatalf("durable server /stats storage block: %v", ss["storage"])
			}
			if disk := sm["storage"].(map[string]any)["disk_rows"].(float64); disk != 0 {
				t.Fatalf("directory-less server reports %v rows on disk", disk)
			}
			for _, k := range []string{"storage", "uptime_s", "last_refit_ms", "freshness_ms"} {
				delete(sm, k)
				delete(ss, k)
			}
			if !reflect.DeepEqual(sm, ss) {
				t.Fatalf("/stats differs once sealed:\nheap:   %v\nsealed: %v", sm, ss)
			}
		})
	}
}

// TestSegmentRecoveryReplaysOnlyTail is the recovery acceptance scenario:
// checkpoints seal segments (no triples.csv), a crash-restart reopens the
// segments and replays only the acknowledged-but-uncompacted WAL tail,
// and the recovered server stays in bit-identical lockstep with an
// uninterrupted reference.
func TestSegmentRecoveryReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	ref, err := New(testConfig(RefitFull))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	a, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		mustIngest(t, a, batchRows(r))
		mustIngest(t, ref, batchRows(r))
		mustRefit(t, a)
		mustRefit(t, ref)
	}
	// After a checkpoint every compacted row is sealed on disk.
	st := a.db.Stats()
	if st.OnDisk != a.db.Len() || st.Segments == 0 {
		t.Fatalf("post-checkpoint storage stats: %+v (db len %d)", st, a.db.Len())
	}
	// Checkpoints write no triples.csv: the segments ARE the corpus.
	cps, err := os.ReadDir(wal.CheckpointDir(dir))
	if err != nil || len(cps) == 0 {
		t.Fatalf("no checkpoints (err=%v)", err)
	}
	newest := cps[len(cps)-1].Name()
	if _, err := os.Stat(filepath.Join(wal.CheckpointDir(dir), newest, "triples.csv")); !os.IsNotExist(err) {
		t.Fatalf("segment checkpoint %s has a triples.csv (err=%v)", newest, err)
	}
	segs, err := os.ReadDir(wal.SegmentDir(dir))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}

	// Two acknowledged batches that only exist in the WAL tail.
	mustIngest(t, a, batchRows(10))
	mustIngest(t, a, batchRows(11))
	mustIngest(t, ref, batchRows(10))
	mustIngest(t, ref, batchRows(11))
	crash(a)

	b, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rs := b.RecoveryStats()
	if rs.ColdStart || rs.ReplayedBatches != 2 {
		t.Fatalf("recovery stats %+v, want 2 replayed batches", rs)
	}
	// The corpus came back from segments, not CSV, fully covered on disk.
	bst := b.db.Stats()
	if bst.OnDisk != b.db.Len() || bst.OnDisk != st.OnDisk {
		t.Fatalf("post-recovery storage stats: %+v, want %d rows on disk", bst, st.OnDisk)
	}
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	// Lockstep continues: the next checkpoint seals only the new rows into
	// one more segment rather than rewriting history.
	segsBefore := b.db.Stats().Segments
	mustIngest(t, b, batchRows(20))
	mustIngest(t, ref, batchRows(20))
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	if got := b.db.Stats().Segments; got != segsBefore+1 {
		t.Fatalf("segments after incremental checkpoint: %d, want %d", got, segsBefore+1)
	}
}

// TestSegmentCorruptionRefusesToOpen flips one byte of a sealed segment
// and asserts the restart fails loudly instead of serving corrupt rows.
func TestSegmentCorruptionRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableConfig(RefitFull, dir))
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, a, batchRows(0))
	mustRefit(t, a)
	crash(a)

	segs, err := os.ReadDir(wal.SegmentDir(dir))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}
	path := filepath.Join(wal.SegmentDir(dir), segs[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durableConfig(RefitFull, dir)); err == nil {
		t.Fatal("restart over a corrupt segment succeeded")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("corruption error should mention the unreadable checkpoint state: %v", err)
	}
}

// wantEnvelope asserts the response is the standard error envelope with
// the given status and stable code, and a non-empty human message.
func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, body)
	}
	var env map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if env["code"] != code {
		t.Fatalf("error code %v, want %q (envelope %v)", env["code"], code, env)
	}
	if msg, _ := env["error"].(string); msg == "" {
		t.Fatalf("error envelope without a message: %v", env)
	}
}

// mustGet GETs path or fails.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestErrorEnvelopeTable drives every distinct 4xx/5xx path of the HTTP
// API and asserts each returns the {"error","code"} envelope with its
// stable code.
func TestErrorEnvelopeTable(t *testing.T) {
	s, ts := newTestServer(t, testConfig(RefitFull))

	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Before any data or snapshot.
	wantEnvelope(t, mustGet(t, ts.URL+"/truth"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, mustGet(t, ts.URL+"/quality"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, mustGet(t, ts.URL+"/records?entity=x"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, mustGet(t, ts.URL+"/partition/quality"), http.StatusServiceUnavailable, codeNotReady)
	wantEnvelope(t, post("/refit", ""), http.StatusConflict, codeNoData)
	wantEnvelope(t, post("/claims", "{not json"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, post("/claims", `{"claims":[]}`), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, post("/claims", `[{"entity":"","attribute":"a","source":"s"}]`),
		http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, post("/refit?policy=nope", ""), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/claims?entity=a&prefix=b"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/claims?limit=many"), http.StatusBadRequest, codeBadRequest)

	// With a snapshot: name misses, bad query params, stale cursors.
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)
	wantEnvelope(t, mustGet(t, ts.URL+"/records?entity=no-such-entity"), http.StatusNotFound, codeNotFound)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?entity=no-such-entity"), http.StatusNotFound, codeNotFound)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?limit=many"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?min_prob=high"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, ts.URL+"/truth?cursor=garbage"), http.StatusBadRequest, codeBadRequest)

	var page struct {
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, mustGet(t, ts.URL+"/truth?limit=1"), &page)
	if page.NextCursor == "" {
		t.Fatal("no cursor to go stale")
	}
	mustIngest(t, s, batchRows(1))
	mustRefit(t, s)
	staleResp := mustGet(t, ts.URL+"/truth?limit=1&cursor="+page.NextCursor)
	wantEnvelope(t, staleResp, http.StatusGone, codeStaleCursor)

	// Replication feed errors (durable server).
	dm, tsDur := newTestServer(t, durableConfig(RefitFull, t.TempDir()))
	mustIngest(t, dm, batchRows(0))
	mustRefit(t, dm)
	wantEnvelope(t, mustGet(t, tsDur.URL+"/replication/wal"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, tsDur.URL+"/replication/wal?from=1&wait=bogus"), http.StatusBadRequest, codeBadRequest)
	wantEnvelope(t, mustGet(t, tsDur.URL+"/replication/wal?from=999"), http.StatusConflict, codeFollowerAhead)

	// WAL history truncated behind the retention window: 410.
	trCfg := durableConfig(RefitFull, t.TempDir())
	trCfg.Durability.RetainCheckpoints = 1
	trCfg.Durability.SegmentBytes = 4 << 10 // roll often so truncation can bite
	tr, tsTr := newTestServer(t, trCfg)
	for r := 0; r < 40; r++ {
		mustIngest(t, tr, batchRows(r))
		if r%8 == 7 {
			mustRefit(t, tr)
		}
	}
	mustRefit(t, tr)
	if tr.DurabilityStats().WAL.FirstSeq > 1 {
		wantEnvelope(t, mustGet(t, tsTr.URL+"/replication/wal?from=1&wait=0s"),
			http.StatusGone, codeWALTruncated)
	} else {
		t.Log("no WAL truncation happened; skipping the 410 case")
	}

	// Follower mode: writes are redirected with the primary's address.
	fCfg := durableConfig(RefitFull, t.TempDir())
	fCfg.FollowerOf = "http://primary.example:8080"
	f, err := New(fCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tsF := httptest.NewServer(f.Handler())
	defer tsF.Close()
	followerResp, err := http.Post(tsF.URL+"/claims", "application/json", strings.NewReader(`[{"entity":"e","attribute":"a","source":"s"}]`))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	decodeJSON(t, followerResp, &env)
	if followerResp.StatusCode != http.StatusServiceUnavailable ||
		env["code"] != codeFollowerReadonly || env["primary"] != fCfg.FollowerOf {
		t.Fatalf("follower rejection: status %d, envelope %v", followerResp.StatusCode, env)
	}
}

// TestClaimsEndpointPushdown exercises GET /claims filters end to end over
// sealed rows, including the skipping counters it should move.
func TestClaimsEndpointPushdown(t *testing.T) {
	s, ts := newTestServer(t, durableConfig(RefitFull, t.TempDir()))
	for r := 0; r < 4; r++ {
		mustIngest(t, s, batchRows(r))
		mustRefit(t, s) // checkpoint → seal: rows live in segments
	}
	var out struct {
		Count  int                                          `json:"count"`
		Claims []struct{ Entity, Attribute, Source string } `json:"claims"`
	}
	decodeJSON(t, mustGet(t, ts.URL+"/claims?entity=e03"), &out)
	if out.Count == 0 {
		t.Fatal("no claims for e03")
	}
	for _, c := range out.Claims {
		if c.Entity != "e03" {
			t.Fatalf("entity filter leaked %+v", c)
		}
	}
	decodeJSON(t, mustGet(t, ts.URL+"/claims?prefix=e0&source=s1"), &out)
	for _, c := range out.Claims {
		if !strings.HasPrefix(c.Entity, "e0") || c.Source != "s1" {
			t.Fatalf("prefix+source filter leaked %+v", c)
		}
	}
	var stats struct {
		Storage store.StorageStats `json:"storage"`
	}
	decodeJSON(t, mustGet(t, ts.URL+"/stats"), &stats)
	if stats.Storage.SegmentsScanned+stats.Storage.SegmentsSkipped == 0 {
		t.Fatalf("scans moved no skipping counters: %+v", stats.Storage)
	}
}

// TestStorageGaugesExposed asserts the storage gauge families appear in
// /metrics with the store's live values.
func TestStorageGaugesExposed(t *testing.T) {
	s, ts := newTestServer(t, durableConfig(RefitFull, t.TempDir()))
	mustIngest(t, s, batchRows(0))
	mustRefit(t, s)
	_, body := getBody(t, ts, "/metrics")
	text := string(body)
	st := s.db.Stats()
	for metric, want := range map[string]int{
		"storage_resident_rows": st.Resident,
		"storage_disk_rows":     st.OnDisk,
		"storage_segments":      st.Segments,
	} {
		if !strings.Contains(text, fmt.Sprintf("%s %d", metric, want)) {
			t.Fatalf("/metrics missing %s %d:\n%s", metric, want, text)
		}
	}
}

// logBuffer is a goroutine-safe log sink for asserting on server logs.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// legacyize rewrites every checkpoint under dataDir into the format data
// directories had before segments: the corpus as a CRC-pinned triples.csv
// (written with the CSV writer the checkpoint path used to call) and no
// segment refs. The segment files are deleted; the WAL is left as is.
func legacyize(t *testing.T, dataDir string) {
	t.Helper()
	st, err := wal.OpenStore(wal.CheckpointDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	cps, _, err := st.Checkpoints()
	if err != nil || len(cps) == 0 {
		t.Fatalf("no checkpoints to rewrite (err=%v)", err)
	}
	for _, cp := range cps {
		m := cp.Manifest
		last := m.Segments[len(m.Segments)-1]
		rows := make([]model.Row, last.FirstRow+last.Rows)
		for _, ref := range m.Segments {
			seg, err := segment.Open(wal.SegmentDir(dataDir), ref)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.ReadRows(rows); err != nil {
				t.Fatal(err)
			}
			seg.Close()
		}
		var csv bytes.Buffer
		if err := dataset.WriteTriplesRows(&csv, rows); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp.Dir, "triples.csv"), csv.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		m.TriplesCRC = crc32.Checksum(csv.Bytes(), crc32.MakeTable(crc32.Castagnoli))
		m.Segments = nil
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp.Dir, "MANIFEST.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(wal.SegmentDir(dataDir)); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyDirectoryMigrates reopens a data directory in the format from
// before segments (checkpoints carrying triples.csv, plus a WAL tail): it
// must serve /truth byte-identical to before apart from fitted_at, log the
// migration, seal the whole corpus at its next checkpoint (which writes no
// triples.csv), and take the segment path on the following reopen — in
// lockstep with an uninterrupted reference throughout.
func TestLegacyDirectoryMigrates(t *testing.T) {
	dir := t.TempDir()
	ref, err := New(testConfig(RefitDirty))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	a, err := New(durableConfig(RefitDirty, dir))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		mustIngest(t, a, batchRows(r))
		mustIngest(t, ref, batchRows(r))
		mustEqualSnapshots(t, mustRefit(t, a), mustRefit(t, ref))
	}
	mustIngest(t, a, batchRows(10)) // acknowledged tail, never checkpointed
	mustIngest(t, ref, batchRows(10))
	tsA := httptest.NewServer(a.Handler())
	_, before := getBody(t, tsA, "/truth")
	tsA.Close()
	crash(a)
	legacyize(t, dir)

	open := func() (*Server, string) {
		t.Helper()
		var logs logBuffer
		cfg := durableConfig(RefitDirty, dir)
		cfg.Logger = log.New(&logs, "", 0)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, logs.String()
	}
	b, logs := open()
	if !strings.Contains(logs, "legacy triples.csv format; migrating") {
		t.Fatalf("migration was not logged:\n%s", logs)
	}
	if st := b.db.Stats(); st.OnDisk != 0 || st.Segments != 0 || st.Resident != ref.db.Len() {
		t.Fatalf("migrated store: %+v", st)
	}
	tsB := httptest.NewServer(b.Handler())
	_, after := getBody(t, tsB, "/truth")
	tsB.Close()
	if want, got := fittedAtRe.ReplaceAll(before, nil), fittedAtRe.ReplaceAll(after, nil); !bytes.Equal(got, want) {
		t.Fatalf("/truth changed across the migration:\nbefore: %s\nafter:  %s", want, got)
	}

	// The next checkpoint seals the whole corpus and writes no CSV.
	mustEqualSnapshots(t, mustRefit(t, b), mustRefit(t, ref))
	if st := b.db.Stats(); st.OnDisk != b.db.Len() || st.Segments != 1 {
		t.Fatalf("post-migration checkpoint sealed %+v (db len %d)", st, b.db.Len())
	}
	st, err := wal.OpenStore(wal.CheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	cps, _, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	newest := cps[len(cps)-1]
	if len(newest.Manifest.Segments) != 1 || newest.Manifest.Legacy() {
		t.Fatalf("post-migration manifest segments: %+v", newest.Manifest.Segments)
	}
	if _, err := os.Stat(filepath.Join(newest.Dir, "triples.csv")); !os.IsNotExist(err) {
		t.Fatalf("post-migration checkpoint has a triples.csv (err=%v)", err)
	}
	crash(b)

	// A second reopen takes the segment path.
	c, logs := open()
	defer c.Close()
	if !strings.Contains(logs, "serve: opened 1 segments") || strings.Contains(logs, "legacy") {
		t.Fatalf("second reopen did not take the segment path:\n%s", logs)
	}
	if st := c.db.Stats(); st.OnDisk != c.db.Len() {
		t.Fatalf("reopened store: %+v (db len %d)", st, c.db.Len())
	}
	mustIngest(t, c, batchRows(11))
	mustIngest(t, ref, batchRows(11))
	mustEqualSnapshots(t, mustRefit(t, c), mustRefit(t, ref))
}
