package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"latenttruth/internal/core"
	"latenttruth/internal/model"
	"latenttruth/internal/serve"
	"latenttruth/internal/wal"
)

// primaryConfig is a durable manual-refit primary config with a fast
// sampler.
func primaryConfig(dir string) serve.Config {
	return serve.Config{
		LTM:           core.Config{Iterations: 40, Seed: 1},
		Policy:        serve.RefitFull,
		FullEvery:     3,
		RefitInterval: -1,
		Durability:    serve.Durability{DataDir: dir, Fsync: wal.SyncNever},
	}
}

// followerConfig mirrors the primary's model configuration over its own
// data directory, with snappy replication timing for tests.
func followerConfig(primary, dir string) Config {
	return Config{
		Primary:      primary,
		Serve:        primaryConfig(dir),
		PollWait:     300 * time.Millisecond,
		RetryBackoff: 50 * time.Millisecond,
	}
}

// batchRows builds deterministic, mildly conflicting claim batches.
func batchRows(i int) []model.Row {
	rows := make([]model.Row, 0, 12)
	for j := 0; j < 4; j++ {
		e := fmt.Sprintf("e%02d", (i*3+j)%17)
		for s := 0; s < 3; s++ {
			rows = append(rows, model.Row{
				Entity:    e,
				Attribute: fmt.Sprintf("a%d", (i+j+s)%5),
				Source:    fmt.Sprintf("s%d", (i+s)%4),
			})
		}
	}
	return rows
}

// newPrimary builds a durable primary with its HTTP front end.
func newPrimary(t *testing.T, dir string) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(primaryConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// ingestRefit pushes a batch and refits, returning the snapshot.
func ingestRefit(t *testing.T, s *serve.Server, i int) *serve.Snapshot {
	t.Helper()
	if _, err := s.Ingest(batchRows(i)); err != nil {
		t.Fatal(err)
	}
	sn, err := s.Refit("")
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitSnapshotSeq waits until the follower serves snapshot seq.
func waitSnapshotSeq(t *testing.T, f *Follower, seq int64) *serve.Snapshot {
	t.Helper()
	waitFor(t, fmt.Sprintf("follower snapshot seq %d", seq), func() bool {
		sn := f.Server().Snapshot()
		return sn != nil && sn.Seq >= seq
	})
	return f.Server().Snapshot()
}

// mustEqualSnapshots asserts two snapshots carry bit-identical model
// state.
func mustEqualSnapshots(t *testing.T, got, want *serve.Snapshot) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("nil snapshot (got=%v want=%v)", got != nil, want != nil)
	}
	if got.Seq != want.Seq || got.Mode != want.Mode {
		t.Fatalf("snapshot identity: got (seq=%d, %s), want (seq=%d, %s)", got.Seq, got.Mode, want.Seq, want.Mode)
	}
	gr, wr := got.AllTruth(), want.AllTruth()
	if len(gr) != len(wr) {
		t.Fatalf("truth rows: %d, want %d", len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("truth row %d: %+v, want %+v", i, gr[i], wr[i])
		}
	}
	if len(got.Quality) != len(want.Quality) {
		t.Fatalf("quality rows: %d, want %d", len(got.Quality), len(want.Quality))
	}
	for i := range got.Quality {
		if got.Quality[i] != want.Quality[i] {
			t.Fatalf("quality row %d: %+v, want %+v", i, got.Quality[i], want.Quality[i])
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats: %+v, want %+v", got.Stats, want.Stats)
	}
}

// TestFollowerBitIdenticalTruth is the tentpole acceptance scenario in
// process: a follower bootstraps from the primary's checkpoint, tails its
// WAL over real HTTP, and after replaying through the primary's refit
// marker at sequence N serves a snapshot bit-identical to the primary's
// snapshot N.
func TestFollowerBitIdenticalTruth(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)
	boot := ingestRefit(t, prim, 1)

	f, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); !st.Bootstrapped || st.BootstrapSeq != 2 {
		t.Fatalf("bootstrap stats %+v, want bootstrapped at seq 2", st)
	}
	// The bootstrap state serves immediately: the checkpointed snapshot,
	// restored from its posterior, is the primary's snapshot 2 bit for bit.
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, boot.Seq), boot)

	// Each primary refit ships a marker; the follower's replayed snapshot
	// must match the primary's bit for bit, seq for seq.
	want := ingestRefit(t, prim, 2)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)

	want = ingestRefit(t, prim, 3)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)

	// Reads are served locally; writes bounce to the primary.
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	resp, err := http.Get(fts.URL + "/truth")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /truth status %d", resp.StatusCode)
	}
	resp, err = http.Post(fts.URL+"/claims", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /claims status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(fts.URL + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /replication/status status %d", resp.StatusCode)
	}
}

// TestFollowerFromColdPrimary starts the follower before the primary has
// ever refitted: there is no checkpoint, so the follower starts empty and
// replays the log from sequence 1 — including the primary's very first
// refit, whose default priors are sized to the same dataset on both sides.
func TestFollowerFromColdPrimary(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	f, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); st.Bootstrapped {
		t.Fatalf("follower of a cold primary reports a bootstrap: %+v", st)
	}
	want := ingestRefit(t, prim, 0)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)
}

// TestFollowerRestartResumesWithoutRebootstrap closes a caught-up
// follower, restarts it on the same directory, and asserts it resumed
// from its own mirrored log — no checkpoint download — and still tracks
// the primary bit-identically.
func TestFollowerRestartResumesWithoutRebootstrap(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)

	folDir := t.TempDir()
	f, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	want := ingestRefit(t, prim, 1)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)
	id := f.Stats().ID
	f.Close()

	// More primary progress while the follower is down.
	want = ingestRefit(t, prim, 2)

	f2, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st := f2.Stats()
	if st.Bootstrapped || st.BootstrapSeq != 0 {
		t.Fatalf("restart re-bootstrapped: %+v", st)
	}
	if st.ID != id {
		t.Fatalf("follower id changed across restart: %q -> %q", id, st.ID)
	}
	// The recovered local state already serves (snapshot from its own
	// checkpoint + marker replay), and the tail catches up to the primary.
	mustEqualSnapshots(t, waitSnapshotSeq(t, f2, want.Seq), want)
}

// TestFollowerEvictionRebootstraps drives a follower far past the
// primary's lag bound while it is down: its cursor is evicted, the
// history it needs is truncated, and on return it gets 410 and
// re-bootstraps from a fresh checkpoint instead of wedging.
func TestFollowerEvictionRebootstraps(t *testing.T) {
	primDir := t.TempDir()
	cfg := primaryConfig(primDir)
	cfg.Durability.SegmentBytes = 4 << 10
	cfg.Durability.RetainCheckpoints = 1
	cfg.Replication = serve.Replication{MaxLagBatches: 4, CursorTTL: 10 * time.Millisecond}
	prim, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	defer func() { ts.Close(); prim.Close() }()
	ingestRefit(t, prim, 0)

	folDir := t.TempDir()
	f, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	want := ingestRefit(t, prim, 1)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f, want.Seq), want)
	f.Close()

	// Push the log far past the lag bound; refits evict + truncate.
	for i := 2; i < 40; i++ {
		if _, err := prim.Ingest(batchRows(i)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			time.Sleep(15 * time.Millisecond) // let the TTL lapse
			if _, err := prim.Refit(""); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(15 * time.Millisecond)
	if _, err := prim.Refit(""); err != nil {
		t.Fatal(err)
	}
	if first := prim.DurabilityStats().WAL.FirstSeq; first <= 3 {
		t.Skipf("history was not truncated (first_seq=%d)", first)
	}

	// The first re-bootstrap attempt fails at install: one of the shipped
	// segment files has a flipped page byte (footer intact), so it passes
	// the size and footer-CRC check, is written, and fails the page CRC
	// check on open. The previous state must come back and keep serving.
	restorePrimary := corruptFile(t, newestSegment(t, primDir), 0)
	var logs logBuffer
	fcfg := followerConfig(ts.URL, folDir)
	fcfg.RetryBackoff = 500 * time.Millisecond
	fcfg.Logger = log.New(&logs, "", 0)
	f2, err := Start(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitFor(t, "failed re-bootstrap", func() bool { return strings.Contains(logs.String(), "re-bootstrap:") })
	if !strings.Contains(logs.String(), "CRC mismatch") {
		t.Fatalf("re-bootstrap failed for the wrong reason:\n%s", logs.String())
	}
	if st := f2.Stats(); st.Rebootstraps != 0 {
		t.Fatalf("a failed re-bootstrap was counted: %+v", st)
	}
	if sn := f2.Server().Snapshot(); sn == nil || sn.Seq != want.Seq {
		t.Fatalf("previous state is not serving after the failed install (snapshot %v)", sn)
	}
	// The restored state reopened into a live server (a closed one reports
	// shutdown before the follower check).
	if _, err := f2.Server().Ingest(batchRows(0)); !errors.Is(err, serve.ErrFollower) {
		t.Fatalf("server after the failed install: %v\n%s", err, logs.String())
	}
	restorePrimary()
	waitFor(t, "re-bootstrap after eviction", func() bool { return f2.Stats().Rebootstraps >= 1 })
	// The re-bootstrapped follower serves the checkpoint state right away
	// and replays the primary's next refit bit-identically.
	want = ingestRefit(t, prim, 50)
	mustEqualSnapshots(t, waitSnapshotSeq(t, f2, want.Seq), want)
}

// TestCascadedFollower chains a follower off another follower: the
// intermediate's durable mirror re-exposes the same /replication feed, so
// the leaf converges on the same bit-identical snapshots as the primary.
func TestCascadedFollower(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)

	mid, err := Start(followerConfig(ts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	mts := httptest.NewServer(mid.Handler())
	defer mts.Close()

	leaf, err := Start(followerConfig(mts.URL, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	want := ingestRefit(t, prim, 1)
	mustEqualSnapshots(t, waitSnapshotSeq(t, mid, want.Seq), want)
	mustEqualSnapshots(t, waitSnapshotSeq(t, leaf, want.Seq), want)
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{Serve: primaryConfig(t.TempDir())}); err == nil {
		t.Fatal("missing primary accepted")
	}
	if _, err := Start(Config{Primary: "http://x.invalid"}); err == nil {
		t.Fatal("missing data dir accepted")
	}
	if _, err := Start(Config{Primary: "not a url", Serve: primaryConfig(t.TempDir())}); err == nil {
		t.Fatal("bogus primary URL accepted")
	}
}

// logBuffer is a goroutine-safe log sink for asserting on follower logs.
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

// newestSegment returns the path of the highest-id segment file in a data
// directory.
func newestSegment(t *testing.T, dataDir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(wal.SegmentDir(dataDir), "seg-*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dataDir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// corruptFile flips one bit at offset off (negative counts from the end)
// and returns a func that restores the original bytes. Both writes replace
// the file through a rename, so a server that has the old file mapped
// keeps reading the old bytes while new opens see the change.
func corruptFile(t *testing.T, path string, off int) (restore func()) {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replace := func(data []byte) {
		if err := os.WriteFile(path+".swap", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path+".swap", path); err != nil {
			t.Fatal(err)
		}
	}
	bad := append([]byte(nil), orig...)
	if off < 0 {
		off += len(bad)
	}
	bad[off] ^= 0x40
	replace(bad)
	return func() { replace(orig) }
}

// getBody fetches url and returns its 200 body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestFollowerBootstrapsFromSegments is the bootstrap acceptance scenario
// on the one storage format: a cold follower installs the primary's
// segment files verbatim (byte-identical on disk), serves from them, and
// once it replays the primary's next refit its /truth is byte-identical to
// the primary's apart from fitted_at.
func TestFollowerBootstrapsFromSegments(t *testing.T) {
	primDir := t.TempDir()
	prim, ts := newPrimary(t, primDir)
	ingestRefit(t, prim, 0)
	ingestRefit(t, prim, 1)

	folDir := t.TempDir()
	f, err := Start(followerConfig(ts.URL, folDir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); !st.Bootstrapped {
		t.Fatalf("cold follower did not bootstrap: %+v", st)
	}
	primSegs, _ := filepath.Glob(filepath.Join(wal.SegmentDir(primDir), "seg-*.seg"))
	if len(primSegs) != 2 {
		t.Fatalf("primary has %d segment files, want 2", len(primSegs))
	}
	for _, p := range primSegs {
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(wal.SegmentDir(folDir), filepath.Base(p)))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("follower copy of %s differs (err=%v)", filepath.Base(p), err)
		}
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()
	diskRows := func(url string) int {
		var stats struct {
			Storage struct {
				OnDisk int `json:"disk_rows"`
			} `json:"storage"`
		}
		if err := json.Unmarshal(getBody(t, url+"/stats"), &stats); err != nil {
			t.Fatal(err)
		}
		return stats.Storage.OnDisk
	}
	if got, want := diskRows(fts.URL), diskRows(ts.URL); got != want || got == 0 {
		t.Fatalf("follower disk_rows %d, primary %d", got, want)
	}

	// fitted_at is the publication wall clock, the one field that cannot
	// match; every other byte must.
	fittedAt := regexp.MustCompile(`"fitted_at":"[^"]*"`)
	truth := func(url string) []byte { return fittedAt.ReplaceAll(getBody(t, url+"/truth"), nil) }
	want := ingestRefit(t, prim, 2)
	waitSnapshotSeq(t, f, want.Seq)
	if got, want := truth(fts.URL), truth(ts.URL); !bytes.Equal(got, want) {
		t.Fatalf("follower /truth differs from the primary's:\nfollower: %s\nprimary:  %s", got, want)
	}
}

// tamperedPrimary serves a real primary's /replication/checkpoint with
// its parts rewritten by tamper — what a corrupting disk or link, or a
// primary in an unexpected format, would ship.
func tamperedPrimary(t *testing.T, primary string, tamper func(m *wal.Manifest, parts map[string][]byte)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(primary + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		_, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		parts := map[string][]byte{}
		mr := multipart.NewReader(resp.Body, params["boundary"])
		for {
			p, err := mr.NextPart()
			if err != nil {
				break
			}
			parts[p.FileName()], _ = io.ReadAll(p)
		}
		var m wal.Manifest
		json.Unmarshal(parts["MANIFEST.json"], &m)
		tamper(&m, parts)
		parts["MANIFEST.json"], _ = json.Marshal(m)
		mw := multipart.NewWriter(w)
		w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
		for name, data := range parts {
			pw, _ := mw.CreateFormFile("f", name)
			pw.Write(data)
		}
		mw.Close()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFollowerRefusesBadCheckpoint ships a cold follower a checkpoint
// damaged in each way bootstrap guards against: a flipped page byte
// (caught only by the page-CRC check on open, after the file is written),
// a flipped footer byte and a truncated file (caught by the size/footer
// check before anything is written), a missing segment file, a manifest
// whose segments leave a coverage gap, and a manifest in the format from
// before segments. Each must refuse loudly and leave no checkpoint and no
// segment file behind.
func TestFollowerRefusesBadCheckpoint(t *testing.T) {
	prim, ts := newPrimary(t, t.TempDir())
	ingestRefit(t, prim, 0)
	ingestRefit(t, prim, 1)
	flip := func(off int) func(*wal.Manifest, map[string][]byte) {
		return func(m *wal.Manifest, parts map[string][]byte) {
			name := m.Segments[len(m.Segments)-1].Filename()
			seg := append([]byte(nil), parts[name]...)
			if off < 0 {
				off += len(seg)
			}
			seg[off] ^= 0x40
			parts[name] = seg
		}
	}
	for _, tc := range []struct {
		name, want string
		tamper     func(*wal.Manifest, map[string][]byte)
	}{
		{"page", "page 0 CRC mismatch", flip(0)},
		{"footer", "footer CRC mismatch", flip(-trailerLen - 2)},
		{"truncated", "manifest says", func(m *wal.Manifest, parts map[string][]byte) {
			name := m.Segments[0].Filename()
			parts[name] = parts[name][:len(parts[name])-1]
		}},
		{"missing_file", "missing segment", func(m *wal.Manifest, parts map[string][]byte) {
			delete(parts, m.Segments[1].Filename())
		}},
		{"coverage_gap", "coverage gap", func(m *wal.Manifest, parts map[string][]byte) {
			m.Segments = m.Segments[1:]
		}},
		{"legacy_primary", "legacy triples.csv", func(m *wal.Manifest, parts map[string][]byte) {
			parts["triples.csv"] = []byte("entity,attribute,source\ne,a,s\n")
			m.TriplesCRC, m.Segments = 0x12345678, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			folDir := t.TempDir()
			bad := tamperedPrimary(t, ts.URL, tc.tamper)
			if _, err := Start(followerConfig(bad.URL, folDir)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bootstrap from a %s checkpoint: %v (want %q)", tc.name, err, tc.want)
			}
			for _, dir := range []string{wal.CheckpointDir(folDir), wal.SegmentDir(folDir)} {
				if entries, _ := os.ReadDir(dir); len(entries) != 0 {
					t.Fatalf("refused bootstrap left %d entries in %s", len(entries), dir)
				}
			}
		})
	}
}

// trailerLen is the segment trailer size (footer length, footer CRC,
// magic): an offset just before it lands inside the footer.
const trailerLen = 16
