package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strings"
	"time"

	"latenttruth/internal/wal"
)

// Sentinel outcomes of primary requests the follower loop branches on.
var (
	// errGone is a 410 from /replication/wal: the history this follower
	// needs was truncated (its cursor was evicted) — re-bootstrap.
	errGone = errors.New("replica: requested log history is gone")
	// errNoCheckpoint is a 404 from /replication/checkpoint: the primary
	// has never refitted, so there is nothing to bootstrap — start empty
	// and tail from sequence 1.
	errNoCheckpoint = errors.New("replica: primary has no checkpoint yet")
)

// client performs the two replication requests against one primary.
type client struct {
	base *url.URL
	hc   *http.Client
}

func newClient(primary string, hc *http.Client) (*client, error) {
	base, err := url.Parse(primary)
	if err != nil {
		return nil, fmt.Errorf("replica: primary URL %q: %w", primary, err)
	}
	if base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("replica: primary URL %q needs a scheme and host", primary)
	}
	if hc == nil {
		hc = &http.Client{}
	}
	return &client{base: base, hc: hc}, nil
}

// endpoint resolves a replication path plus query on the primary.
func (c *client) endpoint(path string, query url.Values) string {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = query.Encode()
	return u.String()
}

// checkpointBundle is a downloaded checkpoint, CRC-verified and ready to
// install. posterior is nil when the primary's checkpoint predates
// snapshot restoration (manifest PosteriorCRC zero); segments holds the
// verbatim segment files, aligned with manifest.Segments.
type checkpointBundle struct {
	manifest  wal.Manifest
	quality   []byte
	posterior []byte
	segments  [][]byte
}

// fetchCheckpoint downloads and verifies the primary's newest checkpoint.
func (c *client) fetchCheckpoint(ctx context.Context) (*checkpointBundle, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint("/replication/checkpoint", nil), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: fetching checkpoint: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, errNoCheckpoint
	default:
		return nil, fmt.Errorf("replica: fetching checkpoint: status %d", resp.StatusCode)
	}
	_, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || params["boundary"] == "" {
		return nil, fmt.Errorf("replica: checkpoint response is not multipart (%v)", err)
	}
	parts := map[string][]byte{}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("replica: reading checkpoint stream: %w", err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			return nil, fmt.Errorf("replica: reading checkpoint part %q: %w", p.FileName(), err)
		}
		parts[p.FileName()] = data
	}

	b := &checkpointBundle{quality: parts["quality.csv"], posterior: parts[wal.PosteriorName]}
	raw, ok := parts["MANIFEST.json"]
	if !ok {
		return nil, fmt.Errorf("replica: checkpoint stream is missing MANIFEST.json")
	}
	if err := json.Unmarshal(raw, &b.manifest); err != nil {
		return nil, fmt.Errorf("replica: checkpoint manifest: %w", err)
	}
	if b.manifest.Legacy() {
		return nil, fmt.Errorf("replica: the primary's newest checkpoint (seq %d) is in the legacy triples.csv format, which followers cannot bootstrap from; "+
			"it is migrated to segments at the primary's next checkpoint — refit the primary, then start the follower again", b.manifest.Seq)
	}
	// Verify before installing: a truncated or corrupted transfer must
	// never become local state. Segment files are checked against their
	// refs when installed (size and footer CRC first, then every page).
	if _, err := b.manifest.SegmentRows(); err != nil {
		return nil, fmt.Errorf("replica: checkpoint manifest: %w", err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	if got := crc32.Checksum(b.quality, castagnoli); got != b.manifest.QualityCRC {
		return nil, fmt.Errorf("replica: checkpoint quality CRC %08x, manifest says %08x", got, b.manifest.QualityCRC)
	}
	if b.manifest.PosteriorCRC != 0 {
		if b.posterior == nil {
			return nil, fmt.Errorf("replica: checkpoint stream is missing %s (manifest expects CRC %08x)",
				wal.PosteriorName, b.manifest.PosteriorCRC)
		}
		if got := crc32.Checksum(b.posterior, castagnoli); got != b.manifest.PosteriorCRC {
			return nil, fmt.Errorf("replica: checkpoint posterior CRC %08x, manifest says %08x", got, b.manifest.PosteriorCRC)
		}
	} else {
		b.posterior = nil // an unexpected part is not installed unverified
	}
	for _, ref := range b.manifest.Segments {
		data, ok := parts[ref.Filename()]
		if !ok {
			return nil, fmt.Errorf("replica: checkpoint stream is missing segment %s", ref.Filename())
		}
		b.segments = append(b.segments, data)
	}
	return b, nil
}

// pollWAL long-polls the primary's log from seq, identifying this
// follower so the primary maintains its truncation cursor. It returns the
// decoded records (possibly none) in sequence order.
func (c *client) pollWAL(ctx context.Context, from uint64, id string, wait time.Duration) ([]wal.Batch, error) {
	q := url.Values{}
	q.Set("from", fmt.Sprint(from))
	q.Set("follower", id)
	q.Set("wait", wait.String())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint("/replication/wal", q), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: polling wal: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return nil, errGone
	default:
		return nil, fmt.Errorf("replica: polling wal: status %d", resp.StatusCode)
	}
	var out []wal.Batch
	next := from
	br := bufio.NewReader(resp.Body)
	for {
		b, err := wal.DecodeBatch(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		// The log is contiguous, so a poll from N yields N, N+1, ...; any
		// other shape is a protocol violation worth failing loudly on.
		if b.Seq != next {
			return nil, fmt.Errorf("replica: stream out of order: got seq %d, want %d", b.Seq, next)
		}
		next++
		out = append(out, b)
	}
}
