package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"

	lt "latenttruth"
)

// layerProbe holds what the traced run captures around the main window
// of a serving workload: /metrics before it, and a watcher of published
// snapshots during it.
type layerProbe struct {
	before scrape
	w      *watcher
}

// scrapeMetrics GETs and parses one /metrics exposition.
func scrapeMetrics(c *client, base string) (scrape, error) {
	b, err := fetch(c.hc, base, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(string(b))
}

func (e *env) startLayers(n *node, c *client) *layerProbe {
	before, err := scrapeMetrics(c, n.url)
	e.rep.check(err == nil, "scraping /metrics: %v", err)
	lp := &layerProbe{before: before, w: watch(n)}
	e.tr.active.Store(true)
	return lp
}

// storageStats is the /stats storage block.
type storageStats struct {
	Storage struct {
		Resident        float64 `json:"resident_rows"`
		SegmentsScanned float64 `json:"segments_scanned"`
		SegmentsSkipped float64 `json:"segments_skipped"`
	} `json:"storage"`
	IngestedTotal float64 `json:"ingested_total"`
}

// finish closes the traced window and computes every per-layer metric a
// serving workload's layers produce.
func (lp *layerProbe) finish(e *env, n *node, c *client, main *phaseRun) error {
	e.tr.active.Store(false)
	lp.w.stop()
	window := main.dur.Seconds()
	r := e.rep

	// Program-side timings: deltas of the server's exposition.
	after, err := scrapeMetrics(c, n.url)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	nodes := delta(lp.before, after)
	var st storageStats
	b, err := fetch(c.hc, n.url, "/stats")
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err != nil {
		return fmt.Errorf("reading /stats: %w", err)
	}
	for _, fam := range []string{"refit_total", "refit_seconds", "refit_phase_seconds", "refit_decision_flips_total",
		"wal_append_seconds", "wal_fsync_seconds", "checkpoint_seconds"} {
		if !nodes.has(fam) {
			r.infof("metrics family %s absent from /metrics", fam)
		}
	}
	refits := nodes.sum("refit_total", nil)
	r.set("serve.refits", refits, 1)
	r.set("serve.full_refits", nodes.sum("refit_total", map[string]string{"mode": "full"}), 1)
	r.set("serve.dirty_refits", nodes.sum("refit_total", map[string]string{"mode": "dirty"}), 1)
	r.set("serve.refit_busy_frac", nodes.sum("refit_seconds_sum", nil)/window, 1)
	for _, ph := range []string{"drain", "fit", "publish"} {
		r.set("serve.refit_phase_ms."+ph, 1e3*nodes.histMean("refit_phase_seconds", map[string]string{"phase": ph}), int(refits))
	}
	r.set("core.fit_s", nodes.histMean("refit_phase_seconds", map[string]string{"phase": "fit"}), int(refits))
	r.set("serve.decision_flips_per_refit", ratio(nodes.sum("refit_decision_flips_total", nil), refits), int(refits))
	r.set("serve.dirty_fraction", lp.w.dirty.mean(), len(lp.w.dirty))
	r.pct("serve.pending_p99", lp.w.pending, 0.99)
	scans := st.Storage.SegmentsSkipped + st.Storage.SegmentsScanned
	r.set("store.segments_skipped_ratio", ratio(st.Storage.SegmentsSkipped, scans), int(scans))
	r.set("store.resident_rows", st.Storage.Resident, 1)

	appends := nodes.sum("wal_append_seconds_count", nil)
	r.set("wal.append_p50_us", 1e6*nodes.histQuantile("wal_append_seconds", nil, 0.5), int(appends))
	r.set("wal.append_p99_us", 1e6*nodes.histQuantile("wal_append_seconds", nil, 0.99), int(appends))
	fsyncs := nodes.sum("wal_fsync_seconds_count", nil)
	r.set("wal.fsync_p99_us", 1e6*nodes.histQuantile("wal_fsync_seconds", nil, 0.99), int(fsyncs))
	r.set("wal.fsyncs_per_batch", ratio(fsyncs, appends), int(appends))
	checkpoints := nodes.sum("checkpoint_seconds_count", nil)
	r.set("wal.checkpoint_ms", 1e3*nodes.histMean("checkpoint_seconds", nil), int(checkpoints))
	r.set("wal.checkpoint_busy_frac", nodes.sum("checkpoint_seconds_sum", nil)/window, int(checkpoints))
	r.set("wal.disk_bytes_per_claim", float64(dirBytes(n.cfg.Durability.DataDir))/st.IngestedTotal, int(st.IngestedTotal))

	spans := e.tr.all()
	byKind := map[string]dist{}
	bytesByKind := map[string]dist{}
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
		if s.name == "handler" {
			byKind[s.kind] = append(byKind[s.kind], us(s.dur()))
			bytesByKind[s.kind] = append(bytesByKind[s.kind], float64(s.bytes))
		}
	}
	for _, op := range serveOps {
		r.pct("serve.handler_p50_us."+op, byKind[op], 0.5)
		r.pct("serve.handler_p99_us."+op, byKind[op], 0.99)
		r.set("serve.resp_bytes."+op, bytesByKind[op].mean(), len(bytesByKind[op]))
	}

	late, qw := lateness(main.measured)
	r.pct("loadgen.late_p99_ms", late, 0.99)
	r.pct("loadgen.queue_wait_p99_ms", qw, 0.99)

	query := e.replay(n.server().Snapshot(), main.results)

	// The add-up: per traced read, client time = queue wait + net +
	// handler + what no span covers (client-side decoding and checks, the
	// op span's self time); net is each request span's self time around
	// its handler span; handler = query (the replay) + handler self time.
	var netOver, client, queue, netT, handler, qry, uncovered dist
	for _, s := range spans {
		if s.name != "op" || !isRead(s.kind) {
			continue
		}
		var q, h, nt float64
		for _, ch := range children[s.id] {
			switch ch.name {
			case "queue":
				q += float64(ch.dur())
			case "request":
				var hs []span
				for _, g := range children[ch.id] {
					if g.name == "handler" {
						hs = append(hs, g)
						h += float64(g.dur())
					}
				}
				self := float64(selfTime(ch, hs))
				nt += self
				netOver = append(netOver, self/1e3)
			}
		}
		qv, ok := query[s.op]
		if !ok || h == 0 {
			continue
		}
		client = append(client, float64(s.dur())/1e3)
		queue = append(queue, q/1e3)
		netT = append(netT, nt/1e3)
		handler = append(handler, h/1e3)
		qry = append(qry, qv/1e3)
		uncovered = append(uncovered, float64(selfTime(s, children[s.id]))/1e3)
	}
	r.pct("net.overhead_p50_us", netOver, 0.5)
	cnt := len(client)
	r.set("breakdown.client_us", client.mean(), cnt)
	r.set("breakdown.queue_wait_us", queue.mean(), cnt)
	r.set("breakdown.net_us", netT.mean(), cnt)
	r.set("breakdown.handler_us", handler.mean(), cnt)
	r.set("breakdown.query_us", qry.mean(), cnt)
	r.set("breakdown.handler_self_us", handler.mean()-qry.mean(), cnt)
	r.set("breakdown.unexplained_pct", 100*uncovered.mean()/client.mean(), cnt)
	r.infof("add-up over %d traced reads (means, us): client %.1f = queue %.1f + net %.1f + handler %.1f [query %.1f + self %.1f] + uncovered %.1f (%.2f%%)",
		cnt, client.mean(), queue.mean(), netT.mean(), handler.mean(), qry.mean(), handler.mean()-qry.mean(),
		uncovered.mean(), 100*uncovered.mean()/client.mean())

	// Tracing overhead: traced against untraced reads of the same window.
	var tr, un dist
	for _, x := range main.measured {
		if isRead(x.op.kind) {
			if x.traced {
				tr = append(tr, x.latency())
			} else {
				un = append(un, x.latency())
			}
		}
	}
	r.set("obs.trace_overhead_pct", 100*(tr.median()-un.median())/un.median(), len(tr)+len(un))
	return nil
}

// replay re-runs the window's traced read options through the facade's
// query engine on the final snapshots, one "query" span per operation,
// and returns each operation's query time in ns.
func (e *env) replay(sn *lt.TruthSnapshot, rs []*result) map[int64]float64 {
	times := map[int64]float64{}
	shape := map[string]string{kTruthEntity: "entity", kTruthPage: "page", kTruthTopk: "topk", kRecords: "records"}
	lat := map[string]dist{}
	rows := map[string]dist{}
	for _, x := range rs {
		sh, ok := shape[x.op.kind]
		if !ok || !x.traced || x.err != nil {
			continue
		}
		o := x.op
		start := e.tr.now()
		nrows := 0
		err := e.tr.timed("query", 0, o.id, func() (err error) {
			nrows, err = runQuery(sn, o)
			return err
		})
		d := float64(e.tr.now() - start)
		if err != nil {
			e.rep.check(false, "replaying %s: %v", o.kind, err)
			continue
		}
		times[o.id] = d
		lat[sh] = append(lat[sh], d/1e3)
		rows[sh] = append(rows[sh], float64(nrows))
	}
	r := e.rep
	r.pct("query.truth_us.entity", lat["entity"], 0.5)
	r.pct("query.truth_us.page", lat["page"], 0.5)
	r.pct("query.truth_us.topk", lat["topk"], 0.5)
	r.pct("query.records_us", lat["records"], 0.5)
	for _, sh := range []string{"entity", "page", "topk", "records"} {
		r.set("query.rows_per_op."+sh, rows[sh].mean(), len(rows[sh]))
	}
	return times
}

// runQuery answers one read operation through QueryTruth/QueryRecords
// and returns the rows it produced.
func runQuery(sn *lt.TruthSnapshot, o *op) (int, error) {
	if o.kind == kRecords {
		recs, err := lt.QueryRecords(sn, lt.RecordQueryOptions{Entity: o.entity})
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			if _, ok := recs.Next(); !ok {
				return n, nil
			}
			n++
		}
	}
	opts := lt.TruthQueryOptions{Entity: o.entity}
	pages := 1
	switch o.kind {
	case kTruthTopk:
		opts = lt.TruthQueryOptions{TopK: topK}
	case kTruthPage:
		opts = lt.TruthQueryOptions{Source: o.source, MinProb: o.minProb, Limit: pageLimit}
		pages = pagesPerScan
	}
	n := 0
	for p := 0; p < pages; p++ {
		rows, err := lt.QueryTruth(sn, opts)
		if err != nil {
			return n, err
		}
		for {
			if _, ok := rows.Next(); !ok {
				break
			}
			n++
		}
		if opts.Cursor = rows.NextCursor(); opts.Cursor == "" {
			break
		}
	}
	return n, nil
}

// ratio is a/b, NaN when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk (a pruned checkpoint) is not counted
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
