package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"time"

	lt "latenttruth"
)

// setupRounds is how many times a run sets its server up; setup_s and
// fit_s report the median round.
const setupRounds = 3

// Operation mixes. No expensive class sits at a share of exactly 1−p of
// a reported percentile, so a percentile never lands on a class boundary.
var (
	readMix = []weighted{
		{kTruthEntity, 0.78}, {kRecords, 0.08}, {kTruthPage, 0.05},
		{kTruthTopk, 0.065}, {kClaimsEntity, 0.025},
	}
	ingestMix = []weighted{
		{kClaimsPost, 0.40}, {kClaimsBatch, 0.10}, {kTruthEntity, 0.40}, {kRecords, 0.10},
	}
	mixedMix = []weighted{
		{kClaimsPost, 0.45}, {kClaimsBatch, 0.05}, {kTruthEntity, 0.45}, {kRecords, 0.05},
	}
)

// refitCycle is the serving default refit interval. Phases with writes
// warm up for one cycle, so the first dirty refit after the anchor fit is
// not measured, and send probes for whole cycles, so where in the cycle a
// phase starts does not bias freshness.
const refitCycle = 2 * time.Second

// probeCycles is the probe span of a window of length w: the whole refit
// cycles that leave one cycle after them for the last probes to show.
func probeCycles(w time.Duration) time.Duration {
	return max(refitCycle, (w-refitCycle)/refitCycle*refitCycle)
}

// mixedPhase measures writes and freshness where the main window has none.
var mixedPhase = phase{rate: 250, mix: mixedMix, probes: 25, warmup: refitCycle, probeFor: 3 * refitCycle, dur: 4 * refitCycle}

// readsOf keeps the read kinds of a mix, for the closed-loop phase.
func readsOf(mix []weighted) []weighted {
	var out []weighted
	for _, w := range mix {
		if isRead(w.kind) {
			out = append(out, w)
		}
	}
	return out
}

// env is one run's shared state.
type env struct {
	seed    int64
	window  time.Duration
	workers int
	tr      *tracer
	rep     *report
	root    string // data directories live here
	c       *corpus
	gen     *gen
}

// setup sets the server up setupRounds times (once when record is
// false), keeping the last, and records setup_s and fit_s when record is
// set. The kept server is mounted on a loopback port.
func (e *env) setup(record bool) (*node, error) {
	rounds := setupRounds
	if !record {
		rounds = 1
	}
	var setups, fits dist
	for round := 0; ; round++ {
		cfg := serveConfig(filepath.Join(e.root, fmt.Sprintf("setup-%d", round)))
		srv, st, err := preload(cfg, e.c.rows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
		fits = append(fits, st.fit.Seconds())
		if round == rounds-1 {
			if record {
				e.rep.set("setup_s", setups.median(), len(setups))
				e.rep.set("fit_s", fits.median(), len(fits))
			}
			n, err := startNode(cfg, srv, e.tr)
			if err != nil {
				srv.Close()
			}
			return n, err
		}
		srv.Close()
		if err := os.RemoveAll(cfg.Durability.DataDir); err != nil {
			return nil, err
		}
		runtime.GC()
	}
}

// phaseRun is one open-loop phase's outcome: every result, and the
// measured ones (due after the warm-up).
type phaseRun struct {
	start    time.Time
	results  []*result
	measured []*result
	probes   *probeBook
	dur      time.Duration // warm-up included
}

// open runs one open-loop phase.
func (e *env) open(c *client, p phase) *phaseRun {
	ops := e.gen.schedule(p)
	scheduled := 0
	for _, o := range ops {
		if o.kind == kProbe {
			scheduled++
		}
	}
	pr := &phaseRun{start: time.Now(), dur: p.warmup + p.dur}
	pr.probes = &probeBook{start: pr.start}
	c.probes = pr.probes
	more := func() bool { return pr.probes.pending() > 0 || pr.probes.resolved() < scheduled }
	pr.results = runOpen(pr.start, ops, pr.dur, e.workers, more, c.exec)
	for _, r := range pr.results {
		if r.op.due >= p.warmup {
			pr.measured = append(pr.measured, r)
		}
	}
	recordOpSpans(e.tr, pr.start, pr.results)
	e.rep.count(pr.results, func(kind string) bool { return kind != kProbeRead })
	return pr
}

// shape describes a latency sample for the report: its quantiles and
// sample count, in ms.
func shape(d dist) string {
	return fmt.Sprintf("p50 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f max %.3f ms (n=%d)",
		d.quantile(0.5), d.quantile(0.9), d.quantile(0.95), d.quantile(0.99), d.quantile(0.999), d.quantile(1), len(d))
}

// latencies returns the latencies of the results whose kind matches.
func latencies(rs []*result, keep func(string) bool) dist {
	var d dist
	for _, r := range rs {
		if keep(r.op.kind) {
			d = append(d, r.latency())
		}
	}
	return d
}

// serving is a serving workload's shape.
type serving struct {
	main      phase
	closedMix []weighted
	// epilogue, when set, is a mixed read/write phase after the main
	// window that measures writes and freshness on a workload whose main
	// window has none.
	epilogue *phase
	// batch marks fit-batch's serving tail: its setup and window metrics
	// come from the passes, not from here.
	batch bool
}

// runServing runs a serving workload end to end: setup, the main
// open-loop window, the closed loop, the epilogue, the end-of-run checks
// and the recovery.
func (e *env) runServing(s serving) error {
	n, err := e.setup(!s.batch)
	if err != nil {
		return err
	}
	defer n.close()
	e.c.rows, e.c.triplesCSV, e.c.labelsCSV = nil, nil, nil
	c := newClient(n.url, e.workers, e.tr)
	defer c.close()
	ack := 0
	acked := func(rs []*result) {
		for _, r := range rs {
			ack += r.accepted
		}
	}

	// The closed loop runs first, on the quiescent server: nothing is
	// pending and no refit competes with it.
	runtime.GC()
	closedOps := e.gen.closedOps(readsOf(s.closedMix), 40000*max(1, int(e.window/(4*time.Second))))
	cres, rps := runClosed(time.Now(), closedOps, e.window/4, e.workers, c.exec)
	e.rep.count(cres, func(string) bool { return true })
	e.rep.set("read_max_rps", rps, len(cres))
	e.rep.infof("phase closed: %d connections for %s, %d reads", e.workers, e.window/4, len(cres))

	var lay *layerProbe
	if e.tr != nil && !s.batch {
		lay = e.startLayers(n, c)
		c.traceEvery = 2
	}
	main := e.open(c, s.main)
	c.traceEvery = 0
	acked(main.results)
	if lay != nil {
		if err := lay.finish(e, n, c, main); err != nil {
			return err
		}
	}
	if !s.batch {
		// Fold what the window wrote, so the heap is that of a settled
		// state rather than of wherever a refit happened to be.
		if ack > 0 {
			if _, err := exchange(c.hc, http.MethodPost, n.url, "/refit"); err != nil {
				return fmt.Errorf("settling after the window: %w", err)
			}
		}
		runtime.GC()
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		e.rep.set("live_heap_mb", float64(mst.HeapAlloc)/(1<<20), 1)
	}
	e.rep.infof("phase main: offered %.0f ops/s + %.1f probes/s for %s after a %s warm-up; mix %v",
		s.main.rate, s.main.probes, s.main.dur, s.main.warmup, s.main.mix)
	late, qw := lateness(main.measured)
	e.rep.infof("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms (n=%d); queue wait p99 %.3f ms",
		late.median(), late.quantile(0.99), late.quantile(1), len(late), qw.quantile(0.99))

	reads := latencies(main.measured, isRead)
	e.rep.pct("read_p50_ms", reads, 0.5)
	e.rep.pct("read_p99_ms", reads, 0.99)
	e.rep.infof("reads: %s", shape(reads))

	writesFrom := main
	if p := s.epilogue; p != nil {
		writesFrom = e.open(c, *p)
		acked(writesFrom.results)
		e.rep.infof("phase epilogue: offered %.0f ops/s + %.1f probes/s for %s after a %s warm-up; mix %v",
			p.rate, p.probes, p.dur, p.warmup, p.mix)
	}
	writes := latencies(writesFrom.measured, isWrite)
	e.rep.pct("write_p50_ms", writes, 0.5)
	e.rep.pct("write_p99_ms", writes, 0.99)
	e.rep.infof("writes: %s", shape(writes))
	fresh := writesFrom.probes.freshness()
	e.rep.pct("freshness_p50_ms", fresh, 0.5)
	e.rep.pct("freshness_p90_ms", fresh, 0.9)
	e.rep.check(len(fresh) > 0, "no freshness probe ran")
	e.rep.check(fresh.failures() == 0, "%d of %d probes never became visible", fresh.failures(), len(fresh))
	e.rep.failed += fresh.failures()

	// Every acknowledged claim was ingested, and nothing else.
	var st struct {
		IngestedTotal int64 `json:"ingested_total"`
	}
	body, err := fetch(c.hc, n.url, "/stats")
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		return fmt.Errorf("final /stats: %w", err)
	}
	want := int64(e.c.nRows + ack)
	e.rep.check(st.IngestedTotal == want, "/stats ingested_total = %d, want %d (preload %d + acknowledged %d)",
		st.IngestedTotal, want, e.c.nRows, ack)

	if !s.batch {
		sn := n.server().Snapshot()
		acc, err := e.c.accuracy(func(entity string) (map[string]bool, error) {
			return snapshotDecisions(sn, entity)
		})
		if err != nil {
			return fmt.Errorf("scoring served truth: %w", err)
		}
		e.rep.set("fit_accuracy", acc, e.c.nLabel)
	}
	return e.recover(n, c)
}

// fittedAt matches the publish timestamp of a truth body, the one field a
// recovered snapshot legitimately re-stamps.
var fittedAt = regexp.MustCompile(`"fitted_at":"[^"]*"`)

// reopenRounds is how many times recover closes and reopens the server;
// recovery_s reports the median.
const reopenRounds = 3

// recover closes the server and reopens it from its data directory,
// reopenRounds times, timing each reopen until the server serves again,
// and checks that the truth bodies of the hottest entities are unchanged.
func (e *env) recover(n *node, c *client) error {
	sample := e.gen.entities[:20]
	before := map[string]string{}
	for _, ent := range sample {
		b, err := fetch(c.hc, n.url, "/truth?entity="+ent)
		if err != nil {
			return fmt.Errorf("before reopen: %w", err)
		}
		before[ent] = fittedAt.ReplaceAllString(string(b), "")
	}
	var took dist
	for i := 0; i < reopenRounds; i++ {
		t0 := time.Now()
		if err := n.reopen(); err != nil {
			return err
		}
		for {
			if _, err := fetch(c.hc, n.url, "/truth?entity="+sample[0]); err == nil {
				break
			} else if time.Since(t0) > time.Minute {
				return fmt.Errorf("not serving after reopen: %w", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	e.rep.set("recovery_s", took.median(), len(took))
	e.rep.infof("recovery: %d reopens, each until served: %.3f s", len(took), took)
	for _, ent := range sample {
		b, err := fetch(c.hc, n.url, "/truth?entity="+ent)
		if err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
		got := fittedAt.ReplaceAllString(string(b), "")
		e.rep.check(got == before[ent], "truth of %s changed across reopen:\n before %.300s\n after  %.300s", ent, before[ent], got)
	}
	return nil
}

// watcher samples the server's published snapshots and backlog while the
// main window runs; it owns one goroutine, stopped by stop.
type watcher struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	dirty   dist // dirty entities / entities, per dirty refit
	pending dist
}

func watch(n *node) *watcher {
	w := &watcher{stopc: make(chan struct{})}
	seq := n.server().Snapshot().Seq
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
			srv := n.server()
			w.pending = append(w.pending, float64(srv.Pending()))
			if sn := srv.Snapshot(); sn.Seq != seq {
				seq = sn.Seq
				if sn.Mode == lt.RefitDirty && sn.Stats.Entities > 0 {
					w.dirty = append(w.dirty, float64(sn.DirtyEntities)/float64(sn.Stats.Entities))
				}
			}
		}
	}()
	return w
}

// stop ends the sampling; the samples are safe to read once it returns.
func (w *watcher) stop() {
	close(w.stopc)
	w.wg.Wait()
}
