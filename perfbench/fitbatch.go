package main

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"time"

	lt "latenttruth"
)

// paperConfig is LTM at the paper's defaults: 100 sweeps, burn-in 20,
// sample gap 4.
func paperConfig(seed int64) lt.Config {
	return lt.Config{Iterations: 100, BurnIn: 20, SampleGap: 4, Seed: seed}
}

// passOut is what one truthfind-shaped pass produced.
type passOut struct {
	dur      time.Duration
	accuracy float64
	truth    [32]byte // digest of the written truth table
	claims   int
	allocMB  map[string]float64
}

// pass runs the batch pipeline once through the facade: read the triples
// CSV, build the dataset, fit LTM, write the truth table, and evaluate
// against the labels. A traced pass records one span per facade call
// under a "pass" span, and the bytes each call allocated.
func (e *env) pass(cfg lt.Config, traced bool) (passOut, error) {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	out := passOut{allocMB: map[string]float64{}}
	root := tr.newID()
	step := func(name string, f func() error) error {
		if !traced {
			return f()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tr.timed(name, root, 0, f)
		runtime.ReadMemStats(&after)
		out.allocMB[name] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		return err
	}
	var (
		db    *lt.RawDB
		ds    *lt.Dataset
		fit   *lt.FitResult
		truth bytes.Buffer
		m     lt.Metrics
	)
	var t0 int64
	if traced {
		t0 = tr.now()
	}
	start := time.Now()
	err := step("dataset.read", func() (err error) {
		db, err = lt.ReadTriples(bytes.NewReader(e.c.triplesCSV))
		return err
	})
	if err == nil {
		err = step("model.build", func() error { ds = lt.BuildDataset(db); return nil })
	}
	if err == nil {
		err = step("core.fit", func() (err error) { fit, err = lt.NewLTM(cfg).Fit(ds); return err })
	}
	if err == nil {
		err = step("dataset.write", func() error { return lt.WriteTruth(&truth, ds, fit.Result, 0.5) })
	}
	if err == nil {
		err = step("eval", func() (err error) {
			if err = lt.ReadLabels(bytes.NewReader(e.c.labelsCSV), ds); err != nil {
				return err
			}
			m, err = lt.Evaluate(ds, fit.Result, 0.5)
			return err
		})
	}
	if err != nil {
		return out, err
	}
	out.dur = time.Since(start)
	if traced {
		tr.add(span{id: root, name: "pass", start: t0, end: tr.now()})
	}
	out.accuracy = m.Accuracy
	out.truth = sha256.Sum256(truth.Bytes())
	out.claims = ds.NumClaims()
	return out, nil
}

// runFitBatch runs fit-batch: passes for the window, at least
// setupRounds+1 of them. setup_s is the median of the first setupRounds
// passes (the first one cold), fit_s the median of the warm passes
// (all but the first). Then a serving tail on the same corpus gives the
// serving metrics.
func (e *env) runFitBatch() error {
	cfg := paperConfig(e.seed)
	var setups, fits, tracedFits, untracedFits dist
	var first passOut
	var traced []passOut
	passes := 0
	start := time.Now()
	for ; time.Since(start) < e.window || passes <= setupRounds; passes++ {
		tracedPass := e.tr != nil && passes%2 == 1
		o, err := e.pass(cfg, tracedPass)
		if err != nil {
			return err
		}
		if passes == 0 {
			first = o
		}
		e.rep.check(o.truth == first.truth, "pass %d: truth table differs from the first pass", passes)
		e.rep.check(o.accuracy == first.accuracy, "pass %d: accuracy %v, first pass %v", passes, o.accuracy, first.accuracy)
		if passes < setupRounds {
			setups = append(setups, o.dur.Seconds())
		}
		if passes == 0 {
			continue
		}
		fits = append(fits, o.dur.Seconds())
		if tracedPass {
			traced = append(traced, o)
			tracedFits = append(tracedFits, o.dur.Seconds())
		} else {
			untracedFits = append(untracedFits, o.dur.Seconds())
		}
	}
	e.rep.attempted += passes
	e.rep.set("setup_s", setups.median(), len(setups))
	e.rep.set("fit_s", fits.median(), len(fits))
	e.rep.set("fit_accuracy", first.accuracy, passes)
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	e.rep.set("live_heap_mb", float64(mst.HeapAlloc)/(1<<20), 1)
	e.rep.infof("fit-batch: %d passes in %.1f s; paper defaults %+v", passes, time.Since(start).Seconds(), cfg)

	if e.tr != nil {
		spans := map[string]dist{}
		for _, s := range e.tr.all() {
			spans[s.name] = append(spans[s.name], float64(s.dur())/1e9)
		}
		allocs := map[string]dist{}
		for _, o := range traced {
			for k, v := range o.allocMB {
				allocs[k] = append(allocs[k], v)
			}
		}
		r := e.rep
		r.set("dataset.read_s", spans["dataset.read"].median(), len(spans["dataset.read"]))
		r.set("dataset.write_s", spans["dataset.write"].median(), len(spans["dataset.write"]))
		r.set("model.build_s", spans["model.build"].median(), len(spans["model.build"]))
		r.set("model.build_alloc_mb", allocs["model.build"].median(), len(allocs["model.build"]))
		fitS := spans["core.fit"].median()
		r.set("core.fit_s", fitS, len(spans["core.fit"]))
		r.set("core.claim_samples_per_s", float64(first.claims)*float64(cfg.Iterations)/fitS, len(spans["core.fit"]))
		r.set("core.fit_alloc_mb", allocs["core.fit"].median(), len(allocs["core.fit"]))
		r.set("obs.trace_overhead_pct", 100*(tracedFits.median()-untracedFits.median())/untracedFits.median(), len(fits))
		pass := spans["pass"].mean()
		calls := 0.0
		for _, name := range []string{"dataset.read", "model.build", "core.fit", "dataset.write", "eval"} {
			calls += spans[name].mean()
		}
		r.infof("add-up over %d traced passes (means, s): pass %.4f = facade calls %.4f + uncovered %.4f (%.2f%%)",
			len(traced), pass, calls, pass-calls, 100*(pass-calls)/pass)
		r.set("breakdown.client_us", 1e6*pass, len(traced))
		r.set("breakdown.unexplained_pct", 100*(pass-calls)/pass, len(traced))
	}

	// The serving tail: the serving metrics of a user who serves what the
	// batch pipeline found. Untraced, so the per-layer metrics above
	// describe the passes alone.
	return e.runServing(serving{main: mixedPhase, closedMix: mixedMix, batch: true})
}
