package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Operation kinds. Each names the handler operation it exercises; the
// per-layer metrics are keyed by these names.
const (
	kTruthEntity  = "truth_entity"
	kRecords      = "records"
	kTruthPage    = "truth_page"
	kTruthTopk    = "truth_topk"
	kClaimsEntity = "claims_entity"
	kClaimsPost   = "claims_post" // a one-claim batch
	kClaimsBatch  = "claims_batch"
	kProbe        = "probe"      // write of a never-seen entity
	kProbeRead    = "probe_read" // poll of the oldest invisible probe
)

// isRead and isWrite classify kinds for the end-to-end metrics; probes
// and their polls are neither and feed the freshness metrics instead.
func isRead(kind string) bool {
	switch kind {
	case kTruthEntity, kRecords, kTruthPage, kTruthTopk, kClaimsEntity:
		return true
	}
	return false
}

func isWrite(kind string) bool { return kind == kClaimsPost || kind == kClaimsBatch }

// handlerOp is the serve-layer operation a kind is reported under: both
// write shapes are one POST /claims handler.
func handlerOp(kind string) string {
	if kind == kClaimsBatch {
		return kClaimsPost
	}
	return kind
}

// op is one scheduled client operation. Its parameters are drawn when
// the schedule is generated, so a seed fixes the whole load.
type op struct {
	id      int64
	kind    string
	due     time.Duration // from the phase start
	entity  string
	source  string
	minProb float64
	claims  []claim
}

// The fixed shapes of the scan reads: a source scan follows up to
// pagesPerScan pages of pageLimit rows, a top-k read asks for topK rows.
const (
	pageLimit    = 50
	pagesPerScan = 3
	topK         = 20
)

// claim is the wire form of one triple.
type claim struct {
	Entity    string `json:"entity"`
	Attribute string `json:"attribute"`
	Source    string `json:"source"`
}

// result is what happened to one operation. Times are from the phase
// start: dispatched is when the scheduler handed it to the workers,
// picked when a worker began it, done when its last response was read.
type result struct {
	op                       *op
	dispatched, picked, done time.Duration
	err                      error
	accepted                 int
	traced                   bool
	span                     int64 // the op span id when traced
}

// latency is the operation's time from its due time, +Inf when it failed.
func (r *result) latency() float64 {
	if r.err != nil {
		return failed
	}
	return float64(r.done-r.op.due) / float64(time.Millisecond)
}

// weighted is one entry of an operation mix.
type weighted struct {
	kind   string
	weight float64
}

// phase describes one open-loop phase: Poisson arrivals of the mix at
// rate ops/s, a separate Poisson stream of freshness probes, and probe
// polls every pollEvery until the probes are visible. The mix runs for
// warmup+dur; only operations due after the warm-up are measured. Probes
// are sent for the first probeFor of the measured part, a whole number
// of refit cycles, and the rest of it leaves them time to show.
type phase struct {
	rate     float64
	mix      []weighted
	probes   float64
	probeFor time.Duration
	warmup   time.Duration
	dur      time.Duration
}

// pollEvery is the probe poll cadence, and probeGrace how long after the
// window polling continues before an invisible probe counts as failed.
const (
	pollEvery  = 20 * time.Millisecond
	probeGrace = 20 * time.Second
)

// gen draws operations from a seeded source over a corpus's entities.
type gen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	entities []string // in zipf rank order
	sources  []string
	nextID   int64
	writeSeq int
	probeTag string
}

func newGen(seed int64, entities, sources []string, probeTag string) *gen {
	rng := rand.New(rand.NewSource(seed))
	ranked := append([]string(nil), entities...)
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	return &gen{
		rng: rng,
		// P(rank k) ∝ (10+k)^-1.1: zipfian, but the single hottest entity
		// draws under 2% of the reads, so which entity a seed makes hot
		// does not decide the run.
		zipf:     rand.NewZipf(rng, 1.1, 10, uint64(len(ranked)-1)),
		entities: ranked,
		sources:  sources,
		probeTag: probeTag,
	}
}

func (g *gen) entity() string { return g.entities[g.zipf.Uint64()] }
func (g *gen) source() string { return g.sources[g.rng.Intn(len(g.sources))] }

// writeClaims draws n claims of never-asserted attributes on zipfian
// entities from random sources, so every one of them is accepted.
func (g *gen) writeClaims(n int) []claim {
	out := make([]claim, n)
	for i := range out {
		g.writeSeq++
		out[i] = claim{Entity: g.entity(), Attribute: "w" + strconv.Itoa(g.writeSeq), Source: g.source()}
	}
	return out
}

// make draws one operation of kind due at t.
func (g *gen) make(kind string, t time.Duration) *op {
	g.nextID++
	o := &op{id: g.nextID, kind: kind, due: t}
	switch kind {
	case kTruthEntity, kRecords, kClaimsEntity:
		o.entity = g.entity()
	case kTruthPage:
		o.source = g.source()
		o.minProb = []float64{0.5, 0.9}[g.rng.Intn(2)]
	case kClaimsPost:
		o.claims = g.writeClaims(1)
	case kClaimsBatch:
		o.claims = g.writeClaims(20)
	case kProbe:
		o.entity = "probe-" + g.probeTag + "-" + strconv.Itoa(int(o.id))
		o.claims = []claim{{Entity: o.entity, Attribute: "seen", Source: g.sources[0]}}
	}
	return o
}

// schedule draws a phase's operations in due order: the mix, the probes
// and, when there are probes, polls through the grace period.
func (g *gen) schedule(p phase) []*op {
	var ops []*op
	exp := func(rate float64) time.Duration {
		return time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
	}
	end := p.warmup + p.dur
	if p.rate > 0 {
		var due []time.Duration
		for t := exp(p.rate); t < end; t += exp(p.rate) {
			due = append(due, t)
		}
		for i, k := range g.kinds(p.mix, len(due)) {
			ops = append(ops, g.make(k, due[i]))
		}
	}
	if p.probes > 0 {
		for t := p.warmup + exp(p.probes); t < p.warmup+p.probeFor; t += exp(p.probes) {
			ops = append(ops, g.make(kProbe, t))
		}
		for t := p.warmup + pollEvery; t < end+probeGrace; t += pollEvery {
			ops = append(ops, g.make(kProbeRead, t))
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// kinds draws n operation kinds in exact mix proportions, shuffled
// within blocks of 200: how many expensive operations a run holds is
// then fixed by the mix, not by the luck of the draw.
func (g *gen) kinds(mix []weighted, n int) []string {
	total := 0.0
	for _, w := range mix {
		total += w.weight
	}
	const block = 200
	var b []string
	for _, w := range mix {
		for i := 0; i < int(w.weight/total*block+0.5); i++ {
			b = append(b, w.kind)
		}
	}
	out := make([]string, 0, n+len(b))
	for len(out) < n {
		g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:n]
}

// closedOps draws n operations for a closed loop (no due times).
func (g *gen) closedOps(mix []weighted, n int) []*op {
	ops := make([]*op, n)
	for i, k := range g.kinds(mix, n) {
		ops[i] = g.make(k, 0)
	}
	return ops
}

// runOpen is the open-loop generator. The calling goroutine, locked to
// its thread, is the one scheduler: it sleeps until each operation is
// due and hands it to workers goroutines, each of which owns one client
// connection. An operation past the window is only dispatched while
// more() holds (the probe polls of the grace period). Every result keeps
// its due time, so a stall is charged to all the operations it delays.
func runOpen(start time.Time, ops []*op, window time.Duration, workers int, more func() bool, exec func(*op, *result)) []*result {
	results := make([]*result, len(ops))
	// Sized to the number of sends: the scheduler never blocks on a busy
	// worker pool, so its lateness measures only its own timer wake-ups.
	queue := make(chan int, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := results[i]
				r.picked = time.Since(start)
				exec(r.op, r)
				r.done = time.Since(start)
			}
		}()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := 0
	for i, o := range ops {
		if o.due >= window && !more() {
			break
		}
		waitUntil(start, o.due)
		results[i] = &result{op: o, dispatched: time.Since(start)}
		queue <- i
		n++
	}
	close(queue)
	wg.Wait()
	return results[:n]
}

// waitUntil returns at start+due. It sleeps in the kernel on the calling
// goroutine's own thread (runOpen locks it): a Go timer on a small VM
// often fires up to a millisecond late, which would add up to that much
// to every open-loop latency, while nanosleep wakes within about 0.1 ms
// and, unlike spinning, leaves the CPU to the system under test.
func waitUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// runClosed runs a closed loop: workers goroutines each send their next
// operation as soon as the previous one completes, until dur has passed.
// It returns the completed results (their latency is measured from the
// send, since there is no schedule) and the completion rate: the median
// over the loop's half-second slices of the operations completed per
// second, so one stall does not decide the run.
func runClosed(start time.Time, ops []*op, dur time.Duration, workers int, exec func(*op, *result)) ([]*result, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []*result
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*result
			for {
				i := next.Add(1) - 1
				if time.Since(start) >= dur || int(i) >= len(ops) {
					break
				}
				o := ops[i]
				r := &result{op: o, picked: time.Since(start)}
				o.due = r.picked
				r.dispatched = r.picked
				exec(o, r)
				r.done = time.Since(start)
				if r.done <= dur {
					mine = append(mine, r)
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	const slice = 500 * time.Millisecond
	done := make(dist, int(dur/slice))
	for _, r := range out {
		if i := int(r.done / slice); r.err == nil && i < len(done) {
			done[i]++
		}
	}
	if len(done) == 0 {
		return out, math.NaN()
	}
	return out, done.median() / slice.Seconds()
}

// lateness returns, in ms, how late the scheduler dispatched each
// operation, and how long each waited for a worker, both from its due time.
func lateness(rs []*result) (late, queueWait dist) {
	for _, r := range rs {
		late = append(late, ms(r.dispatched-r.op.due))
		queueWait = append(queueWait, ms(r.picked-r.op.due))
	}
	return late, queueWait
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(ns int64) float64 { return float64(ns) / 1e3 }
