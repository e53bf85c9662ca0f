package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	d := dist{5, 1, failed, 3, 2, 4, 6, 7, 8, 9}
	if got := d.quantile(0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	// The one failure is the slowest of ten: the 0.9 quantile is still a
	// completed operation, anything above lands on the failure.
	if got := d.quantile(0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := d.quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf", got)
	}
	if got := d.failures(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}
	if got := d.mean(); got != 5 {
		t.Errorf("mean of completed = %v, want 5", got)
	}
	if got := (dist{}).quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
	if got := (dist{3}).quantile(0.01); got != 3 {
		t.Errorf("one-sample quantile = %v, want 3", got)
	}
	// A majority of failures moves the median itself.
	if got := (dist{1, failed, failed}).median(); !math.IsInf(got, 1) {
		t.Errorf("median with 2 of 3 failed = %v, want +Inf", got)
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	// Two operations due 1 ms apart on one worker; the first takes 30 ms.
	// The second must wait for it, and that wait is charged to it: its
	// latency counts from its due time, not from when it was sent.
	ops := []*op{{id: 1, due: 0}, {id: 2, due: time.Millisecond}}
	const stall = 30 * time.Millisecond
	exec := func(o *op, r *result) {
		if o.id == 1 {
			time.Sleep(stall)
		}
	}
	rs := runOpen(time.Now(), ops, time.Second, 1, func() bool { return false }, exec)
	if len(rs) != 2 {
		t.Fatalf("%d results, want 2", len(rs))
	}
	second := rs[1]
	if second.picked < stall {
		t.Errorf("second op picked at %v, before the first finished", second.picked)
	}
	if lat := second.latency(); lat < ms(stall-time.Millisecond) {
		t.Errorf("second op latency %.2f ms, want ≥ %.2f ms (the stall)", lat, ms(stall-time.Millisecond))
	}
	late, queueWait := lateness(rs)
	// The scheduler itself was not held up: it dispatches on time even
	// though the worker is busy.
	if late.quantile(1) > 10 {
		t.Errorf("generator lateness %.2f ms, want the scheduler unaffected by the stall", late.quantile(1))
	}
	if queueWait[1] < ms(stall-time.Millisecond) {
		t.Errorf("queue wait of the second op = %.2f ms, want ≥ the stall", queueWait[1])
	}
	// Every interval is measured from the due time, so they nest.
	for _, r := range rs {
		if !(r.op.due <= r.dispatched && r.dispatched <= r.picked && r.picked <= r.done) {
			t.Errorf("op %d: due %v dispatched %v picked %v done %v out of order", r.op.id, r.op.due, r.dispatched, r.picked, r.done)
		}
	}
}

func TestOpenLoopStopsAtWindowUnlessMore(t *testing.T) {
	ops := []*op{{id: 1, due: 0}, {id: 2, due: 5 * time.Millisecond}, {id: 3, due: 10 * time.Millisecond}}
	var mu sync.Mutex
	ran := 0
	exec := func(*op, *result) { mu.Lock(); ran++; mu.Unlock() }
	rs := runOpen(time.Now(), ops, 5*time.Millisecond, 2, func() bool { return false }, exec)
	if len(rs) != 1 || ran != 1 {
		t.Errorf("window of 5ms ran %d ops (%d results), want 1", ran, len(rs))
	}
	ran = 0
	rs = runOpen(time.Now(), ops, 5*time.Millisecond, 2, func() bool { return true }, exec)
	if len(rs) != 3 || ran != 3 {
		t.Errorf("with more() ran %d ops (%d results), want 3", ran, len(rs))
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 30, end: 50}}, 70},
		{"overlapping", []span{{start: 10, end: 40}, {start: 30, end: 60}}, 50},
		{"nested", []span{{start: 10, end: 80}, {start: 20, end: 30}}, 30},
		{"sticking out", []span{{start: -20, end: 10}, {start: 90, end: 150}}, 80},
		{"outside", []span{{start: 120, end: 130}}, 100},
		{"unsorted chain", []span{{start: 50, end: 70}, {start: 10, end: 30}, {start: 25, end: 55}}, 40},
		{"covering", []span{{start: -5, end: 105}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

const expoBefore = `# HELP refit_total Published refits.
# TYPE refit_total counter
refit_total{mode="full"} 1
refit_total{mode="dirty"} 3
# TYPE wal_append_seconds histogram
wal_append_seconds_bucket{le="0.0001"} 10
wal_append_seconds_bucket{le="0.001"} 20
wal_append_seconds_bucket{le="+Inf"} 20
wal_append_seconds_sum 0.01
wal_append_seconds_count 20
http_requests_total{route="GET /truth",code="200"} 7
`

const expoAfter = `# HELP refit_total Published refits.
# TYPE refit_total counter
refit_total{mode="full"} 2
refit_total{mode="dirty"} 9
# TYPE wal_append_seconds histogram
wal_append_seconds_bucket{le="0.0001"} 10
wal_append_seconds_bucket{le="0.001"} 110
wal_append_seconds_bucket{le="+Inf"} 120
wal_append_seconds_sum 0.11
wal_append_seconds_count 120
http_requests_total{route="GET /truth",code="200"} 17
http_requests_total{route="GET /metrics",code="200"} 2
build_info{version="dev",commit="a \"quoted\" \\ value"} 1
`

func TestExpositionDelta(t *testing.T) {
	before, err := parseExposition(expoBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(expoAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if got := d.sum("refit_total", nil); got != 7 {
		t.Errorf("refits in window = %v, want 7", got)
	}
	if got := d.sum("refit_total", map[string]string{"mode": "dirty"}); got != 6 {
		t.Errorf("dirty refits in window = %v, want 6", got)
	}
	// A series new in the window counts from zero.
	if got := d.sum("http_requests_total", map[string]string{"route": "GET /metrics"}); got != 2 {
		t.Errorf("new series delta = %v, want 2", got)
	}
	if got := d.sum("http_requests_total", nil); got != 12 {
		t.Errorf("requests in window = %v, want 12", got)
	}
	if got := d.histMean("wal_append_seconds", nil); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("mean append = %v, want 0.001", got)
	}
	// The window added 100 observations: 90 in (0.0001, 0.001], 10 above.
	// Its median lies inside the second bucket, its p99 in +Inf, which
	// reports the largest finite bound.
	if got, want := d.histQuantile("wal_append_seconds", nil, 0.5), 0.0001+0.0009*50/90; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 append = %v, want %v", got, want)
	}
	if got := d.histQuantile("wal_append_seconds", nil, 0.99); got != 0.001 {
		t.Errorf("p99 append = %v, want 0.001", got)
	}
	if !d.has("wal_append_seconds") || !d.has("refit_total") {
		t.Error("families present in the scrape are reported absent")
	}
	// A family the program does not expose is absent, not an error.
	if d.has("cluster_fanout_seconds") {
		t.Error("absent family reported present")
	}
	if got := d.histQuantile("cluster_fanout_seconds", nil, 0.99); !math.IsNaN(got) {
		t.Errorf("quantile of an absent family = %v, want NaN", got)
	}
	if got := d.histMean("cluster_fanout_seconds", nil); !math.IsNaN(got) {
		t.Errorf("mean of an absent family = %v, want NaN", got)
	}
	for _, s := range after {
		if s.name == "build_info" && s.labels["commit"] != `a "quoted" \ value` {
			t.Errorf("escaped label parsed as %q", s.labels["commit"])
		}
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue", "x{a=\"b\" 1", "x{a=b} 1", "x notanumber"} {
		if _, err := parseExposition(bad); err == nil {
			t.Errorf("parseExposition(%q) succeeded", bad)
		}
	}
}
