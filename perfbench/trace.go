package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the client sets on a traced request so the handler wrapper
// can link its span to the operation that caused it.
const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Span"
	hdrKind   = "X-Bench-Kind"
)

// span is one timed interval. Times are nanoseconds on the tracer's
// monotonic clock; op groups the spans of one client operation.
type span struct {
	id, parent, op int64
	name, kind     string
	start, end     int64
	bytes          int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// active gates the handler wrappers: spans are recorded only in the
	// window the per-layer metrics describe.
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// newID reserves a span id (0 when untraced).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, parent, op int64, f func() error) error {
	if t == nil {
		return f()
	}
	s := span{id: t.newID(), parent: parent, op: op, name: name, start: t.now()}
	err := f()
	s.end = t.now()
	t.add(s)
	return err
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one tab-separated line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tkind\tstart_ns\tend_ns\tbytes")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.kind, s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap mounts a "handler" span around every ServeHTTP of h that carries
// the trace headers while the tracer is active; other requests (the
// benchmark's own scrapes, untraced operations) pass straight through.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := r.Header.Get(hdrKind)
		if kind == "" || !t.active.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		s := span{id: t.newID(), name: "handler", kind: kind, start: t.now()}
		s.op, _ = strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		s.parent, _ = strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		h.ServeHTTP(cw, r)
		s.end = t.now()
		s.bytes = cw.n
		t.add(s)
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}
