package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// client drives the server's HTTP API over a transport
// limited to workers connections. It checks every response and records
// the first failures.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	// traceEvery traces one operation in traceEvery (0: none); the others
	// run untraced, which is what obs.trace_overhead_pct compares against.
	traceEvery int64
	probes     *probeBook
}

func newClient(base string, workers int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// truthBody is the GET /truth response shape the checks read.
type truthBody struct {
	Seq        *int64 `json:"seq"`
	Facts      *int   `json:"facts"`
	NextCursor string `json:"next_cursor"`
	Rows       []struct {
		Entity      string  `json:"entity"`
		Attribute   string  `json:"attribute"`
		Probability float64 `json:"probability"`
		Predicted   bool    `json:"predicted"`
	} `json:"rows"`
}

// call is one HTTP exchange of an operation.
type call struct {
	method, path string
	body         []byte
	want         int
}

// do performs one request, checks its status, decodes the JSON body
// into v, and returns the raw body. On a traced operation it records a
// "request" span, the parent of the handler span the server side adds.
func (c *client) do(o *op, traced bool, parent int64, cl call, v any) ([]byte, error) {
	var rd io.Reader
	if cl.body != nil {
		rd = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequest(cl.method, c.base+cl.path, rd)
	if err != nil {
		return nil, err
	}
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp span
	if traced {
		sp = span{id: c.tr.newID(), parent: parent, op: o.id, name: "request", kind: handlerOp(o.kind), start: c.tr.now()}
		req.Header.Set(hdrOp, strconv.FormatInt(o.id, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(sp.id, 10))
		req.Header.Set(hdrKind, sp.kind)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		sp.end = c.tr.now()
		sp.bytes = int64(len(body))
		c.tr.add(sp)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != cl.want {
		return body, fmt.Errorf("%s %s: status %d, want %d: %.200s", cl.method, cl.path, resp.StatusCode, cl.want, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return body, fmt.Errorf("%s %s: decoding response: %v", cl.method, cl.path, err)
		}
	}
	return body, nil
}

// exec runs one operation and fills its outcome. It is the exec
// callback of runOpen and runClosed. A traced operation's own span is
// recorded afterwards by recordOpSpans, once its due time is known on
// the tracer's clock.
func (c *client) exec(o *op, r *result) {
	r.traced = c.traceEvery > 0 && o.id%c.traceEvery == 0
	if o.kind == kProbe {
		defer c.probes.resolve()
	}
	if r.traced {
		r.span = c.tr.newID()
	}
	r.err = c.run(o, r, r.span)
}

// recordOpSpans adds, for every traced operation of a phase that began
// at start, its "op" span from due time to completion and the "queue"
// span from due time to the worker picking it up.
func recordOpSpans(tr *tracer, start time.Time, rs []*result) {
	if tr == nil {
		return
	}
	off := int64(start.Sub(tr.t0))
	for _, r := range rs {
		if !r.traced {
			continue
		}
		due := off + int64(r.op.due)
		tr.add(span{id: r.span, op: r.op.id, name: "op", kind: r.op.kind, start: due, end: off + int64(r.done)})
		tr.add(span{parent: r.span, op: r.op.id, name: "queue", kind: r.op.kind, start: due, end: off + int64(r.picked)})
	}
}

// run performs the requests of one operation and checks them.
func (c *client) run(o *op, r *result, parent int64) error {
	traced := r.traced
	switch o.kind {
	case kTruthEntity:
		var b truthBody
		if _, err := c.do(o, traced, parent, call{"GET", "/truth?entity=" + url.QueryEscape(o.entity), nil, 200}, &b); err != nil {
			return err
		}
		return checkEntityRows(&b, o.entity)
	case kRecords:
		var b struct {
			Seq    *int64 `json:"seq"`
			Record struct {
				Entity     string            `json:"entity"`
				Attributes []json.RawMessage `json:"attributes"`
			} `json:"record"`
		}
		if _, err := c.do(o, traced, parent, call{"GET", "/records?entity=" + url.QueryEscape(o.entity), nil, 200}, &b); err != nil {
			return err
		}
		if b.Seq == nil || b.Record.Entity != o.entity {
			return fmt.Errorf("records: asked for %q, got record %q", o.entity, b.Record.Entity)
		}
		return nil
	case kTruthPage:
		cursor := ""
		for p := 0; p < pagesPerScan; p++ {
			path := fmt.Sprintf("/truth?source=%s&min_prob=%g&limit=%d", url.QueryEscape(o.source), o.minProb, pageLimit)
			if cursor != "" {
				path += "&cursor=" + url.QueryEscape(cursor)
			}
			var b truthBody
			if _, err := c.do(o, traced, parent, call{"GET", path, nil, 200}, &b); err != nil {
				return err
			}
			if b.Seq == nil || b.Facts == nil || *b.Facts != len(b.Rows) || len(b.Rows) > pageLimit {
				return fmt.Errorf("truth page: %d rows for limit %d", len(b.Rows), pageLimit)
			}
			for _, row := range b.Rows {
				if row.Probability < o.minProb {
					return fmt.Errorf("truth page: row %s/%s below min_prob %g", row.Entity, row.Attribute, o.minProb)
				}
			}
			if cursor = b.NextCursor; cursor == "" {
				break
			}
		}
		return nil
	case kTruthTopk:
		var b truthBody
		if _, err := c.do(o, traced, parent, call{"GET", "/truth?topk=" + strconv.Itoa(topK), nil, 200}, &b); err != nil {
			return err
		}
		if len(b.Rows) != topK {
			return fmt.Errorf("topk: %d rows, want %d", len(b.Rows), topK)
		}
		for i := 1; i < len(b.Rows); i++ {
			if b.Rows[i].Probability > b.Rows[i-1].Probability {
				return fmt.Errorf("topk: rows out of order at %d", i)
			}
		}
		return nil
	case kClaimsEntity:
		var b struct {
			Count  *int    `json:"count"`
			Claims []claim `json:"claims"`
		}
		if _, err := c.do(o, traced, parent, call{"GET", "/claims?entity=" + url.QueryEscape(o.entity), nil, 200}, &b); err != nil {
			return err
		}
		if b.Count == nil || *b.Count != len(b.Claims) || len(b.Claims) == 0 {
			return fmt.Errorf("claims: count %v for %d claims of %q", b.Count, len(b.Claims), o.entity)
		}
		for _, cl := range b.Claims {
			if cl.Entity != o.entity {
				return fmt.Errorf("claims: asked for %q, got a claim of %q", o.entity, cl.Entity)
			}
		}
		return nil
	case kClaimsPost, kClaimsBatch, kProbe:
		body, _ := json.Marshal(map[string][]claim{"claims": o.claims})
		var b struct {
			Accepted *int `json:"accepted"`
		}
		if _, err := c.do(o, traced, parent, call{"POST", "/claims", body, 202}, &b); err != nil {
			return err
		}
		if b.Accepted == nil || *b.Accepted != len(o.claims) {
			return fmt.Errorf("claims post: accepted %v of %d", b.Accepted, len(o.claims))
		}
		r.accepted = len(o.claims)
		if o.kind == kProbe {
			c.probes.acked(o)
		}
		return nil
	case kProbeRead:
		return c.pollProbes(o, traced, parent)
	}
	return fmt.Errorf("unknown operation kind %q", o.kind)
}

// checkEntityRows checks an entity truth read names only that entity.
func checkEntityRows(b *truthBody, entity string) error {
	if b.Seq == nil || b.Facts == nil || *b.Facts != len(b.Rows) || len(b.Rows) == 0 {
		return fmt.Errorf("truth: malformed response for %q", entity)
	}
	for _, row := range b.Rows {
		if row.Entity != entity {
			return fmt.Errorf("truth: asked for %q, got a row of %q", entity, row.Entity)
		}
	}
	return nil
}

// pollProbes reads the oldest acknowledged probe that is still
// invisible; each one found visible is stamped and the next is read at
// once, so a refit that publishes many probes is seen in one poll.
func (c *client) pollProbes(o *op, traced bool, parent int64) error {
	for {
		p := c.probes.oldest()
		if p == nil {
			return nil
		}
		var b truthBody
		body, err := c.do(o, traced, parent, call{"GET", "/truth?entity=" + url.QueryEscape(p.entity), nil, 200}, &b)
		if err != nil {
			if bytes.Contains(body, []byte(`"not_found"`)) {
				return nil
			}
			return err
		}
		if err := checkEntityRows(&b, p.entity); err != nil {
			return err
		}
		c.probes.seen(p, time.Now())
	}
}

// probeBook tracks freshness probes from acknowledgement to visibility.
type probeBook struct {
	start time.Time // the phase start the due times count from
	mu    sync.Mutex
	all   []*probe
	queue []*probe // acknowledged and not yet visible, in ack order
	done  int      // probe writes answered, acknowledged or not
}

type probe struct {
	entity  string
	due     time.Duration
	visible time.Duration // 0 until seen
}

func (b *probeBook) acked(o *op) {
	p := &probe{entity: o.entity, due: o.due}
	b.mu.Lock()
	b.all = append(b.all, p)
	b.queue = append(b.queue, p)
	b.mu.Unlock()
}

func (b *probeBook) oldest() *probe {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) == 0 {
		return nil
	}
	return b.queue[0]
}

// seen stamps p visible at the first poll that found it.
func (b *probeBook) seen(p *probe, at time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.visible == 0 {
		p.visible = at.Sub(b.start)
	}
	if len(b.queue) > 0 && b.queue[0] == p {
		b.queue = b.queue[1:]
	}
}

func (b *probeBook) resolve() {
	b.mu.Lock()
	b.done++
	b.mu.Unlock()
}

// resolved counts probe writes that have been answered.
func (b *probeBook) resolved() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// pending counts probes not yet visible.
func (b *probeBook) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// freshness returns each probe's time from due to visible, in ms; a
// probe never seen is a failure.
func (b *probeBook) freshness() dist {
	b.mu.Lock()
	defer b.mu.Unlock()
	var d dist
	for _, p := range b.all {
		if p.visible == 0 {
			d = append(d, failed)
			continue
		}
		d = append(d, ms(p.visible-p.due))
	}
	return d
}
