package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	lt "latenttruth"
)

// node is the durable truth server under test, mounted on a loopback
// listener of this process. Its configuration is only the data dir and
// the dirty refit policy: every other knob stays at its default, so the
// benchmark measures whatever the default is at each commit.
type node struct {
	cfg  lt.ServeConfig
	cur  atomic.Pointer[mounted] // nil while closed for a reopen
	hs   *http.Server
	url  string
	done chan struct{}
}

// mounted pairs a server with its handler, built once per server.
type mounted struct {
	srv *lt.TruthServer
	h   http.Handler
}

// serveConfig is the whole construction surface the benchmark uses.
func serveConfig(dir string) lt.ServeConfig {
	return lt.ServeConfig{Policy: lt.RefitDirty, Durability: lt.DurabilityConfig{DataDir: dir}}
}

// setupTimes is what one preload measured.
type setupTimes struct {
	setup time.Duration // construction to first published snapshot
	fit   time.Duration // the anchor refit alone
}

// preload constructs a server on dir, ingests rows and runs the anchor
// fit, timing construction to the first published snapshot.
func preload(cfg lt.ServeConfig, rows []lt.Row) (*lt.TruthServer, setupTimes, error) {
	t0 := time.Now()
	srv, err := lt.NewTruthServer(cfg)
	if err != nil {
		return nil, setupTimes{}, err
	}
	if _, err := srv.Ingest(rows); err != nil {
		srv.Close()
		return nil, setupTimes{}, fmt.Errorf("preload ingest: %w", err)
	}
	t1 := time.Now()
	if _, err := srv.Refit(""); err != nil {
		srv.Close()
		return nil, setupTimes{}, fmt.Errorf("anchor fit: %w", err)
	}
	t2 := time.Now()
	return srv, setupTimes{setup: t2.Sub(t0), fit: t2.Sub(t1)}, nil
}

// startNode serves an already preloaded server on a loopback port, its
// handler wrapped by the tracer.
func startNode(cfg lt.ServeConfig, srv *lt.TruthServer, tr *tracer) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{cfg: cfg, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.mount(srv)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := n.cur.Load()
		if m == nil {
			http.Error(w, `{"error":"reopening","code":"unavailable"}`, http.StatusServiceUnavailable)
			return
		}
		m.h.ServeHTTP(w, r)
	})
	n.hs = &http.Server{Handler: tr.wrap(h)}
	go func() {
		defer close(n.done)
		if err := n.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: listener: %v\n", err)
		}
	}()
	return n, nil
}

func (n *node) mount(srv *lt.TruthServer) {
	srv.Start()
	n.cur.Store(&mounted{srv: srv, h: srv.Handler()})
}

func (n *node) server() *lt.TruthServer { return n.cur.Load().srv }

// reopen closes the server and constructs a new one from its data
// directory; requests in between are answered 503.
func (n *node) reopen() error {
	m := n.cur.Swap(nil)
	m.srv.Close()
	srv, err := lt.NewTruthServer(n.cfg)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", n.cfg.Durability.DataDir, err)
	}
	if srv.Snapshot() == nil {
		srv.Close()
		return fmt.Errorf("reopening %s: no snapshot recovered", n.cfg.Durability.DataDir)
	}
	n.mount(srv)
	return nil
}

// close stops the listener, waits for it, and closes the server.
func (n *node) close() {
	n.hs.Close()
	<-n.done
	if m := n.cur.Swap(nil); m != nil {
		m.srv.Close()
	}
}

// fetch GETs path from base and returns the body of a 200 response.
func fetch(hc *http.Client, base, path string) ([]byte, error) {
	return exchange(hc, http.MethodGet, base, path)
}

// exchange sends a body-less request and returns the body of a 200
// response.
func exchange(hc *http.Client, method, base, path string) ([]byte, error) {
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, body)
	}
	return body, nil
}
