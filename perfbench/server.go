package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"

	"repro/internal/serve"
)

// liveServer is one in-process flexcl-serve on a loopback port, built
// from the default serve.Config: request tracing, the caches and the
// admission gate all run as deployed.
type liveServer struct {
	h      http.Handler
	url    string
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

func startServer() (*liveServer, error) {
	s := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	addr, err := s.Listen()
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &liveServer{h: s.Handler(), url: "http://" + addr.String(), cancel: cancel, done: make(chan error, 1)}
	go func() { l.done <- s.Serve(ctx) }()
	return l, nil
}

// stop drains the server and waits for Serve to return; later calls
// return the same result.
func (l *liveServer) stop() error {
	l.once.Do(func() {
		l.cancel()
		l.err = <-l.done
	})
	return l.err
}

// scrape reads the server's /metrics in process (no TCP connection) and
// returns every sample keyed by its name with labels, e.g.
// `flexcl_predict_source_total{source="pred"}`.
func (l *liveServer) scrape() (promSamples, error) {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", rec.Code)
	}
	return parseProm(rec.Body.String())
}

// promSamples is a parsed Prometheus text exposition.
type promSamples map[string]float64

func parseProm(text string) (promSamples, error) {
	out := make(promSamples)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// add accumulates another scrape (counters of successive servers).
func (p promSamples) add(q promSamples) {
	for k, v := range q {
		p[k] += v
	}
}
