package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is the load generator's HTTP side: one transport with at most
// `conns` keep-alive connections, counting every dial so a run can prove
// connections were reused.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	dials atomic.Int64
}

func newClient(conns int) *client {
	c := &client{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: c.tr, Timeout: 2 * time.Minute}
	return c
}

// post sends one pre-encoded JSON body and returns the status and the
// whole response body. The body is always drained and closed, which is
// what lets the transport reuse the connection.
func (c *client) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, data, nil
}

// close drops the idle connections (they belong to a server that is
// about to stop).
func (c *client) close() { c.tr.CloseIdleConnections() }

// tally counts operations attempted and failed. A wrong answer, a
// transport error and any non-200 status (a 429 shed included) each
// count as one failed operation.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	shown     int
}

// maxShownErrors bounds how many failure messages a run prints.
const maxShownErrors = 5

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(err error) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shown < maxShownErrors {
		t.shown++
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	}
}

// record is one measured operation.
type record struct {
	// due is when the operation was scheduled (open loop) or sent
	// (closed loop); sent when it actually left; done when its answer
	// was read.
	due, sent, done time.Time
}

func (r record) latency() time.Duration { return r.done.Sub(r.due) }
func (r record) late() time.Duration    { return r.sent.Sub(r.due) }

// closedLoop runs `workers` clients that each send their next operation
// as soon as the previous one answers, until stop() reports true or the
// op index reaches n. op(i) performs operation i and reports whether it
// counts as a latency sample. Records come back in completion order.
func closedLoop(workers, n int, stop func() bool, op func(i int) bool) []record {
	var next atomic.Int64
	var mu sync.Mutex
	var out []record
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for !stop() {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				t0 := time.Now()
				if op(i) {
					mine = append(mine, record{due: t0, sent: t0, done: time.Now()})
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// spinMargin is how long before a due time waitUntil stops sleeping and
// starts polling. A Go timer can wake a millisecond late on an idle
// process (the poller waits in whole milliseconds), which would dominate
// the latency of a sub-millisecond request; a plain nanosleep of the
// thread wakes within about 0.1 ms.
const spinMargin = 100 * time.Microsecond

// waitUntil returns at t: it sleeps the thread until spinMargin before,
// then yields in a loop.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only spins longer
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends operation i at start + i/rate on up to `workers`
// connections until the schedule passes `dur`: a free worker takes the
// next due operation, so a stalled request delays later ones only when
// every worker is busy. Latency is timed from the due time, so the wait
// a stall imposes on later requests counts. Records are in op order.
func openLoop(workers int, rate float64, dur time.Duration, op func(i int)) []record {
	n := int(rate * dur.Seconds())
	recs := make([]record, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(due)
				sent := time.Now()
				op(i)
				recs[i] = record{due: due, sent: sent, done: time.Now()}
			}
		}()
	}
	wg.Wait()
	return recs
}
