package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory from the benchmark's own code: a name,
// a start and end, the parent span, and the heap bytes allocated while
// the span was open (meaningful only when one goroutine is running). A
// nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Time
	alloc0     uint64
	alloc      uint64
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now(), alloc0: a})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	s.alloc = a - s.alloc0
}

// selfTimes returns every span's duration minus the part of its
// interval its child spans cover, indexed like spans.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		var iv [][2]time.Time
		for _, c := range children[i] {
			iv = append(iv, [2]time.Time{t.spans[c].start, t.spans[c].end})
		}
		out[i] = s.end.Sub(s.start) - covered(iv, s.start, s.end)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Time, lo, hi time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, x := range iv {
		s, e := x[0], x[1]
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// byName collects the self times (ms) and allocations (KiB) of every
// span with the given name.
func (t *tracer) byName(name string) (selfMS, allocKB []float64) {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if s.name == name {
			selfMS = append(selfMS, ms(self[i]))
			allocKB = append(allocKB, float64(s.alloc)/1024)
		}
	}
	return selfMS, allocKB
}
