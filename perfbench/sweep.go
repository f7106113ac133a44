package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
)

// repeatSetup runs setup reps times, discarding all but the last state,
// and returns it with the median set-up time in seconds. Workloads whose
// set-up takes several seconds repeat it less.
func repeatSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var durs []float64
	var st T
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(st)
			var zero T
			st = zero // so the next set-up's heap figure excludes this one
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return st, median(durs), nil
}

// sweepState is the sweep workload's set-up: one prep cache holding all
// 283 (kernel, WG) analyses, and the reference cycles of every design.
type sweepState struct {
	c      *corpus
	cache  *dse.PrepCache
	refs   *references
	slices []*bench.Kernel
	heapMB float64
}

// sliceOf restricts a kernel's sweep to one work-group size. CacheKey
// does not cover the WG bounds, so the slice shares the kernel's prep
// cache entries.
func sliceOf(k *bench.Kernel, wg int64) *bench.Kernel {
	s := *k
	s.MinWG, s.MaxWG = wg, wg
	return &s
}

func setupSweep(o options, out *outcome) (*sweepState, error) {
	c := newCorpus()
	golden, err := loadGolden(o.Root, c.Kernels)
	if err != nil {
		return nil, err
	}
	st := &sweepState{c: c, cache: dse.NewPrepCache()}
	lib, bad, err := libraryReferences(c, st.cache, golden, o.Procs)
	if err != nil {
		return nil, err
	}
	for i := 0; i < bad; i++ {
		out.tally.fail(fmt.Errorf("library prediction differs from testdata/golden"))
	}
	st.refs = &references{golden: golden, lib: lib}
	for _, key := range c.Keys {
		st.slices = append(st.slices, sliceOf(key.K, key.WG))
	}
	st.heapMB = liveHeapMB()
	return st, nil
}

// sweepPass is one pass over the corpus: the exhaustive model-only
// sweep, one WG slice at a time, then the guided search of every kernel.
type sweepPass struct {
	sliceLat  []time.Duration
	explore   time.Duration
	search    time.Duration
	evaluated int
	space     int
}

func (st *sweepState) pass(o options, out *outcome, tr *tracer) (sweepPass, error) {
	ctx := context.Background()
	var ps sweepPass
	best := make(map[string]dse.Point)
	t0 := time.Now()
	for _, s := range st.slices {
		sp := tr.start("dse.explore_slice", -1)
		ts := time.Now()
		res, err := dse.Explore(ctx, s, dse.Options{
			Platform: st.c.P, SkipActual: true, SkipBaseline: true,
			Workers: o.Procs, Cache: st.cache,
		})
		ps.sliceLat = append(ps.sliceLat, time.Since(ts))
		tr.end(sp)
		if err != nil {
			return ps, err
		}
		for _, pt := range res.Points {
			if err := st.refs.check(pair{s, pt.Design}.id(), pt.Est); err != nil {
				out.tally.fail(err)
				continue
			}
			out.tally.ok()
		}
		// Slices run in WG order, which is the space order, so the
		// first strict minimum is Explore's best, tie-breaks included.
		if b, ok := res.BestByModel(); ok {
			if cur, seen := best[s.ID()]; !seen || b.Est < cur.Est {
				best[s.ID()] = b
			}
		}
	}
	ps.explore = time.Since(t0)
	t0 = time.Now()
	for _, k := range st.c.Kernels {
		sp := tr.start("dse.search", -1)
		res, err := dse.Search(ctx, k, dse.SearchOptions{Platform: st.c.P, Workers: o.Procs, Cache: st.cache})
		tr.end(sp)
		if err != nil {
			return ps, err
		}
		ps.evaluated += res.Evaluated
		ps.space += res.Space
		want := best[k.ID()]
		if !res.BestOK || res.Best.Design != want.Design || res.Best.Est != want.Est {
			out.tally.fail(fmt.Errorf("%s: Search best %v (%v), Explore best %v (%v)",
				k.ID(), res.Best.Design, res.Best.Est, want.Design, want.Est))
			continue
		}
		out.tally.ok()
	}
	ps.search = time.Since(t0)
	return ps, nil
}

func runSweep(o options, out *outcome) error {
	st, setupS, err := repeatSetup(2, func() (*sweepState, error) { return setupSweep(o, out) }, func(*sweepState) {})
	if err != nil {
		return err
	}
	if o.Trace {
		return traceSweep(o, out, st)
	}
	var lat []float64
	var passTimes []float64
	a0 := allocBytes()
	passes := 0
	start := time.Now()
	for time.Since(start) < o.duration() || len(lat) < 1000 {
		ps, err := st.pass(o, out, nil)
		if err != nil {
			return err
		}
		passes++
		for _, d := range ps.sliceLat {
			lat = append(lat, ms(d))
		}
		passTimes = append(passTimes, (ps.explore + ps.search).Seconds())
	}
	allocKB := float64(allocBytes()-a0) / 1024
	return latencyMetrics(out, lat, map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       float64(len(st.c.Pairs)) / median(passTimes),
		"alloc_kb_per_op": allocKB / float64(passes*len(st.c.Pairs)),
		"heap_mb":         st.heapMB,
	})
}

// latencyMetrics fills p50_ms and p99_ms from per-operation latencies
// (ms) under the percentile rule, plus the given metrics.
func latencyMetrics(out *outcome, lat []float64, rest map[string]float64) error {
	p50, err := percentile(lat, 50)
	if err != nil {
		return err
	}
	p99, err := percentile(lat, 99)
	if err != nil {
		return err
	}
	out.metrics["p50_ms"] = p50
	out.metrics["p99_ms"] = p99
	for k, v := range rest {
		out.metrics[k] = v
	}
	return nil
}

// window is the number of consecutive open-loop requests each p99 is
// taken over: the fewest the percentile rule allows.
const window = 1000

// openLoopMetrics fills p50_ms over all open-loop requests and p99_ms as
// the median of the p99 of each window of consecutive requests: a stall
// of the shared machine delays every request due during it, and the
// median keeps one such stall from setting the run's figure.
func openLoopMetrics(out *outcome, recs []record, rest map[string]float64) error {
	lat := latencies(recs)
	var p99s []float64
	for lo := 0; lo+window <= len(lat); lo += window {
		p, err := percentile(lat[lo:lo+window], 99)
		if err != nil {
			return err
		}
		p99s = append(p99s, p)
	}
	if len(p99s) == 0 {
		return fmt.Errorf("p99 needs a window of %d requests, have %d", window, len(lat))
	}
	if err := latencyMetrics(out, lat, rest); err != nil {
		return err
	}
	out.metrics["p99_ms"] = median(p99s)
	return nil
}
