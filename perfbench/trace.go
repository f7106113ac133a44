package main

import (
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
)

// Traced runs. Each one runs its workload's timed phase in alternating
// untraced and traced chunks (the benchmark's own spans on), reports the
// difference as the tracing overhead, reads the program's exported
// counters, and then probes every layer from the benchmark's side.

// probeSample is how many (kernel, WG) keys a traced run decomposes when
// its workload does not define its own key set, and probeKernels how
// many kernels it runs whole-kernel Explore and Search on.
const (
	probeSample  = 48
	probeKernels = 6
	// probeBatch is the number of inline kernels in the probe's batch.
	probeBatch = 8
)

// sampleKeys picks n seeded keys, each with the golden-grid designs.
func sampleKeys(seed int64, c *corpus, n int) []probeKey {
	r := rng(seed, tagSample)
	var out []probeKey
	for _, i := range r.Perm(len(c.Keys))[:n] {
		key := c.Keys[i]
		out = append(out, probeKey{K: key.K, WG: key.WG, Designs: goldenDesigns(key.WG)})
	}
	return out
}

// sampleKernels picks n seeded kernels.
func sampleKernels(seed int64, c *corpus, n int) []*bench.Kernel {
	r := rng(seed, tagSample^0x6b)
	var out []*bench.Kernel
	for _, i := range r.Perm(len(c.Kernels))[:n] {
		out = append(out, c.Kernels[i])
	}
	return out
}

// overheadPct is the tracing overhead on the median latency, in percent
// of the untraced median.
func overheadPct(untraced, traced []float64) float64 {
	return (median(traced)/median(untraced) - 1) * 100
}

// gcDelta measures collections and pause time from a snapshot.
type gcDelta struct {
	cycles uint32
	pause  time.Duration
}

func gcStart() gcDelta {
	c, p := gcCounters()
	return gcDelta{c, p}
}

func (g gcDelta) put(out *outcome) {
	c, p := gcCounters()
	out.metrics["runtime.gc_cycles"] = float64(c - g.cycles)
	out.metrics["runtime.gc_pause_ms"] = ms(p - g.pause)
}

// lateP99 is the open loop's 99th-percentile lateness in ms (0 for a
// closed loop, which sends as soon as it may).
func lateP99(recs []record) (float64, error) {
	late := make([]float64, len(recs))
	for i, r := range recs {
		late[i] = ms(r.late())
	}
	return percentile(late, 99)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// diff returns after minus before, sample by sample.
func diff(after, before promSamples) promSamples {
	out := make(promSamples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// serverLayers fills the dse and serve metrics read from the server's
// /metrics over a measured stretch (d holds the counters' increase).
func serverLayers(out *outcome, d promSamples) {
	out.metrics["dse.prep_computes"] = d["flexcl_prep_cache_computes"]
	out.metrics["dse.prep_coalesced"] = d["flexcl_prep_cache_coalesced"]
	hits, misses := d["flexcl_predict_cache_hits"], d["flexcl_predict_cache_misses"]
	out.metrics["dse.pred_hit_ratio"] = ratio(hits, hits+misses)
	for _, lane := range []string{"interactive", "bulk"} {
		l := `{lane="` + lane + `"}`
		out.metrics["serve.queue_wait_ms."+lane] = ratio(1000*d["flexcl_predict_queue_wait_seconds_sum"+l], d["flexcl_predict_queue_wait_seconds_count"+l])
	}
	out.metrics["serve.shed"] = d[`flexcl_predict_shed_total{lane="interactive"}`] + d[`flexcl_predict_shed_total{lane="bulk"}`]
	sources := []string{"pred", "prep", "coalesced", "miss", "peer"}
	var total float64
	for _, s := range sources {
		total += d[`flexcl_predict_source_total{source="`+s+`"}`]
	}
	for _, s := range sources[:4] {
		out.metrics["serve.source_share."+s] = ratio(d[`flexcl_predict_source_total{source="`+s+`"}`], total)
	}
}

// probeCommon runs the library and HTTP-edge probes every traced run
// shares. dseCache, when non-nil, is a warm cache to probe whole-kernel
// exploration with on dseKernels.
func probeCommon(o options, out *outcome, c *corpus, golden map[string]float64, keys []probeKey, dseCache *dse.PrepCache, dseKernels []*bench.Kernel) (promSamples, int64, error) {
	if err := probeLayers(o, out, c, golden, keys); err != nil {
		return nil, 0, err
	}
	if dseCache == nil {
		dseCache = dse.NewPrepCache()
		dseKernels = sampleKernels(o.Seed, c, probeKernels)
	}
	if err := probeDSE(o, out, c, dseCache, dseKernels); err != nil {
		return nil, 0, err
	}
	batch, err := inlineCases(o.Seed, c.P, probeBatch)
	if err != nil {
		return nil, 0, err
	}
	k := keys[0]
	return probeEdge(out, predictBody(pair{k.K, k.Designs[0]}), batch)
}

func traceSweep(o options, out *outcome, st *sweepState) error {
	gc := gcStart()
	s0 := st.cache.Stats()
	var lat [2][]float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.duration(); i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = &tracer{}
		}
		ps, err := st.pass(o, out, tr)
		if err != nil {
			return err
		}
		for _, d := range ps.sliceLat {
			lat[i%2] = append(lat[i%2], ms(d))
		}
	}
	gc.put(out)
	s1 := st.cache.Stats()
	out.metrics["perfbench.trace_overhead_pct"] = overheadPct(lat[0], lat[1])
	// The sweep runs no server: the serve and pred-cache metrics come
	// from the probe server.
	scrape, dials, err := probeCommon(o, out, st.c, st.refs.golden, sampleKeys(o.Seed, st.c, probeSample), st.cache, st.c.Kernels)
	if err != nil {
		return err
	}
	serverLayers(out, scrape)
	out.metrics["dse.prep_computes"] = float64(s1.Computes - s0.Computes)
	out.metrics["dse.prep_coalesced"] = float64(s1.Coalesced - s0.Coalesced)
	out.metrics["loadgen.late_p99_ms"] = 0
	out.metrics["loadgen.conns"] = float64(dials)
	return nil
}

func traceCold(o options, out *outcome, st *coldState) error {
	gc := gcStart()
	var lat [2][]float64
	scrape := promSamples{}
	var dials int64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.duration(); i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = &tracer{}
		}
		cp, err := st.pass(o, out, tr)
		if err != nil {
			return err
		}
		for _, r := range cp.recs {
			lat[i%2] = append(lat[i%2], ms(r.latency()))
		}
		scrape.add(cp.scrape)
		dials = max(dials, cp.dials)
	}
	gc.put(out)
	out.metrics["perfbench.trace_overhead_pct"] = overheadPct(lat[0], lat[1])
	serverLayers(out, scrape)
	out.metrics["loadgen.late_p99_ms"] = 0
	out.metrics["loadgen.conns"] = float64(dials)
	// Every cold prep of the pass, decomposed, at each golden design.
	var keys []probeKey
	for _, p := range st.pairs {
		keys = append(keys, probeKey{K: p.K, WG: p.D.WGSize, Designs: goldenDesigns(p.D.WGSize)})
	}
	probe, _, err := probeCommon(o, out, st.c, st.refs.golden, keys, nil, nil)
	if err != nil {
		return err
	}
	// Cold traffic has no bulk lane: its figure is the probe batch's.
	l := `{lane="bulk"}`
	out.metrics["serve.queue_wait_ms.bulk"] = ratio(1000*probe["flexcl_predict_queue_wait_seconds_sum"+l], probe["flexcl_predict_queue_wait_seconds_count"+l])
	return nil
}

// traceChunks is how many alternating untraced/traced chunks an
// open-loop traced run is split into.
const traceChunks = 4

func traceWarm(o options, out *outcome, st *warmState) error {
	return traceServed(o, out, st, func(tr *tracer, d time.Duration, from int) ([]record, error) {
		return st.phase(o, out, tr, d, from).recs, nil
	})
}

func traceMixed(o options, out *outcome, st *mixedState) error {
	nextB := 0
	return traceServed(o, out, st.warmState, func(tr *tracer, d time.Duration, from int) ([]record, error) {
		mp, err := st.phase(out, tr, d, from, nextB)
		nextB = mp.nextB
		return mp.recs, err
	})
}

// traceServed is the traced run of a workload against one long-running
// server: alternating chunks, counter deltas from /metrics, open-loop
// lateness, then the probes.
func traceServed(o options, out *outcome, st *warmState, chunk func(tr *tracer, d time.Duration, from int) ([]record, error)) error {
	before, err := st.srv.scrape()
	if err != nil {
		return err
	}
	gc := gcStart()
	var lat [2][]float64
	var all []record
	from := 0
	for i := 0; i < traceChunks; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = &tracer{}
		}
		recs, err := chunk(tr, o.duration()/traceChunks, from)
		if err != nil {
			return err
		}
		from += len(recs)
		lat[i%2] = append(lat[i%2], latencies(recs)...)
		all = append(all, recs...)
	}
	gc.put(out)
	after, err := st.srv.scrape()
	if err != nil {
		return err
	}
	if err := st.checkDials(o); err != nil {
		return err
	}
	out.metrics["perfbench.trace_overhead_pct"] = overheadPct(lat[0], lat[1])
	serverLayers(out, diff(after, before))
	late, err := lateP99(all)
	if err != nil {
		return err
	}
	out.metrics["loadgen.late_p99_ms"] = late
	out.metrics["loadgen.conns"] = float64(st.cl.dials.Load())
	_, _, err = probeCommon(o, out, st.c, st.refs.golden, sampleKeys(o.Seed, st.c, probeSample), nil, nil)
	return err
}
