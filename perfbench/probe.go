package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/dse"
	"repro/internal/interp"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serve/api"
	"repro/internal/trace"
)

// profileGroups is the work-group count dse.PrepCache profiles with.
const profileGroups = 8

// decomposePrep is one cold prep split into the steps model.Analyze and
// the prep cache compose (compile, launch config, profile, memory-trace
// classification, device profiling), each in its own span under a
// perfbench.prep root. It assembles the same model.Analysis.
func decomposePrep(tr *tracer, k *bench.Kernel, p *device.Platform, wg int64) (*model.Analysis, interp.Source, error) {
	root := tr.start("perfbench.prep", -1)
	defer tr.end(root)
	sp := tr.start("irgen.compile", root)
	f, err := k.Compile(wg)
	if err == nil {
		f.EnsureLoops()
	}
	tr.end(sp)
	if err != nil {
		return nil, "", err
	}
	sp = tr.start("bench.config", root)
	cfg := k.Config(wg)
	tr.end(sp)
	sp = tr.start("interp.profile", root)
	prof, err := interp.ProfileKernel(f, cfg, profileGroups)
	tr.end(sp)
	if err != nil {
		return nil, "", fmt.Errorf("profiling %s wg=%d: %w", k.ID(), wg, err)
	}
	sp = tr.start("trace.classify", root)
	layout := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
	nd := cfg.Range.Normalize()
	cls := trace.ClassifyGrouped(prof.Traces, nd.WorkGroupSize(), layout, p.DRAM, p.MemAccessUnitBits/8)
	tr.end(sp)
	sp = tr.start("device.profile", root)
	table := device.Profile(p, 256)
	patLat := dram.ProfilePatterns(p.DRAM, 4096, device.HashString(p.Name))
	tr.end(sp)
	return &model.Analysis{
		F: f, Platform: p, Table: table, PatLat: patLat,
		Freq: prof.BlockCounts, Mem: cls,
		NWI: nd.TotalWorkItems(), WGSize: nd.WorkGroupSize(), Barriers: prof.Barriers,
	}, prof.Source, nil
}

// peResources mirrors the model's per-PE issue limits so the probe can
// time cdfg.Build and the schedulers with the inputs Analysis.Predict
// gives them; decomposePredict checks the schedule it gets against the
// estimate, so a drifted copy fails the run.
func peResources(p *device.Platform, d model.Design) sched.Resources {
	dspPerCU := p.DSPTotal / max(1, d.CU)
	dspSlots := dspPerCU / (4 * max(1, d.PE))
	if dspSlots > 16 {
		dspSlots = 16
	}
	return sched.Resources{
		LocalRead:  max(1, p.LocalReadPorts()),
		LocalWrite: max(1, p.LocalWritePorts()),
		Global:     2,
		DSPSlots:   max(1, dspSlots),
	}
}

// decomposePredict times Analysis.Predict for one design, then the CDFG
// build and the scheduler call Predict makes inside, and checks that
// the schedule matches the estimate.
func decomposePredict(tr *tracer, an *model.Analysis, d model.Design) (*model.Estimate, error) {
	sp := tr.start("model.predict", -1)
	est := an.Predict(d)
	tr.end(sp)
	scfg := &sched.Config{Table: an.Table, Res: peResources(an.Platform, d)}
	sp = tr.start("cdfg.build", -1)
	g := cdfg.Build(an.F, an.Freq, scfg)
	tr.end(sp)
	if d.WIPipeline {
		sp = tr.start("sched.sms", -1)
		r := sched.SMS(an.F, g.Freq, g.BlockOffsets, scfg)
		tr.end(sp)
		if r.II != est.IIComp || r.Depth != est.Depth {
			return est, fmt.Errorf("%s: SMS II/depth %d/%d, estimate %d/%d", d, r.II, r.Depth, est.IIComp, est.Depth)
		}
	} else {
		sp = tr.start("sched.serial", -1)
		depth := sched.SerialDepth(an.F, g.Freq, scfg)
		tr.end(sp)
		if depth != est.IIComp {
			return est, fmt.Errorf("%s: serial depth %d, estimate %d", d, depth, est.IIComp)
		}
	}
	return est, nil
}

// analyzeReference runs the real library path for one key (compile,
// then model.Analyze as the prep cache calls it), timing Analyze.
func analyzeReference(tr *tracer, k *bench.Kernel, p *device.Platform, wg int64) (*model.Analysis, error) {
	f, err := k.Compile(wg)
	if err != nil {
		return nil, err
	}
	f.EnsureLoops()
	cfg := k.Config(wg)
	sp := tr.start("model.analyze", -1)
	an, err := model.Analyze(context.Background(), f, p, cfg, model.AnalysisOptions{ProfileGroups: profileGroups})
	tr.end(sp)
	return an, err
}

// probeKey is one key the layer probe decomposes, with the designs it
// predicts there.
type probeKey struct {
	K       *bench.Kernel
	WG      int64
	Designs []model.Design
}

// probeLayers measures every library layer from the benchmark's side on
// the given keys and fills the per-layer metrics of the library modules.
// Every decomposed estimate must equal the real path's and the golden
// corpus's; each comparison is one checked operation.
func probeLayers(o options, out *outcome, c *corpus, golden map[string]float64, keys []probeKey) error {
	tr := &tracer{}
	var static, total uint64
	for _, pk := range keys {
		an, src, err := decomposePrep(tr, pk.K, c.P, pk.WG)
		if err != nil {
			return err
		}
		total++
		if src == interp.SourceStatic {
			static++
		}
		ref, err := analyzeReference(tr, pk.K, c.P, pk.WG)
		if err != nil {
			return err
		}
		for _, d := range pk.Designs {
			est, err := decomposePredict(tr, an, d)
			if err != nil {
				out.tally.fail(err)
				continue
			}
			id := pair{pk.K, d}.id()
			if want := ref.Predict(d); *est != *want {
				out.tally.fail(fmt.Errorf("%s: decomposed estimate %+v, Analysis.Predict %+v", id, *est, *want))
				continue
			}
			if g, ok := golden[id]; ok && g != est.Cycles {
				out.tally.fail(fmt.Errorf("%s: decomposed cycles %v, golden %v", id, est.Cycles, g))
				continue
			}
			out.tally.ok()
		}
	}
	put := func(metric, span string, scale float64) {
		self, _ := tr.byName(span)
		out.metrics[metric] = median(self) * scale
	}
	putAlloc := func(metric, span string) {
		_, alloc := tr.byName(span)
		out.metrics[metric] = median(alloc)
	}
	put("irgen.compile_ms", "irgen.compile", 1)
	put("bench.config_ms", "bench.config", 1)
	putAlloc("bench.config_alloc_kb", "bench.config")
	put("interp.profile_ms", "interp.profile", 1)
	putAlloc("interp.profile_alloc_kb", "interp.profile")
	put("trace.classify_ms", "trace.classify", 1)
	putAlloc("trace.classify_alloc_kb", "trace.classify")
	put("device.profile_ms", "device.profile", 1)
	put("perfbench.prep_self_ms", "perfbench.prep", 1)
	put("model.analyze_ms", "model.analyze", 1)
	put("model.predict_us", "model.predict", 1000)
	putAlloc("model.predict_alloc_kb", "model.predict")
	put("cdfg.build_us", "cdfg.build", 1000)
	put("sched.sms_us", "sched.sms", 1000)
	put("sched.serial_us", "sched.serial", 1000)
	out.metrics["interp.static_ratio"] = float64(static) / float64(total)

	var keyUS, resolveUS []float64
	for _, k := range c.Kernels {
		t0 := time.Now()
		_ = k.CacheKey()
		keyUS = append(keyUS, us(time.Since(t0)))
	}
	for _, pk := range keys {
		req := api.PredictRequest{Kernel: api.KernelRef{ID: pk.K.ID()}, Design: api.DesignToWire(pk.Designs[0])}
		t0 := time.Now()
		if _, e := api.ResolvePredict(req, api.V2); e != nil {
			return fmt.Errorf("resolving %s: %v", pk.K.ID(), e)
		}
		resolveUS = append(resolveUS, us(time.Since(t0)))
	}
	out.metrics["bench.cachekey_us"] = median(keyUS)
	out.metrics["api.resolve_us"] = median(resolveUS)
	var inlineMS []float64
	for i, s := range inlineSpecs(o.Seed) {
		ref, err := inlineRef(s.Spec, fmt.Sprint("probe-", i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, e := api.ResolveKernel(ref, api.V2); e != nil {
			return fmt.Errorf("resolving inline %v: %v", s.Spec, e)
		}
		inlineMS = append(inlineMS, ms(time.Since(t0)))
	}
	out.metrics["api.resolve_inline_ms"] = median(inlineMS)
	return nil
}

// probeDSE times whole-kernel dse.Explore (model-only, as flexcl-dse and
// /v2/explore run it) and dse.Search on the given kernels, after their
// preps are cached.
func probeDSE(o options, out *outcome, c *corpus, cache *dse.PrepCache, kernels []*bench.Kernel) error {
	ctx := context.Background()
	var exploreMS, searchMS []float64
	var evaluated, space int
	for _, k := range kernels {
		if _, err := cache.Analyses(k, c.P); err != nil {
			return err
		}
		t0 := time.Now()
		res, err := dse.Explore(ctx, k, dse.Options{Platform: c.P, SkipActual: true, SkipBaseline: true, Workers: o.Procs, Cache: cache})
		if err != nil {
			return err
		}
		exploreMS = append(exploreMS, ms(time.Since(t0)))
		t0 = time.Now()
		sr, err := dse.Search(ctx, k, dse.SearchOptions{Platform: c.P, Workers: o.Procs, Cache: cache})
		if err != nil {
			return err
		}
		searchMS = append(searchMS, ms(time.Since(t0)))
		evaluated += sr.Evaluated
		space += sr.Space
		if b, ok := res.BestByModel(); !ok || !sr.BestOK || b.Design != sr.Best.Design || b.Est != sr.Best.Est {
			out.tally.fail(fmt.Errorf("%s: Search best %v, Explore best %v", k.ID(), sr.Best.Design, b.Design))
			continue
		}
		out.tally.ok()
	}
	out.metrics["dse.explore_ms"] = median(exploreMS)
	out.metrics["dse.search_ms"] = median(searchMS)
	out.metrics["dse.search_eval_ratio"] = float64(evaluated) / float64(space)
	return nil
}

// probeEdge times one warm (prediction-cache hit) predict through the
// server's handler in process and over loopback keep-alive, on a fresh
// probe server, then posts one batch of the given inline kernels. It
// returns the probe server's /metrics and the number of connections its
// client dialed.
func probeEdge(out *outcome, body []byte, batch []inlineCase) (promSamples, int64, error) {
	const reps = 2000
	srv, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	defer srv.stop()
	h := srv.h
	cl := newClient(1)
	defer cl.close()
	url := srv.url + "/v2/predict"
	if code, data, err := cl.post(url, body); err != nil || code != http.StatusOK {
		return nil, 0, fmt.Errorf("probe warm-up: status %d, %v: %s", code, err, data)
	}
	var handlerUS, handlerKB, rttUS []float64
	var last []byte
	for i := 0; i < reps; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v2/predict", bytes.NewReader(body))
		a0 := allocBytes()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handlerUS = append(handlerUS, us(time.Since(t0)))
		handlerKB = append(handlerKB, float64(allocBytes()-a0)/1024)
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("probe handler: status %d", rec.Code)
		}
		last = rec.Body.Bytes()
	}
	var res api.PredictResult
	if err := json.Unmarshal(last, &res); err != nil || res.Cache != "pred" {
		return nil, 0, fmt.Errorf("probe: warm request was not a prediction-cache hit (%q, %v)", res.Cache, err)
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		code, data, err := cl.post(url, body)
		rttUS = append(rttUS, us(time.Since(t0)))
		if err != nil || code != http.StatusOK {
			return nil, 0, fmt.Errorf("probe rtt: status %d, %v: %s", code, err, data)
		}
	}
	out.metrics["serve.handler_us"] = median(handlerUS)
	out.metrics["serve.handler_alloc_kb"] = median(handlerKB)
	out.metrics["serve.rtt_us"] = median(rttUS)
	// One batch of distinct inline kernels exercises the bulk lane, the
	// batch endpoint and inline resolution.
	idx := make([]int, len(batch))
	for i := range idx {
		idx[i] = i
	}
	bb, err := batchBody(batch, idx, 0)
	if err != nil {
		return nil, 0, err
	}
	code, data, err := cl.post(srv.url+"/v2/predict:batch", bb)
	checkBatch(out, code, data, err, batch, idx)
	scrape, err := srv.scrape()
	return scrape, cl.dials.Load(), err
}
