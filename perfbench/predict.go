package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
	"repro/internal/serve/api"
)

// interactiveRate is the open-loop request rate of the interactive
// stream (predict-warm, and predict-mixed's interactive lane).
const interactiveRate = 400

// openShare is the share of a predict-warm run spent at the fixed rate.
// The rest is closed-loop requests cycling over the hotPairs most
// popular pairs: prediction-cache hits, so it measures the capacity of
// the cached interactive path, as the median completion rate over
// rateBucket slices (a short stall of the machine moves one slice).
const (
	openShare  = 0.75
	hotPairs   = 256
	rateBucket = 250 * time.Millisecond
)

func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // unreachable: request types marshal
	}
	return b
}

func predictBody(p pair) []byte {
	return encode(api.PredictRequest{Kernel: api.KernelRef{ID: p.K.ID()}, Design: api.DesignToWire(p.D)})
}

// checkPredict validates one /v2/predict answer: status 200, the
// requested design, the reference cycles exactly, and (when wantCache
// is set) the cache outcome.
func checkPredict(code int, data []byte, err error, p pair, refs *references, wantCache string) error {
	if err != nil {
		return fmt.Errorf("%s: %w", p.id(), err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", p.id(), code, data)
	}
	var res api.PredictResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", p.id(), err)
	}
	if res.Design != api.DesignToWire(p.D) {
		return fmt.Errorf("%s: answered for design %+v", p.id(), res.Design)
	}
	if wantCache != "" && res.Cache != wantCache {
		return fmt.Errorf("%s: cache %q, want %q", p.id(), res.Cache, wantCache)
	}
	return refs.check(p.id(), res.Cycles)
}

// ---- predict-cold ----

type coldState struct {
	c      *corpus
	refs   *references
	pairs  []pair
	bodies [][]byte
	heapMB float64
}

func setupCold(o options) (*coldState, error) {
	c := newCorpus()
	golden, err := loadGolden(o.Root, c.Kernels)
	if err != nil {
		return nil, err
	}
	st := &coldState{c: c, refs: &references{golden: golden}}
	cs := newColdStream(o.Seed, len(c.Keys))
	for _, ki := range cs.Order {
		key := c.Keys[ki]
		p := pair{key.K, goldenDesigns(key.WG)[cs.Design[ki]]}
		st.pairs = append(st.pairs, p)
		st.bodies = append(st.bodies, predictBody(p))
	}
	st.heapMB = liveHeapMB()
	return st, nil
}

// coldPass sends every key once, in seeded order, from o.Procs
// closed-loop clients to a fresh server, so every request is a prep
// miss.
type coldPass struct {
	recs   []record
	wall   time.Duration
	scrape promSamples
	dials  int64
}

func (st *coldState) pass(o options, out *outcome, tr *tracer) (coldPass, error) {
	var cp coldPass
	srv, err := startServer()
	if err != nil {
		return cp, err
	}
	defer srv.stop()
	cl := newClient(o.Procs)
	url := srv.url + "/v2/predict"
	t0 := time.Now()
	cp.recs = closedLoop(o.Procs, len(st.bodies), func() bool { return false }, func(i int) bool {
		sp := tr.start("loadgen.request", -1)
		code, data, err := cl.post(url, st.bodies[i])
		tr.end(sp)
		if err := checkPredict(code, data, err, st.pairs[i], st.refs, "miss"); err != nil {
			out.tally.fail(err)
		} else {
			out.tally.ok()
		}
		return true
	})
	cp.wall = time.Since(t0)
	cl.close()
	cp.dials = cl.dials.Load()
	if cp.dials > int64(o.Procs) {
		return cp, fmt.Errorf("load generator dialed %d connections for %d clients", cp.dials, o.Procs)
	}
	cp.scrape, err = srv.scrape()
	if err != nil {
		return cp, err
	}
	return cp, srv.stop()
}

// coldRun repeats passes for at least d and until minSamples requests
// have been measured.
type coldRun struct {
	lat      []float64
	wall     time.Duration
	scrape   promSamples
	maxDials int64
}

func (st *coldState) run(o options, out *outcome, tr *tracer, d time.Duration, minSamples int) (coldRun, error) {
	cr := coldRun{scrape: promSamples{}}
	start := time.Now()
	for time.Since(start) < d || len(cr.lat) < minSamples {
		cp, err := st.pass(o, out, tr)
		if err != nil {
			return cr, err
		}
		for _, r := range cp.recs {
			cr.lat = append(cr.lat, ms(r.latency()))
		}
		cr.wall += cp.wall
		cr.scrape.add(cp.scrape)
		cr.maxDials = max(cr.maxDials, cp.dials)
	}
	return cr, nil
}

func runCold(o options, out *outcome) error {
	st, setupS, err := repeatSetup(5, func() (*coldState, error) { return setupCold(o) }, func(*coldState) {})
	if err != nil {
		return err
	}
	if o.Trace {
		return traceCold(o, out, st)
	}
	a0 := allocBytes()
	cr, err := st.run(o, out, nil, o.duration(), 1000)
	if err != nil {
		return err
	}
	n := float64(len(cr.lat))
	return latencyMetrics(out, cr.lat, map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       n / cr.wall.Seconds(),
		"alloc_kb_per_op": float64(allocBytes()-a0) / 1024 / n,
		"heap_mb":         st.heapMB,
	})
}

// ---- predict-warm ----

// warmState is a running server whose preps are all warm and whose
// prediction cache holds the stream's most popular pairs, plus the
// reference cycles of every corpus pair.
type warmState struct {
	c      *corpus
	refs   *references
	srv    *liveServer
	cl     *client
	bodies [][]byte
	stream []int
	// hot lists the hotPairs most popular pairs in seeded order.
	hot    []int
	heapMB float64
}

func (st *warmState) url() string { return st.srv.url + "/v2/predict" }

func (st *warmState) close() {
	st.cl.close()
	st.srv.stop()
}

// setupWarm starts the server, prepares all 283 keys through it,
// computes the library references, then fills the prediction cache
// with the pool's most popular pairs so the timed phase starts at the
// cache's steady state.
func setupWarm(o options, out *outcome) (*warmState, error) {
	c := newCorpus()
	golden, err := loadGolden(o.Root, c.Kernels)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	st := &warmState{c: c, refs: &references{golden: golden}, srv: srv, cl: newClient(o.Procs)}
	var warm []pair
	for _, key := range c.Keys {
		warm = append(warm, pair{key.K, goldenDesigns(key.WG)[0]})
	}
	if err := st.sendAll(o, out, warm, "miss"); err != nil {
		st.close()
		return nil, err
	}
	lib, bad, err := libraryReferences(c, dse.NewPrepCache(), golden, o.Procs)
	if err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < bad; i++ {
		out.tally.fail(fmt.Errorf("library prediction differs from testdata/golden"))
	}
	st.refs.lib = lib
	for _, p := range c.Pairs {
		st.bodies = append(st.bodies, predictBody(p))
	}
	byRank := popularity(o.Seed, c.kernelOf())
	st.stream = zipfStream(o.Seed, byRank, int(interactiveRate*o.Seconds)+1)
	st.hot = byRank[:hotPairs]
	top := make([]pair, predCacheSize)
	for i := range top {
		top[i] = c.Pairs[byRank[i]]
	}
	if err := st.sendAll(o, out, top, ""); err != nil {
		st.close()
		return nil, err
	}
	st.heapMB = liveHeapMB()
	return st, nil
}

// predCacheSize is the server's default prediction-cache capacity.
const predCacheSize = 4096

// sendAll posts every pair once from o.Procs closed-loop clients and
// checks each answer.
func (st *warmState) sendAll(o options, out *outcome, pairs []pair, wantCache string) error {
	var failed atomic.Int64
	closedLoop(o.Procs, len(pairs), func() bool { return false }, func(i int) bool {
		code, data, err := st.cl.post(st.url(), predictBody(pairs[i]))
		if err := checkPredict(code, data, err, pairs[i], st.refs, wantCache); err != nil {
			out.tally.fail(err)
			failed.Add(1)
		} else {
			out.tally.ok()
		}
		return false
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("set-up: %d of %d requests failed", n, len(pairs))
	}
	return nil
}

// interactive sends stream request i and checks the answer.
func (st *warmState) interactive(out *outcome, tr *tracer, i int) {
	st.send(out, tr, st.stream[i%len(st.stream)])
}

// send posts the predict request of pair pi and checks the answer.
func (st *warmState) send(out *outcome, tr *tracer, pi int) {
	sp := tr.start("loadgen.request", -1)
	code, data, err := st.cl.post(st.url(), st.bodies[pi])
	tr.end(sp)
	if err := checkPredict(code, data, err, st.c.Pairs[pi], st.refs, ""); err != nil {
		out.tally.fail(err)
		return
	}
	out.tally.ok()
}

func (st *warmState) checkDials(o options) error {
	if n := st.cl.dials.Load(); n > int64(o.Procs) {
		return fmt.Errorf("load generator dialed %d connections for %d clients", n, o.Procs)
	}
	return nil
}

// warmPhase is one measured stretch of the warm workload: the open loop
// at interactiveRate starting at stream offset `from`, then closed-loop
// hot-pair requests from o.Procs clients.
type warmPhase struct {
	recs       []record
	closedN    int
	closedRate float64
}

func (st *warmState) phase(o options, out *outcome, tr *tracer, d time.Duration, from int) warmPhase {
	var wp warmPhase
	open := time.Duration(float64(d) * openShare)
	wp.recs = openLoop(o.Procs, interactiveRate, open, func(i int) { st.interactive(out, tr, from+i) })
	closed := d - open
	t0 := time.Now()
	deadline := t0.Add(closed)
	done := closedLoop(o.Procs, 1<<30, func() bool { return time.Now().After(deadline) }, func(i int) bool {
		st.send(out, tr, st.hot[i%len(st.hot)])
		return true
	})
	wp.closedN = len(done)
	counts := make([]float64, max(1, int(closed/rateBucket)))
	for _, r := range done {
		if b := int(r.done.Sub(t0) / rateBucket); b < len(counts) {
			counts[b]++
		}
	}
	wp.closedRate = median(counts) / rateBucket.Seconds()
	return wp
}

func runWarm(o options, out *outcome) error {
	st, setupS, err := repeatSetup(1, func() (*warmState, error) { return setupWarm(o, out) }, (*warmState).close)
	if err != nil {
		return err
	}
	defer st.close()
	if o.Trace {
		return traceWarm(o, out, st)
	}
	a0 := allocBytes()
	wp := st.phase(o, out, nil, o.duration(), 0)
	allocKB := float64(allocBytes()-a0) / 1024
	if err := st.checkDials(o); err != nil {
		return err
	}
	return openLoopMetrics(out, wp.recs, map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       wp.closedRate,
		"alloc_kb_per_op": allocKB / float64(len(wp.recs)+wp.closedN),
		"heap_mb":         st.heapMB,
	})
}

func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency())
	}
	return out
}

// ---- predict-mixed ----

// batchItems is the number of inline kernels per bulk batch request.
const batchItems = 1

// itemMacro is the macro that makes each bulk item's source distinct.
const itemMacro = "PERFBENCH_ITEM"

// inlineRef is the inline kernel reference of a generated workload;
// salt, when set, defines itemMacro so equal specs get distinct keys.
func inlineRef(spec bench.GenSpec, salt string) (api.KernelRef, error) {
	k, err := bench.Generate(spec)
	if err != nil {
		return api.KernelRef{}, err
	}
	dims := 1
	if k.TwoD {
		dims = 2
	}
	ref := api.KernelRef{
		Source: k.Source, Fn: k.Fn, Global: append([]int64(nil), k.Global[:dims]...),
		TwoD: k.TwoD, Scalars: k.Scalars,
	}
	if salt != "" {
		ref.Defines = map[string]string{itemMacro: salt}
	}
	return ref, nil
}

// inlineCase is one resolved inline spec with its design and reference
// cycles.
type inlineCase struct {
	spec   bench.GenSpec
	design model.Design
	cycles float64
}

// inlineCases resolves n of the seed's generated kernels, evenly spaced
// over families and sizes, through the library path (api.ResolveKernel,
// a prep cache, Analysis.Predict) and records their reference cycles.
func inlineCases(seed int64, p *device.Platform, n int) ([]inlineCase, error) {
	cache := dse.NewPrepCache()
	specs := inlineSpecs(seed)
	var out []inlineCase
	for i := 0; i < n; i++ {
		s := specs[i*len(specs)/n]
		ref, err := inlineRef(s.Spec, "")
		if err != nil {
			return nil, err
		}
		k, e := api.ResolveKernel(ref, api.V2)
		if e != nil {
			return nil, fmt.Errorf("resolving inline %v: %v", s.Spec, e)
		}
		space := dse.Space(sliceOf(k, k.MinWG), p)
		d := space[s.DesignDraw%uint64(len(space))]
		an, err := cache.Analysis(k, p, d.WGSize)
		if err != nil {
			return nil, err
		}
		out = append(out, inlineCase{spec: s.Spec, design: d, cycles: an.Predict(d).Cycles})
	}
	return out, nil
}

// batchBody encodes a /v2/predict:batch request of the given cases;
// item j defines itemMacro as firstItem+j, so every item is a distinct
// prep key with its case's analysis.
func batchBody(cases []inlineCase, idx []int, firstItem int) ([]byte, error) {
	var req api.BatchPredictRequest
	for j, ci := range idx {
		ref, err := inlineRef(cases[ci].spec, fmt.Sprint(firstItem+j))
		if err != nil {
			return nil, err
		}
		req.Items = append(req.Items, api.PredictRequest{Kernel: ref, Design: api.DesignToWire(cases[ci].design)})
	}
	return encode(req), nil
}

// checkBatch checks a batch answer item by item: each must succeed, be a
// prep miss, and equal its case's reference cycles.
func checkBatch(out *outcome, code int, data []byte, err error, cases []inlineCase, idx []int) {
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, data)
	}
	var res api.BatchPredictResponse
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err == nil && len(res.Items) != len(idx) {
		err = fmt.Errorf("%d items answered, %d sent", len(res.Items), len(idx))
	}
	if err != nil {
		for range idx {
			out.tally.fail(fmt.Errorf("batch: %w", err))
		}
		return
	}
	for i, it := range res.Items {
		c := cases[idx[i]]
		switch {
		case !it.OK:
			out.tally.fail(fmt.Errorf("batch item %v: %+v", c.spec, it.Error))
		case it.Result.Cache != "miss":
			out.tally.fail(fmt.Errorf("batch item %v: cache %q, want a prep miss", c.spec, it.Result.Cache))
		case it.Result.Cycles != c.cycles:
			out.tally.fail(fmt.Errorf("batch item %v: cycles %v, want %v", c.spec, it.Result.Cycles, c.cycles))
		default:
			out.tally.ok()
		}
	}
}

type mixedState struct {
	*warmState
	cases   []inlineCase
	batches [][]byte
	// items[b] lists the case index of each item of batch b.
	items [][]int
}

func setupMixed(o options, out *outcome) (*mixedState, error) {
	ws, err := setupWarm(o, out)
	if err != nil {
		return nil, err
	}
	st := &mixedState{warmState: ws}
	// Set-up computes the reference of every generated kernel; each bulk
	// item is one of them under its own item macro.
	st.cases, err = inlineCases(o.Seed, ws.c.P, len(inlineSpecs(o.Seed)))
	if err != nil {
		ws.close()
		return nil, err
	}
	// Enough batches that the bulk client cannot run out at several
	// times today's throughput.
	nb := int(o.Seconds*400)/batchItems + 1
	stream := bulkStream(o.Seed, len(st.cases), nb*batchItems)
	for b := 0; b < nb; b++ {
		idx := stream[b*batchItems : (b+1)*batchItems]
		body, err := batchBody(st.cases, idx, b*batchItems)
		if err != nil {
			ws.close()
			return nil, err
		}
		st.batches = append(st.batches, body)
		st.items = append(st.items, idx)
	}
	ws.heapMB = liveHeapMB()
	return st, nil
}

// bulk posts batch b, checks it, and returns its number of items.
func (st *mixedState) bulk(out *outcome, tr *tracer, b int) int {
	sp := tr.start("loadgen.batch", -1)
	code, data, err := st.cl.post(st.srv.url+"/v2/predict:batch", st.batches[b])
	tr.end(sp)
	checkBatch(out, code, data, err, st.cases, st.items[b])
	return len(st.items[b])
}

// mixedPhase runs the interactive open loop (one connection) beside one
// closed-loop bulk client (the other connection) for d.
type mixedPhase struct {
	recs  []record
	items int
	bulkT time.Duration
	nextB int
}

func (st *mixedState) phase(out *outcome, tr *tracer, d time.Duration, fromIn, fromB int) (mixedPhase, error) {
	mp := mixedPhase{}
	done := make(chan struct{})
	var items atomic.Int64
	var batches atomic.Int64
	bulkDone := make(chan time.Duration)
	go func() {
		t0 := time.Now()
		closedLoop(1, len(st.batches)-fromB, func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}, func(i int) bool {
			items.Add(int64(st.bulk(out, tr, fromB+i)))
			batches.Add(1)
			return false
		})
		bulkDone <- time.Since(t0)
	}()
	mp.recs = openLoop(1, interactiveRate, d, func(i int) { st.interactive(out, tr, fromIn+i) })
	close(done)
	mp.bulkT = <-bulkDone
	mp.items = int(items.Load())
	mp.nextB = fromB + int(batches.Load())
	if mp.nextB >= len(st.batches) {
		return mp, fmt.Errorf("bulk client used all %d pre-encoded batches", len(st.batches))
	}
	return mp, nil
}

func runMixed(o options, out *outcome) error {
	st, setupS, err := repeatSetup(1, func() (*mixedState, error) { return setupMixed(o, out) }, func(s *mixedState) { s.close() })
	if err != nil {
		return err
	}
	defer st.close()
	if o.Trace {
		return traceMixed(o, out, st)
	}
	a0 := allocBytes()
	mp, err := st.phase(out, nil, o.duration(), 0, 0)
	if err != nil {
		return err
	}
	allocKB := float64(allocBytes()-a0) / 1024
	if err := st.checkDials(o); err != nil {
		return err
	}
	return openLoopMetrics(out, mp.recs, map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       float64(mp.items) / mp.bulkT.Seconds(),
		"alloc_kb_per_op": allocKB / float64(len(mp.recs)+mp.items),
		"heap_mb":         st.heapMB,
	})
}
