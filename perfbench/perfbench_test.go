package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/serve/api"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so sorting matters
		}
		return s
	}
	if _, err := percentile(ramp(999), 99); err == nil {
		t.Error("p99 of 999 samples: want an error (only 9 beyond it)")
	}
	v, err := percentile(ramp(1000), 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, err)
	}
	if _, err := percentile(ramp(19), 50); err == nil {
		t.Error("p50 of 19 samples: want an error")
	}
	if v, err := percentile(ramp(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if err := latencyMetrics(newOutcome(), ramp(999), nil); err == nil {
		t.Error("latency metrics of 999 samples: want an error")
	}
	if err := openLoopMetrics(newOutcome(), make([]record, 1999), nil); err != nil {
		t.Errorf("one full window: %v", err)
	}
	if err := openLoopMetrics(newOutcome(), make([]record, 999), nil); err == nil {
		t.Error("no full window: want an error")
	}
}

func TestSeedStreams(t *testing.T) {
	a, b := streamBytes(7), streamBytes(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different input streams")
	}
	if bytes.Equal(a, streamBytes(8)) {
		t.Fatal("different seeds gave the same input streams")
	}
	for _, seed := range []int64{1, 7, heldOutSeed} {
		specs := inlineSpecs(seed)
		for _, s := range specs {
			if _, err := inlineRef(s.Spec, ""); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// stubServer answers every /v2/predict with the given status and body.
func stubServer(t *testing.T, code int, body any) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL + "/v2/predict"
}

func TestFailureCounting(t *testing.T) {
	c := newCorpus()
	p := pair{c.Keys[0].K, goldenDesigns(c.Keys[0].WG)[0]}
	refs := &references{golden: map[string]float64{p.id(): 1234}}
	answer := func(cycles float64) api.PredictResult {
		return api.PredictResult{Design: api.DesignToWire(p.D), Cycles: cycles, Cache: "pred"}
	}
	cases := []struct {
		name string
		url  string
		fail bool
	}{
		{"correct", stubServer(t, http.StatusOK, answer(1234)), false},
		{"shed", stubServer(t, http.StatusTooManyRequests, map[string]any{"error": map[string]any{"code": "shed"}}), true},
		{"perturbed cycles", stubServer(t, http.StatusOK, answer(1234.5)), true},
		{"server error", stubServer(t, http.StatusInternalServerError, nil), true},
	}
	var tl tally
	cl := newClient(1)
	defer cl.close()
	wantFailed := 0
	for _, tc := range cases {
		code, data, err := cl.post(tc.url, predictBody(p))
		if err := checkPredict(code, data, err, p, refs, ""); err != nil {
			tl.fail(err)
			if !tc.fail {
				t.Errorf("%s: counted as failed: %v", tc.name, err)
			}
		} else {
			tl.ok()
			if tc.fail {
				t.Errorf("%s: not counted as failed", tc.name)
			}
		}
		if tc.fail {
			wantFailed++
		}
	}
	if tl.attempted.Load() != int64(len(cases)) || tl.failed.Load() != int64(wantFailed) {
		t.Errorf("tally %d attempted / %d failed, want %d / %d",
			tl.attempted.Load(), tl.failed.Load(), len(cases), wantFailed)
	}
	// A transport error is a failed operation too.
	code, data, err := cl.post("http://127.0.0.1:1/v2/predict", predictBody(p))
	if checkPredict(code, data, err, p, refs, "") == nil {
		t.Error("transport error: not counted as failed")
	}
}

// TestTracedDecomposition checks that the traced run's step-by-step prep
// and predict give the same Estimate as model.Analyze + Analysis.Predict
// and the golden corpus, for a seeded sample of keys.
func TestTracedDecomposition(t *testing.T) {
	c := newCorpus()
	golden, err := loadGolden("..", c.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	o := options{Seed: 3, Root: ".."}
	if err := probeLayers(o, out, c, golden, sampleKeys(o.Seed, c, 12)); err != nil {
		t.Fatal(err)
	}
	if out.tally.failed.Load() != 0 || out.tally.attempted.Load() != 48 {
		t.Fatalf("decomposition: %d of %d checks failed", out.tally.failed.Load(), out.tally.attempted.Load())
	}
	for _, m := range []string{"interp.profile_ms", "model.analyze_ms", "model.predict_us", "cdfg.build_us"} {
		if out.metrics[m] <= 0 {
			t.Errorf("%s = %v, want a positive time", m, out.metrics[m])
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(40)},
		{name: "b", parent: 0, start: at(30), end: at(50)},  // overlaps a
		{name: "c", parent: 0, start: at(90), end: at(120)}, // clipped at 100
	}}
	self := tr.selfTimes()
	if want := 100 - 40 - 10; self[0] != time.Duration(want)*time.Millisecond {
		t.Errorf("root self time %v, want %dms", self[0], want)
	}
	if self[1] != 30*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", self[1])
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start("off", -1)) // the untraced run records nothing
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("BENCHMARK.json not found")
	}
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics registered, %d reported", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: registered %+v, reported %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is registered but not implemented", w.Name)
		}
	}
}
