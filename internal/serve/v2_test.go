package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/serve/api"
)

func TestV2PredictHappyPathAndCacheField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{
		"kernel": map[string]any{"id": "hotspot/hotspot"},
		"design": map[string]any{
			"wg_size": 64, "wi_pipeline": true, "pe": 4, "cu": 2, "mode": "pipeline",
		},
	}
	resp, body := postJSON(t, ts.URL+"/v2/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var res api.PredictResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if res.Kernel != "hotspot/hotspot" {
		t.Errorf("kernel = %q, want hotspot/hotspot", res.Kernel)
	}
	if res.SourceHash == "" {
		t.Error("source_hash is empty")
	}
	if res.Platform != "virtex7" {
		t.Errorf("platform = %q, want virtex7 (default)", res.Platform)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 {
		t.Errorf("non-positive estimate: cycles=%v seconds=%v", res.Cycles, res.Seconds)
	}
	if res.Cache != "miss" {
		t.Errorf("first request cache = %q, want miss", res.Cache)
	}

	resp, body = postJSON(t, ts.URL+"/v2/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cache != "pred" {
		t.Errorf("repeat request cache = %q, want pred", res.Cache)
	}
}

func TestV2PredictValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   map[string]any
		status int
		code   string
		substr string
	}{
		{"empty kernel", map[string]any{"design": map[string]any{}},
			400, api.CodeBadRequest, "kernel is required"},
		{"unknown kernel", map[string]any{"kernel": map[string]any{"id": "bogus/bogus"}},
			404, api.CodeNotFound, "unknown kernel bogus/bogus"},
		{"malformed id", map[string]any{"kernel": map[string]any{"id": "noslash"}},
			400, api.CodeBadRequest, "bench/kernel"},
		{"ambiguous ref", map[string]any{"kernel": map[string]any{"id": "hotspot/hotspot", "bench": "hotspot"}},
			400, api.CodeBadRequest, "ambiguous"},
		{"bad design", map[string]any{"kernel": map[string]any{"id": "hotspot/hotspot"},
			"design": map[string]any{"wg_size": 63}},
			400, api.CodeBadRequest, "not in the kernel's sweep"},
		{"bad platform", map[string]any{"kernel": map[string]any{"id": "hotspot/hotspot"},
			"platform": "asic"},
			400, api.CodeBadRequest, "unknown platform"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v2/predict", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.status, body)
			}
			var env struct {
				Error *api.Error `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("not a v2 error envelope: %v\n%s", err, body)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if !strings.Contains(env.Error.Message, tc.substr) {
				t.Errorf("message %q does not contain %q", env.Error.Message, tc.substr)
			}
		})
	}
}

func TestV2PredictInlineKernel(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	src := `__kernel void scale(__global const float* x, __global float* y, int n) {
	int i = get_global_id(0);
	y[i] = x[i] * 2.0f + (float)n;
}`
	req := map[string]any{
		"kernel": map[string]any{
			"source":  src,
			"fn":      "scale",
			"global":  []int64{1024},
			"scalars": map[string]int64{"n": 3},
		},
		"design": map[string]any{"wg_size": 64},
	}
	resp, body := postJSON(t, ts.URL+"/v2/predict", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var res api.PredictResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "inline/scale" {
		t.Errorf("kernel = %q, want inline/scale", res.Kernel)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles = %v, want > 0", res.Cycles)
	}

	// Unbound scalar arguments are a 400 naming the argument.
	bad := map[string]any{
		"kernel": map[string]any{
			"source": src, "fn": "scale", "global": []int64{1024},
		},
		"design": map[string]any{"wg_size": 64},
	}
	resp, body = postJSON(t, ts.URL+"/v2/predict", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unbound scalar: status = %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "scalar argument(s) unset: n") {
		t.Errorf("unbound scalar error does not name n: %s", body)
	}
}

// TestV2InlineLaunchBounds: inline launches that would size an
// allocation past the caps are typed 400s naming the field, rejected
// before anything is compiled or filled (2^31 × 2^31 work-items used
// to crash the process inside the detached prep fill).
func TestV2InlineLaunchBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	src := `__kernel void scale(__global const float* x, __global float* y, int n) {
	int i = get_global_id(0);
	y[i] = x[i] * 2.0f + (float)n;
}`
	cases := []struct {
		name    string
		global  []int64
		bufLens map[string]int64
		substr  string
	}{
		{"overflowing global", []int64{1 << 31, 1 << 31}, nil, "global"},
		{"global over cap", []int64{1 << 13, 1 << 13, 1 << 13}, nil, "global"},
		{"buf_lens over cap", []int64{1024}, map[string]int64{"x": 1 << 25}, `buf_lens["x"]`},
		{"buf_lens total over cap", []int64{1024}, map[string]int64{"x": 1 << 24, "y": 1}, "buf_lens"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := map[string]any{
				"kernel": map[string]any{
					"source": src, "fn": "scale", "global": tc.global,
					"buf_lens": tc.bufLens, "scalars": map[string]int64{"n": 3},
				},
				"design": map[string]any{"wg_size": 64},
			}
			resp, body := postJSON(t, ts.URL+"/v2/predict", req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
			}
			var env struct {
				Error *api.Error `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("not a v2 error envelope: %v\n%s", err, body)
			}
			if env.Error.Code != api.CodeBadRequest {
				t.Errorf("code = %q, want %q", env.Error.Code, api.CodeBadRequest)
			}
			if !strings.Contains(env.Error.Message, tc.substr) {
				t.Errorf("message %q does not name %s", env.Error.Message, tc.substr)
			}
		})
	}
}

// TestV2PredictCoalescing is the tentpole property: K concurrent
// predictions of the same kernel share ONE compile+analyze execution
// through the singleflight prep cache.
func TestV2PredictCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: time.Minute})
	const K = 32
	req := map[string]any{
		"kernel": map[string]any{"id": "hotspot/hotspot"},
		"design": map[string]any{"wg_size": 64},
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v2/predict", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d, body %s", resp.StatusCode, body)
				bad.Add(1)
			}
		}()
	}
	wg.Wait()
	if bad.Load() > 0 {
		t.Fatalf("%d/%d requests failed", bad.Load(), K)
	}
	st := s.prep.Stats()
	if st.Computes != 1 {
		t.Errorf("prep computes = %d for %d concurrent identical predicts, want 1", st.Computes, K)
	}
	// The other K-1 requests must each have been served by a dedup
	// layer: coalesced onto the in-flight prep fill, a prep-cache hit,
	// or a pred-cache (estimate) hit. With the static-profile fast
	// path, prep can finish before the stragglers arrive, so the pred
	// cache legitimately absorbs them instead of singleflight.
	deduped := st.Coalesced + st.Hits + s.pred.Stats().Hits
	if deduped < K-1 {
		t.Errorf("deduplicated lookups = %d (coalesced %d, prep hits %d, pred hits %d), want >= %d",
			deduped, st.Coalesced, st.Hits, s.pred.Stats().Hits, K-1)
	}
}

func TestV2PredictShed429(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxConcurrentPredicts: 1,
		PredictQueueDepth:     1,
		RetryAfter:            2 * time.Second,
		RequestTimeout:        time.Minute,
	})
	// Saturate: hold the only slot, then park one waiter to fill the
	// interactive lane's queue.
	release, _, err := s.admit.admit(context.Background(), laneInteractive)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if rel, _, err := s.admit.admit(waiterCtx, laneInteractive); err == nil {
			rel()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, _ := s.admit.depths()
		if q[laneInteractive] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	for _, path := range []string{"/v1/predict", "/v2/predict"} {
		body := map[string]any{"kernel": map[string]any{"id": "hotspot/hotspot"}}
		if path == "/v1/predict" {
			body = map[string]any{"bench": "hotspot", "kernel": "hotspot"}
		}
		resp, raw := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status = %d, want 429; body %s", path, resp.StatusCode, raw)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Errorf("%s: Retry-After = %q, want \"2\"", path, ra)
		}
		if !strings.Contains(string(raw), "queue full") {
			t.Errorf("%s: body does not mention queue full: %s", path, raw)
		}
	}

	// The metrics endpoint reports the shed and the queue state.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		`flexcl_predict_shed_total{lane="interactive"} 2`,
		`flexcl_predict_queue_depth{lane="interactive"} 1`,
		`flexcl_predict_slots_free 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	cancelWaiter()
	<-waiterDone
}

// TestAnalyzeCancellation pins the context contract of the model layer:
// a cancelled context aborts Analyze with the context's error.
func TestAnalyzeCancellation(t *testing.T) {
	k := bench.Find("hotspot", "hotspot")
	if k == nil {
		t.Fatal("hotspot kernel missing")
	}
	f, err := k.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = model.Analyze(ctx, f, device.Virtex7(), k.Config(64), model.AnalysisOptions{})
	if err == nil {
		t.Fatal("Analyze with cancelled context succeeded")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestV2PredictDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, body := postJSON(t, ts.URL+"/v2/predict", map[string]any{
		"kernel": map[string]any{"id": "hotspot/hotspot"},
		"design": map[string]any{"wg_size": 64},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("not a v2 error envelope: %s", body)
	}
	if env.Error.Code != api.CodeDeadline {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeDeadline)
	}
}

func TestV2BatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchTimeout: time.Minute})
	resp, body := postJSON(t, ts.URL+"/v2/predict:batch", map[string]any{
		"items": []map[string]any{
			{"kernel": map[string]any{"id": "hotspot/hotspot"},
				"design": map[string]any{"wg_size": 64}},
			{"kernel": map[string]any{"id": "nope/nope"},
				"design": map[string]any{"wg_size": 64}},
			{"kernel": map[string]any{"id": "hotspot/hotspot"},
				"design": map[string]any{"wg_size": 64, "pe": 4}},
			{"kernel": map[string]any{"id": "nn/nn"},
				"design": map[string]any{}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out api.BatchPredictResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 4 {
		t.Fatalf("items = %d, want 4", len(out.Items))
	}
	if out.Succeeded != 2 || out.Failed != 2 {
		t.Fatalf("succeeded/failed = %d/%d, want 2/2\n%s", out.Succeeded, out.Failed, body)
	}
	if !out.Items[0].OK || out.Items[0].Result == nil {
		t.Error("item 0 should succeed")
	}
	if out.Items[1].OK || out.Items[1].Error == nil || out.Items[1].Error.Code != api.CodeNotFound {
		t.Errorf("item 1 should fail not_found, got %+v", out.Items[1])
	}
	if out.Items[2].OK || out.Items[2].Error == nil ||
		out.Items[2].Error.Code != api.CodeBadRequest ||
		!strings.Contains(out.Items[2].Error.Message, "wi_pipeline") {
		t.Errorf("item 2 should fail bad_request naming wi_pipeline, got %+v", out.Items[2])
	}
	if !out.Items[3].OK {
		t.Errorf("item 3 should succeed, got %+v", out.Items[3])
	}
}

func TestV2BatchEnvelopeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})
	resp, body := postJSON(t, ts.URL+"/v2/predict:batch", map[string]any{
		"items": []map[string]any{},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "batch is empty") {
		t.Errorf("empty batch: status = %d, body %s", resp.StatusCode, body)
	}
	item := map[string]any{"kernel": map[string]any{"id": "hotspot/hotspot"}}
	resp, body = postJSON(t, ts.URL+"/v2/predict:batch", map[string]any{
		"items": []map[string]any{item, item, item},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "exceeds the limit of 2") {
		t.Errorf("oversize batch: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestV2BatchCoalescesDuplicates: a batch full of the same kernel also
// collapses to one compile+analyze.
func TestV2BatchCoalescesDuplicates(t *testing.T) {
	s, ts := newTestServer(t, Config{BatchTimeout: time.Minute})
	items := make([]map[string]any, 16)
	for i := range items {
		items[i] = map[string]any{
			"kernel": map[string]any{"id": "hotspot/hotspot"},
			"design": map[string]any{"wg_size": 64},
		}
	}
	resp, body := postJSON(t, ts.URL+"/v2/predict:batch", map[string]any{"items": items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out api.BatchPredictResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("failed = %d, want 0\n%s", out.Failed, body)
	}
	if st := s.prep.Stats(); st.Computes != 1 {
		t.Errorf("prep computes = %d for a 16-duplicate batch, want 1", st.Computes)
	}
}

func TestV2ExploreAndJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v2/explore", map[string]any{
		"kernel": map[string]any{"id": "nn/nn"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var acc api.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Kernel != "nn/nn" || !strings.HasPrefix(acc.URL, "/v2/jobs/") {
		t.Fatalf("bad acceptance: %+v", acc)
	}
	if loc := resp.Header.Get("Location"); loc != acc.URL {
		t.Errorf("Location = %q, want %q", loc, acc.URL)
	}
	v := waitJob(t, ts.URL+acc.URL, time.Minute)
	if v.State != JobDone {
		t.Fatalf("job state = %s (err %q), want done", v.State, v.Error)
	}
	if v.Summary == nil || v.Summary.Points == 0 || v.Summary.Best == nil {
		t.Fatalf("bad summary: %+v", v.Summary)
	}

	// Unknown job ids answer a typed 404.
	jr, err := http.Get(ts.URL + "/v2/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if jr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", jr.StatusCode)
	}
}

// TestV2ExploreGuided: the v2-only "search" field runs the
// branch-and-bound search and reports its evaluation accounting; the
// pareto strategy additionally returns the frontier.
func TestV2ExploreGuided(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v2/explore", map[string]any{
		"kernel": map[string]any{"id": "nn/nn"},
		"search": "pareto",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var acc api.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, ts.URL+acc.URL, time.Minute)
	if v.State != JobDone {
		t.Fatalf("job state = %s (err %q), want done", v.State, v.Error)
	}
	sum := v.Summary
	if sum == nil || sum.Best == nil {
		t.Fatalf("bad summary: %+v", sum)
	}
	if sum.Search != "pareto" {
		t.Errorf("summary search = %q, want pareto", sum.Search)
	}
	if sum.Evaluated+sum.Pruned != sum.SpacePoints || sum.SpacePoints == 0 {
		t.Errorf("evaluated %d + pruned %d != space %d", sum.Evaluated, sum.Pruned, sum.SpacePoints)
	}
	if sum.Evaluated >= sum.SpacePoints {
		t.Errorf("guided search evaluated the whole space (%d of %d)", sum.Evaluated, sum.SpacePoints)
	}
	if len(sum.Frontier) == 0 {
		t.Error("pareto search returned no frontier")
	}

	// The guided best must match the exhaustive best for the same kernel.
	resp, body = postJSON(t, ts.URL+"/v2/explore", map[string]any{
		"kernel": map[string]any{"id": "nn/nn"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	ev := waitJob(t, ts.URL+acc.URL, time.Minute)
	if ev.State != JobDone || ev.Summary == nil || ev.Summary.Best == nil {
		t.Fatalf("exhaustive job: state %s summary %+v", ev.State, ev.Summary)
	}
	if *ev.Summary.Best != *sum.Best {
		t.Errorf("guided best %+v != exhaustive best %+v", *sum.Best, *ev.Summary.Best)
	}
	if ev.Summary.Search != "" || ev.Summary.SpacePoints != 0 || len(ev.Summary.Frontier) != 0 {
		t.Errorf("exhaustive summary leaked guided fields: %+v", ev.Summary)
	}
}

// TestV2ExploreSearchValidation: unknown strategies and incompatible
// combinations answer typed 400s.
func TestV2ExploreSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []map[string]any{
		{"kernel": map[string]any{"id": "nn/nn"}, "search": "bogus"},
		{"kernel": map[string]any{"id": "nn/nn"}, "search": "guided", "sim": true},
		{"kernel": map[string]any{"id": "nn/nn"}, "search": "pareto", "prune_infeasible": true},
	} {
		resp, b := postJSON(t, ts.URL+"/v2/explore", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%v: status = %d, want 400 (%s)", body, resp.StatusCode, b)
		}
	}
}
