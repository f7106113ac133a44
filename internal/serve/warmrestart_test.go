package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
)

// warmCorpus is the deterministic stride-6 kernel subset (10 of the 60
// bundled kernels, spanning Rodinia and PolyBench) that flexcl-check
// -smoke and the DSE benchmarks also use.
func warmCorpus() []*bench.Kernel {
	var out []*bench.Kernel
	for i, k := range bench.All() {
		if i%6 == 0 {
			out = append(out, k)
		}
	}
	return out
}

// predictKernel runs one /v2/predict for k at its first WG size and
// returns the raw response body; any transport error or non-200
// status is an error. It never touches a *testing.T, so concurrent
// goroutines may call it.
func predictKernel(baseURL string, k *bench.Kernel) ([]byte, error) {
	req, err := json.Marshal(map[string]any{
		"kernel": map[string]any{"id": k.ID()},
		"design": map[string]any{"wg_size": k.WGSizes()[0]},
	})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(baseURL+"/v2/predict", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: predict status %d: %s", k.ID(), resp.StatusCode, body)
	}
	return body, nil
}

// predictCorpus runs one /v2/predict per corpus kernel (first WG size
// each) and returns the raw response bodies keyed by kernel id plus the
// per-request wall times.
func predictCorpus(t *testing.T, baseURL string, ks []*bench.Kernel) (map[string][]byte, []time.Duration) {
	t.Helper()
	bodies := make(map[string][]byte, len(ks))
	times := make([]time.Duration, 0, len(ks))
	for _, k := range ks {
		t0 := time.Now()
		body, err := predictKernel(baseURL, k)
		times = append(times, time.Since(t0))
		if err != nil {
			t.Fatal(err)
		}
		bodies[k.ID()] = body
	}
	return bodies, times
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// TestWarmRestartArtifact is the tentpole's acceptance proof: a server
// started against an artifact directory populated by a previous
// instance serves the corpus with ZERO compile+analyze computes — every
// prep fill restored from disk — and returns byte-identical prediction
// bodies. With BENCH_SERVE_JSON set it also writes the cold-vs-warm
// comparison as the `make bench-serve` CI artifact.
func TestWarmRestartArtifact(t *testing.T) {
	dir := t.TempDir()
	ks := warmCorpus()
	if len(ks) == 0 {
		t.Fatal("empty corpus")
	}

	// Cold start: empty directory, every prediction pays the full
	// compile+analyze.
	cold, coldTS := newTestServer(t, Config{ArtifactDir: dir})
	coldBodies, coldTimes := predictCorpus(t, coldTS.URL, ks)
	coldStats := cold.prep.Stats()
	if coldStats.Computes != uint64(len(ks)) {
		t.Fatalf("cold computes = %d, want %d (one per kernel)", coldStats.Computes, len(ks))
	}
	if coldStats.DiskHits != 0 {
		t.Fatalf("cold disk hits = %d, want 0", coldStats.DiskHits)
	}
	// Let the trailing artifact writes land before the "restart".
	cold.prep.Flush()
	if cold.artifacts == nil {
		t.Fatal("server opened no artifact store despite ArtifactDir")
	}
	if got := cold.artifacts.Len(); got != len(ks) {
		t.Fatalf("store holds %d records after the cold run, want %d", got, len(ks))
	}

	// Warm restart: a fresh process (new Server, new caches) on the
	// populated directory.
	warm, warmTS := newTestServer(t, Config{ArtifactDir: dir})
	warmBodies, warmTimes := predictCorpus(t, warmTS.URL, ks)
	warmStats := warm.prep.Stats()
	if warmStats.Computes != 0 {
		t.Errorf("warm restart ran %d compile+analyze computes, want 0", warmStats.Computes)
	}
	if warmStats.DiskHits != uint64(len(ks)) {
		t.Errorf("warm disk hits = %d, want %d", warmStats.DiskHits, len(ks))
	}
	for _, k := range ks {
		if !bytes.Equal(coldBodies[k.ID()], warmBodies[k.ID()]) {
			t.Errorf("%s: warm body differs from cold\ncold: %s\nwarm: %s",
				k.ID(), coldBodies[k.ID()], warmBodies[k.ID()])
		}
	}

	// The artifact counters surface on /metrics for fleet dashboards.
	resp, err := http.Get(warmTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb bytes.Buffer
	if _, err := sb.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"flexcl_artifact_hits", "flexcl_artifact_misses",
		"flexcl_prep_cache_disk_hits", "flexcl_prep_cache_evictions",
	} {
		if !bytes.Contains(sb.Bytes(), []byte(metric)) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	if out := os.Getenv("BENCH_SERVE_JSON"); out != "" {
		writeBenchServeArtifact(t, out, len(ks), coldStats.Computes, warmStats.DiskHits, coldTimes, warmTimes)
	}
}

// cacheField matches the "cache" member of an indented v2 predict
// body: how this request was answered, which legitimately varies
// between concurrent requests for the same key.
var cacheField = regexp.MustCompile(`"cache": "(pred|prep|coalesced|miss)"`)

// TestSharedArtifactDirReplicas is the documented multi-replica
// deployment: two live servers share one ArtifactDir and take
// overlapping concurrent predictions for the same keys. Every answer
// matches a memory-only single-node reference (all but the cache
// provenance field byte for byte), no request fails, and each replica
// fills each key once, from its own compute or its sibling's record.
// A third server on the directory then answers every key from disk
// with zero computes and bodies identical to the reference in full.
func TestSharedArtifactDirReplicas(t *testing.T) {
	ks := warmCorpus()
	_, refTS := newTestServer(t, Config{})
	ref, _ := predictCorpus(t, refTS.URL, ks)

	dir := t.TempDir()
	a, aTS := newTestServer(t, Config{ArtifactDir: dir})
	b, bTS := newTestServer(t, Config{ArtifactDir: dir})
	const rounds = 3
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		start  = make(chan struct{})
	)
	for r := 0; r < rounds; r++ {
		for _, base := range []string{aTS.URL, bTS.URL} {
			for _, k := range ks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					body, err := predictKernel(base, k)
					if err != nil {
						failed.Add(1)
						t.Error(err)
						return
					}
					if !cacheField.Match(body) {
						t.Errorf("%s: body carries no known cache value: %s", k.ID(), body)
					}
					got := cacheField.ReplaceAll(body, nil)
					want := cacheField.ReplaceAll(ref[k.ID()], nil)
					if !bytes.Equal(got, want) {
						t.Errorf("%s via %s: body differs from the single-node reference\ngot:  %s\nwant: %s",
							k.ID(), base, body, ref[k.ID()])
					}
				}()
			}
		}
	}
	close(start)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed", n, rounds*2*len(ks))
	}
	for name, s := range map[string]*Server{"a": a, "b": b} {
		s.prep.Flush()
		st := s.prep.Stats()
		t.Logf("replica %s: %d computes, %d disk hits, %d coalesced", name, st.Computes, st.DiskHits, st.Coalesced)
		if st.Computes+st.DiskHits != uint64(len(ks)) {
			t.Errorf("replica %s filled %d computes + %d disk hits, want %d keys filled once",
				name, st.Computes, st.DiskHits, len(ks))
		}
	}

	c, cTS := newTestServer(t, Config{ArtifactDir: dir})
	bodies, _ := predictCorpus(t, cTS.URL, ks)
	st := c.prep.Stats()
	if st.Computes != 0 {
		t.Errorf("third replica ran %d compile+analyze computes, want 0", st.Computes)
	}
	if st.DiskHits != uint64(len(ks)) {
		t.Errorf("third replica disk hits = %d, want %d", st.DiskHits, len(ks))
	}
	for _, k := range ks {
		if !bytes.Equal(bodies[k.ID()], ref[k.ID()]) {
			t.Errorf("%s: third replica body differs from the reference\ngot:  %s\nwant: %s",
				k.ID(), bodies[k.ID()], ref[k.ID()])
		}
	}
}

// writeBenchServeArtifact records the cold-start vs warm-restart
// comparison as the `make bench-serve` CI artifact (BENCH_serve.json).
func writeBenchServeArtifact(t *testing.T, path string, kernels int, coldComputes, warmDiskHits uint64, coldTimes, warmTimes []time.Duration) {
	t.Helper()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var coldSum, warmSum time.Duration
	for _, d := range coldTimes {
		coldSum += d
	}
	for _, d := range warmTimes {
		warmSum += d
	}
	speedup := 0.0
	if warmSum > 0 {
		speedup = float64(coldSum) / float64(warmSum)
	}
	art := map[string]any{
		"benchmark":          "ServeColdVsWarmRestart",
		"kernels":            kernels,
		"cold_computes":      coldComputes,
		"warm_computes":      0,
		"warm_disk_hits":     warmDiskHits,
		"cold_p50_ms":        ms(quantile(coldTimes, 0.50)),
		"cold_p99_ms":        ms(quantile(coldTimes, 0.99)),
		"cold_total_ms":      ms(coldSum),
		"warm_p50_ms":        ms(quantile(warmTimes, 0.50)),
		"warm_p99_ms":        ms(quantile(warmTimes, 0.99)),
		"warm_total_ms":      ms(warmSum),
		"cold_over_warm":     speedup,
		"predictions_match":  true,
		"zero_warm_computes": true,
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold p99 %.1fms, warm p99 %.1fms, cold/warm %.1fx over %d kernels",
		ms(quantile(coldTimes, 0.99)), ms(quantile(warmTimes, 0.99)), speedup, kernels)
}
