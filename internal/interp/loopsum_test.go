package interp_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/irgen"
	"repro/internal/obs"
)

// loopEdgeKernels are counted loops at the edges of the closed-form
// summary: trip counts of zero, every exit predicate, strides of both
// signs, bounds at the int and long limits, casts on the induction
// path, a second carried cell, values read after the loop, a fault on
// the last iteration only, a narrowing cast that wraps mid-loop and a
// runaway loop. summary says what the summary does under fuzzConfig's
// launch (scalars of 8, buffers of 128): "fires" runs it in closed
// form, "falls back" compiles it but steps the loop because a run-time
// check fails, "none" declines the loop at compile time. They also
// seed FuzzAffineAnalyzer.
var loopEdgeKernels = []struct {
	name, src string
	summary   string
	wantErr   string
}{
	{name: "zero-trip", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    for (int i = n; i < 4; i++) { x[i] = i; }
    x[get_global_id(0)] = 1;
}`},
	{name: "negative-step-gt", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    int g = get_global_id(0);
    for (int i = n * 4; i > 0; i -= 3) { x[i + g] = 1; }
}`},
	{name: "le", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    int g = get_global_id(0);
    for (int i = 0; i <= n; i++) { x[g + i * 8] = x[i]; }
}`},
	{name: "ge-decrement", summary: "fires", src: `__kernel void k(__global float* x, int n) {
    for (int i = n; i >= 0; i--) { x[i + get_local_id(0)] = 0.5f; }
}`},
	{name: "reversed-compare", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    int i = 0;
    while (n > i) { x[i * 2] = 1; i = i + 1; }
}`},
	{name: "ne", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    for (int i = 0; i != n * 2; i += 2) { x[i] = 1; }
}`},
	{name: "int-limit", summary: "fires", src: `__kernel void k(__global int* x) {
    for (int i = 2147483640; i < 2147483647; i++) { x[i - 2147483640] = 1; }
}`},
	{name: "long-limit", summary: "fires", src: `__kernel void k(__global int* x) {
    for (long i = 9223372036854775800L; i < 9223372036854775807L; i++) { x[i - 9223372036854775800L] = 1; }
}`},
	// The exit test only fails once i wraps past the long limit: the
	// summary must not take the line for an exact integer.
	{name: "long-wrap", summary: "falls back", src: `__kernel void k(__global int* x, int n) {
    for (long i = 9223372036854775805L; i > 0; i++) { x[n] = 1; }
    x[get_global_id(0)] = 2;
}`},
	{name: "oob-last-iteration", summary: "falls back", wantErr: "store out of bounds: x[128] (len 128)", src: `__kernel void k(__global int* x, int n) {
    for (int i = 0; i <= n; i++) { x[i * 16] = 1; }
}`},
	{name: "int-cast-induction", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    for (long i = 0; i < n; i = (int)(i + 1)) { x[i] = 1; }
}`},
	{name: "char-induction", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    for (char c = 0; c < n; c++) { x[(int)c * 3] = 1; }
}`},
	{name: "wrapping-cast", summary: "falls back", src: `__kernel void k(__global int* x, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s = (uchar)(s + 100); x[i] = 1; }
    x[s & 127] = 2;
}`},
	{name: "second-carried-cell", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    int s = get_global_id(0);
    for (int i = 0; i < n; i++) { x[s] = i; s = s + 3; }
    x[s] = 0;
}`},
	{name: "read-after-loop", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    int i;
    int last = 0;
    for (i = 1; i < n; i++) { last = i * 4 + 1; x[last] = 1; }
    x[i + last] = 2;
}`},
	{name: "invariant-cell-in-body", summary: "fires", src: `__kernel void k(__global int* x, int n) {
    int g = get_global_id(0);
    int m = n;
    for (int i = 0; i < m; i++) { x[g + i * m] = 1; }
}`},
	{name: "store-in-header", summary: "none", src: `__kernel void k(__global int* x, int n) {
    int i = 0;
    while ((i = i + 1) < n) { x[i] = 1; }
    x[i] = 2;
}`},
	{name: "runaway", summary: "falls back", wantErr: "exceeded", src: `__kernel void k(__global int* x) {
    int s = get_global_id(0);
    while (s >= 0) { s = s + 0; }
    x[0] = s;
}`},
}

// TestLoopSummaryEdgeCases requires the static profile of every edge
// kernel to equal the interpreter's, or both to fail with the same
// error, and the summary to fire, fall back or decline as listed.
func TestLoopSummaryEdgeCases(t *testing.T) {
	restore := interp.SetProfileStepLimitForTest(1 << 14)
	defer restore()
	for _, k := range loopEdgeKernels {
		t.Run(k.name, func(t *testing.T) {
			m, err := irgen.Compile(k.name+".cl", []byte(k.src), map[string]string{"WG": "16"})
			if err != nil {
				t.Fatal(err)
			}
			f := m.Kernels[0]
			requireStaticEqualsInterp(t, f, k.wantErr)
			hits, _ := interp.SummarizedLoopsForTest(f, fuzzConfig(f), 2)
			got := "none"
			if len(hits) > 0 {
				got = "falls back"
			}
			for _, n := range hits {
				if n > 0 {
					got = "fires"
				}
			}
			if got != k.summary {
				t.Fatalf("summary %s, want %s (%v)", got, k.summary, hits)
			}
		})
	}
}

// TestLoopItersSplit checks the profile's loop-iteration split: the
// static profile of a loop nest reports its inner loop as summarized
// and its outer loop as stepped, the interpreter's steps both, and the
// /metrics counter grows by the summarized share.
func TestLoopItersSplit(t *testing.T) {
	m, err := irgen.Compile("mm.cl", []byte(`__kernel void k(__global int* x, int n) {
    int g = get_global_id(0);
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) { x[g + j] = i; }
    }
}`), map[string]string{"WG": "16"})
	if err != nil {
		t.Fatal(err)
	}
	f := m.Kernels[0]
	counter := obs.Global().Counter("profile_loop_iterations_summarized_total", "")
	before := counter.Value()
	sp, err := interp.ProfileKernel(f, fuzzConfig(f), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Other tests may profile concurrently: the counter grows by at
	// least this profile's share.
	if d := counter.Value() - before; d < uint64(sp.LoopIters.Summarized) {
		t.Errorf("summarized counter grew by %d, want at least %d", d, sp.LoopIters.Summarized)
	}
	ip, err := interp.InterpProfile(f, fuzzConfig(f), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// 32 work-items, 8 outer and 64 inner iterations each.
	if got, want := sp.LoopIters, (interp.LoopIters{Summarized: 32 * 64, Stepped: 32 * 8}); got != want {
		t.Errorf("static LoopIters = %+v, want %+v", got, want)
	}
	if got, want := ip.LoopIters, (interp.LoopIters{Stepped: 32 * 72}); got != want {
		t.Errorf("interp LoopIters = %+v, want %+v", got, want)
	}
}
