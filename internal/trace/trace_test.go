package trace

import (
	"testing"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/opencl/ast"
)

func compileKernel(tb testing.TB, src, name string) *ir.Func {
	tb.Helper()
	m, err := irgen.Compile("test.cl", []byte(src), nil)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	k := m.Kernel(name)
	if k == nil {
		tb.Fatalf("kernel %s missing", name)
	}
	return k
}

func TestLayoutRowAligned(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a, __global float* b, __global int* c) {
    int i = get_global_id(0);
    c[i] = (int)(a[i] + b[i]);
}`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 100, "b": 100, "c": 100}, p)
	if l.Base["a"] != 0 {
		t.Errorf("a base = %d", l.Base["a"])
	}
	for name, base := range l.Base {
		if base%int64(p.RowBytes) != 0 {
			t.Errorf("%s base %d not row aligned", name, base)
		}
	}
	if l.Base["b"] == l.Base["c"] || l.Base["a"] == l.Base["b"] {
		t.Error("buffers overlap")
	}
}

func TestCoalesceUnitStride(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 1024}, p)
	prm := int32(k.GlobalParams()[0].Index)
	// One WI writing 16 consecutive floats = 64 bytes = 1 burst.
	var accs []interp.Access
	for i := 0; i < 16; i++ {
		accs = append(accs, interp.Access{Param: prm, Index: int64(i), Bytes: 4, Write: true})
	}
	bursts := collect([][]interp.Access{accs}, l, 64)
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1 (f = 512/32 = 16)", len(bursts))
	}
	if !bursts[0].Write {
		t.Error("burst direction wrong")
	}
}

func TestCoalesceBreaksOnDirectionChange(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a) { a[0] = a[1]; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 64}, p)
	prm := int32(k.GlobalParams()[0].Index)
	accs := []interp.Access{
		{Param: prm, Index: 0, Bytes: 4, Write: false},
		{Param: prm, Index: 1, Bytes: 4, Write: true}, // direction flips
		{Param: prm, Index: 2, Bytes: 4, Write: false},
	}
	bursts := collect([][]interp.Access{accs}, l, 64)
	if len(bursts) != 3 {
		t.Fatalf("bursts = %d, want 3 (no merging across direction changes)", len(bursts))
	}
}

func TestCoalesceStridedNoMerge(t *testing.T) {
	k := compileKernel(t, `
__kernel void k(__global float* a) { a[0] = 0.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 4096}, p)
	prm := int32(k.GlobalParams()[0].Index)
	// Stride-32 floats: 128-byte gaps, no coalescing.
	var accs []interp.Access
	for i := 0; i < 8; i++ {
		accs = append(accs, interp.Access{Param: prm, Index: int64(i * 32), Bytes: 4, Write: false})
	}
	bursts := collect([][]interp.Access{accs}, l, 64)
	if len(bursts) != 8 {
		t.Fatalf("bursts = %d, want 8", len(bursts))
	}
}

func TestCoalesceSkipsNonGlobalParams(t *testing.T) {
	// An access to a parameter with no buffer in the layout is dropped
	// and ends the open run; it never extends it, even when its address
	// computed against a missing base would be contiguous.
	k := compileKernel(t, `
__kernel void k(__global float* a, int n) { a[0] = (float)n; }`, "k")
	l := NewLayout(k, map[string]int64{"a": 64}, device.Virtex7().DRAM)
	a, n := int32(k.Param("a").Index), int32(k.Param("n").Index)
	accs := []interp.Access{
		{Param: a, Index: 0, Bytes: 4},
		{Param: n, Index: 5, Bytes: 1},
		{Param: a, Index: 1, Bytes: 4},
	}
	got := collect([][]interp.Access{accs}, l, 4)
	want := []Burst{{Addr: 0}, {Addr: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("bursts = %v, want %v", got, want)
	}
}

func runTrace(t *testing.T, src, name string, n int64, wg int64) (*ir.Func, *interp.Profile, *interp.Config) {
	t.Helper()
	k := compileKernel(t, src, name)
	buf := interp.NewFloatBuffer(ast.KFloat, int(n)*2)
	cfg := &interp.Config{
		Range:   interp.NDRange{Global: [3]int64{n}, Local: [3]int64{wg}},
		Buffers: map[string]*interp.Buffer{"a": buf},
		Scalars: map[string]interp.Val{"n": interp.IntVal(n)},
	}
	// Drop unused bindings silently.
	prof, err := interp.ProfileKernel(k, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return k, prof, cfg
}

func TestClassifySequentialStream(t *testing.T) {
	k, prof, cfg := runTrace(t, `
__kernel void k(__global float* a, int n) {
    int i = get_global_id(0);
    if (i < n) { a[n + i] = a[i] * 2.0f; }
}`, "k", 256, 64)
	p := device.Virtex7().DRAM
	l := NewLayout(k, BufferCounts(k, cfg), p)
	c := ClassifyGrouped(prof.Traces, 1, l, p, 64) // per-work-item coalescing
	if c.WorkItems != 128 {
		t.Fatalf("work-items = %d", c.WorkItems)
	}
	if c.BurstsPerWI <= 0 {
		t.Fatal("no bursts recorded")
	}
	// Sequential per-WI single accesses cannot coalesce within a WI
	// (one read + one write each), so ~2 bursts per WI.
	if c.BurstsPerWI < 1.5 || c.BurstsPerWI > 2.5 {
		t.Errorf("bursts/WI = %v, want ≈2", c.BurstsPerWI)
	}
	var total float64
	for _, n := range c.N {
		total += n
	}
	if total != c.BurstsPerWI {
		t.Errorf("pattern counts %v don't sum to bursts %v", total, c.BurstsPerWI)
	}
}

func TestMemLatencyWeightedSum(t *testing.T) {
	var c Classified
	c.N[dram.RARHit] = 2
	c.N[dram.WAWMiss] = 1
	var lat dram.PatternLatencies
	lat[dram.RARHit] = 10
	lat[dram.WAWMiss] = 50
	if got := MemLatencyWI(&c, lat); got != 70 {
		t.Errorf("Eq.9 = %v, want 70", got)
	}
}

func TestCoalescingFactorUnitStrideLoop(t *testing.T) {
	// One work-item reads 64 consecutive floats: f = 16 per §3.4 example.
	k, prof, cfg := runTrace(t, `
__kernel void k(__global float* a, int n) {
    int i = get_global_id(0);
    float s = 0.0f;
    for (int j = 0; j < 64; j++) { s += a[j]; }
    a[n + i] = s;
}`, "k", 64, 4)
	p := device.Virtex7().DRAM
	l := NewLayout(k, BufferCounts(k, cfg), p)
	c := ClassifyGrouped(prof.Traces, 1, l, p, 64) // per-work-item coalescing
	// 64 reads coalesce to 4 bursts + 1 write burst: 65 raw / 5 bursts = 13.
	if c.CoalescingFactor() < 10 {
		t.Errorf("coalescing factor = %v, want > 10", c.CoalescingFactor())
	}
}

func TestRandomAccessHasMisses(t *testing.T) {
	// The buffer spans several rows of every bank (a 2 KiB buffer fits
	// in row 0 of each), so scattered accesses keep missing after the
	// warm-up groups have opened a row in every bank.
	k, prof, cfg := runTrace(t, `
__kernel void k(__global float* a, int n) {
    int i = get_global_id(0);
    int j = (i * 137) % n;
    a[n + j] = a[j * 7 % n];
}`, "k", 4096, 64)
	p := device.Virtex7().DRAM
	l := NewLayout(k, BufferCounts(k, cfg), p)
	c := ClassifyGrouped(prof.Traces, 64, l, p, 64)
	var misses float64
	for pat := dram.RARMiss; pat <= dram.WAWMiss; pat++ {
		misses += c.N[pat]
	}
	if misses == 0 {
		t.Error("random access pattern produced no row misses")
	}
}
