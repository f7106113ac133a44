package trace

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
)

// corpusProfileGroups is the work-group count the prep path profiles
// with (dse.PrepCache, model.Analyze's default).
const corpusProfileGroups = 8

// equalBursts reports the first difference between two per-group burst
// streams, or "".
func equalBursts(got, want [][]Burst) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, oracle %d", len(got), len(want))
	}
	for g := range want {
		if len(got[g]) != len(want[g]) {
			return fmt.Sprintf("group %d: %d bursts, oracle %d", g, len(got[g]), len(want[g]))
		}
		for i := range want[g] {
			if got[g][i] != want[g][i] {
				return fmt.Sprintf("group %d burst %d: %+v, oracle %+v", g, i, got[g][i], want[g][i])
			}
		}
	}
	return ""
}

// checkAgainstOracle compares the streaming path with the oracle on one
// trace set: the per-group burst streams and the classification, both
// exactly.
func checkAgainstOracle(t *testing.T, label string, traces [][]interp.Access, params []*ir.Param, wgSize int64, l Layout, p device.DRAMParams, unit int) {
	t.Helper()
	if d := equalBursts(wgBursts(traces, wgSize, l, unit), oracleWGBursts(traces, params, wgSize, l, unit)); d != "" {
		t.Errorf("%s unit=%d: bursts differ: %s", label, unit, d)
	}
	got := ClassifyGrouped(traces, wgSize, l, p, unit)
	want := oracleClassifyGrouped(traces, params, wgSize, l, p, unit)
	if *got != *want {
		t.Errorf("%s unit=%d: Classified differs\n got    %+v\n oracle %+v", label, unit, *got, *want)
	}
}

// TestStreamingMatchesOracleCorpus: on every (kernel, work-group size)
// prep key of the bundled corpus, profiled as the prep path profiles
// it, the streaming coalescer and classifier reproduce the oracle
// exactly at the 4-byte and the 64-byte (512-bit) unit.
func TestStreamingMatchesOracleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus comparison")
	}
	p := device.Virtex7().DRAM
	keys := 0
	for _, k := range bench.All() {
		for _, wg := range k.WGSizes() {
			label := fmt.Sprintf("%s wg=%d", k.ID(), wg)
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			f.EnsureLoops()
			cfg := k.Config(wg)
			prof, err := interp.ProfileKernel(f, cfg, corpusProfileGroups)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			l := NewLayout(f, BufferCounts(f, cfg), p)
			wgSize := cfg.Range.Normalize().WorkGroupSize()
			for _, unit := range []int{4, 64} {
				checkAgainstOracle(t, label, prof.Traces, prof.Params, wgSize, l, p, unit)
			}
			keys++
		}
	}
	t.Logf("%d prep keys × 2 units match the oracle", keys)
}

// FuzzClassifyGrouped generates traces with ragged per-work-item
// lengths, direction flips, unit and irregular strides, mixed widths
// and accesses to parameters that are not global buffers, and checks
// the streaming path against the oracle at every work-group size and
// both units.
func FuzzClassifyGrouped(f *testing.F) {
	k := compileFuzzKernel(f)
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 1 << 14, "b": 1 << 12}, p)
	f.Add([]byte{}, uint8(0), false)
	f.Add([]byte{16, 8, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, uint8(7), true)
	f.Add([]byte{5, 3, 9, 200, 17, 4, 1, 1, 30, 2, 8, 0, 64, 3, 99, 7}, uint8(2), false)
	f.Add([]byte("ragged traces with flips and misses"), uint8(3), true)
	f.Fuzz(func(t *testing.T, data []byte, wg uint8, unit64 bool) {
		traces := fuzzTraces(data)
		wgSize := 1 + int64(wg)%int64(len(traces))
		unit := 4
		if unit64 {
			unit = 64
		}
		checkAgainstOracle(t, fmt.Sprintf("wg=%d", wgSize), traces, k.Params, wgSize, l, p, unit)
	})
}

// compileFuzzKernel compiles a kernel whose parameter list mixes global
// buffers of two widths with a scalar and a local pointer, so a trace
// can name a parameter the layout has no base for.
func compileFuzzKernel(tb testing.TB) *ir.Func {
	tb.Helper()
	return compileKernel(tb, `
__kernel void k(__global float* a, int n, __global double* b, __local float* s) {
    a[0] = b[0] + s[0] + n;
}`, "k")
}

// fuzzTraces decodes fuzz bytes into 1–24 work-item traces of 0–31
// accesses each. Every access picks a parameter (mostly the global
// buffers a and b, sometimes the scalar n or the local s), a direction,
// a width and an index step from the work-item's previous access.
func fuzzTraces(data []byte) [][]interp.Access {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	params := [...]int32{0, 0, 2, 2, 0, 1, 3, 2}
	steps := [...]int64{1, 1, 1, 0, -1, 2, 16, 64, 257, -33}
	widths := [...]uint16{4, 4, 8, 16, 1}
	traces := make([][]interp.Access, 1+int(next())%24)
	for wi := range traces {
		n := int(next()) % 32
		idx := int64(wi)
		tr := make([]interp.Access, 0, n)
		for j := 0; j < n; j++ {
			op := next()
			idx += steps[int(next())%len(steps)]
			if idx < 0 {
				idx = 0
			}
			tr = append(tr, interp.Access{
				Index: idx % 4096,
				Param: params[op%8],
				Bytes: widths[int(op>>3)%len(widths)],
				Write: op&0x80 != 0,
			})
		}
		traces[wi] = tr
	}
	return traces
}

// TestClassifyGroupedAllocs: classification streams the bursts into the
// bank-state machine, so its allocations are a handful of fixed
// objects (the result, the DRAM mapping and the bank table) no matter
// how long the traces are. gemm at WG=256 profiles 2,048 work-items.
func TestClassifyGroupedAllocs(t *testing.T) {
	k := bench.Find("gemm", "gemm")
	const wg = 256
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := k.Config(wg)
	prof, err := interp.ProfileKernel(f, cfg, corpusProfileGroups)
	if err != nil {
		t.Fatal(err)
	}
	p := device.Virtex7()
	l := NewLayout(f, BufferCounts(f, cfg), p.DRAM)
	wgSize := cfg.Range.Normalize().WorkGroupSize()
	unit := p.MemAccessUnitBits / 8
	allocs := testing.AllocsPerRun(5, func() {
		ClassifyGrouped(prof.Traces, wgSize, l, p.DRAM, unit)
	})
	if allocs > 8 {
		t.Errorf("ClassifyGrouped allocates %v times per call, want ≤ 8", allocs)
	}
}
