package model_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/model"
	"repro/internal/trace"
)

// prepGroups is the work-group count the prep path profiles with.
const prepGroups = 8

// TestAnalyzeStreamingMatchesMaterialised: at every prep key of the
// bundled and generated corpora, the analysis that streams each
// profiled group into the classifier equals the one built from the
// materialised trace — ProfileKernel, then ClassifyGrouped — bitwise:
// the classified memory behaviour, the block frequencies and the
// barrier count.
func TestAnalyzeStreamingMatchesMaterialised(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus comparison")
	}
	p := device.Virtex7()
	keys := 0
	for _, k := range append(bench.All(), bench.GeneratedCorpus()...) {
		for _, wg := range k.WGSizes() {
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
			}
			f.EnsureLoops()
			cfg := k.Config(wg)
			prof, err := interp.ProfileKernel(f, cfg, prepGroups)
			if err != nil {
				t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
			}
			label := fmt.Sprintf("%s wg=%d", k.ID(), wg)
			an, err := model.Analyze(context.Background(), f, p, k.Config(wg), model.AnalysisOptions{ProfileGroups: prepGroups})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			l := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
			wgSize := cfg.Range.Normalize().WorkGroupSize()
			want := trace.ClassifyGrouped(prof.Traces, wgSize, l, p.DRAM, p.MemAccessUnitBits/8)
			if d := classifiedDiff(an.Mem, want); d != "" {
				t.Errorf("%s: Mem %s", label, d)
			}
			if math.Float64bits(an.Barriers) != math.Float64bits(prof.Barriers) {
				t.Errorf("%s: Barriers %v, materialised %v", label, an.Barriers, prof.Barriers)
			}
			if len(an.Freq) != len(prof.BlockCounts) {
				t.Errorf("%s: %d block frequencies, materialised %d", label, len(an.Freq), len(prof.BlockCounts))
			}
			for b, c := range prof.BlockCounts {
				if got, ok := an.Freq[b]; !ok || math.Float64bits(got) != math.Float64bits(c) {
					t.Errorf("%s: Freq[%s] %v, materialised %v", label, b.Label(), got, c)
				}
			}
			keys++
		}
	}
	if keys < 283 {
		t.Errorf("compared %d prep keys, want at least the 283 bundled ones", keys)
	}
}

// classifiedDiff describes the first field of a and b whose bits
// differ, or returns "".
func classifiedDiff(a, b *trace.Classified) string {
	if a.WorkItems != b.WorkItems {
		return fmt.Sprintf("WorkItems %d vs %d", a.WorkItems, b.WorkItems)
	}
	fields := func(c *trace.Classified) []float64 {
		return append(c.N[:len(c.N):len(c.N)], c.BurstsPerWI, c.RawPerWI, c.Reads, c.Writes)
	}
	fa, fb := fields(a), fields(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Sprintf("field %d: %v vs %v\n got  %+v\n want %+v", i, fa[i], fb[i], *a, *b)
		}
	}
	return ""
}

// TestAnalyzeAllocatesOneGroupOfTrace: the prep path keeps at most one
// profiled group's trace alive, never the whole profile. syr2k at
// WG=256 traces about 528k accesses (8 MiB) over its eight profiled
// groups; analyzing it must allocate less than 3 MiB in all.
func TestAnalyzeAllocatesOneGroupOfTrace(t *testing.T) {
	k := bench.Find("syr2k", "syr2k")
	const wg = 256
	p := device.Virtex7()
	opts := model.AnalysisOptions{ProfileGroups: prepGroups}
	analyze := func() (uint64, error) {
		f, err := k.Compile(wg)
		if err != nil {
			return 0, err
		}
		cfg := k.Config(wg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = model.Analyze(context.Background(), f, p, cfg, opts)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	// The first analysis fills the process-wide DRAM pattern memo.
	if _, err := analyze(); err != nil {
		t.Fatal(err)
	}
	bytes, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	if bytes >= 3<<20 {
		t.Errorf("model.Analyze of syr2k wg=%d allocated %.2f MiB, want < 3 MiB", wg, float64(bytes)/(1<<20))
	}
	t.Logf("model.Analyze of syr2k wg=%d allocated %.2f MiB", wg, float64(bytes)/(1<<20))
}
