package trace_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/model"
	"repro/internal/rtlsim"
	"repro/internal/trace"
)

// TestRTLSimMemBurstsMatchOracle: the ground-truth simulator walks its
// work-groups through trace.CoalesceWG; on every prep key of the corpus
// its MemBursts equals the burst count of the oracle's materialised
// per-group streams over the same spread sample.
func TestRTLSimMemBurstsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus comparison")
	}
	const simGroups = 4
	p := device.Virtex7()
	for _, k := range bench.All() {
		for _, wg := range k.WGSizes() {
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
			}
			d := model.Design{WGSize: wg, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModePipeline}
			r, err := rtlsim.Simulate(f, p, k.Config(wg), d, rtlsim.Options{MaxGroups: simGroups})
			if err != nil {
				t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
			}
			cfg := k.Config(wg)
			prof, err := interp.ProfileKernelSpread(f, cfg, simGroups)
			if err != nil {
				t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
			}
			l := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
			var want int64
			for _, bs := range trace.OracleWGBursts(prof.Traces, prof.Params, cfg.Range.Normalize().WorkGroupSize(), l, p.MemAccessUnitBits/8) {
				want += int64(len(bs))
			}
			if r.MemBursts != want {
				t.Errorf("%s wg=%d: rtlsim MemBursts %d, oracle %d", k.ID(), wg, r.MemBursts, want)
			}
		}
	}
}
