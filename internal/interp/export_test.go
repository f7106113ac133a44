package interp

import "repro/internal/ir"

// SetProfileStepLimitForTest lowers the per-work-item runaway guard so
// tests (and the analyzer fuzzer) can exercise infinite-loop handling
// without executing 64M steps. It returns a restore function.
func SetProfileStepLimitForTest(n int64) (restore func()) {
	old := profStepLimit
	profStepLimit = n
	return func() { profStepLimit = old }
}

// InterpProfileToForTest streams the reference interpreter's prefix
// profile of f to sink, bypassing the static fast path.
func InterpProfileToForTest(f *ir.Func, cfg *Config, maxGroups int, sink GroupSink) (*Profile, error) {
	return interpProfile(f, cfg, sampleFor(cfg, maxGroups, false), sink)
}

// PlanStepsForTest compiles f's static plan for cfg's launch and
// returns the compiled step count of every reachable block, by label;
// nil when f is not statically analyzable.
func PlanStepsForTest(f *ir.Func, cfg *Config) map[string]int {
	plan, err := planFor(f)
	if err != nil {
		return nil
	}
	x := newPlanExec(plan, cfg, cfg.Range.Normalize())
	out := make(map[string]int)
	var walk func(bp *blockPlan)
	walk = func(bp *blockPlan) {
		if bp == nil {
			return
		}
		label := x.blocks[bp.idx].Label()
		if _, seen := out[label]; seen {
			return
		}
		out[label] = len(bp.steps)
		walk(bp.to)
		walk(bp.els)
	}
	walk(x.entry)
	return out
}
