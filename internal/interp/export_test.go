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

// SummarizedLoopsForTest profiles f on the static executor and returns,
// by loop header label, how many loop entries ran in closed form; nil
// when f is not statically analyzable. Loops with a compiled summary
// that never fired map to 0.
func SummarizedLoopsForTest(f *ir.Func, cfg *Config, maxGroups int) (map[string]int64, error) {
	plan, err := planFor(f)
	if err != nil {
		return nil, nil
	}
	_, x, err := execPlan(plan, cfg, sampleFor(cfg, maxGroups, false), nil)
	if x == nil {
		return nil, err
	}
	out := make(map[string]int64, len(x.sums))
	for _, d := range x.sums {
		out[x.blocks[d.head].Label()] += d.hits
	}
	return out, err
}
