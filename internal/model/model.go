package model

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/cdfg"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Analysis bundles everything FlexCL extracts from one kernel at one
// work-group size: the profiled trip counts, the classified global-memory
// trace, and the profiled device latencies. It is independent of the
// remaining design parameters, so one Analysis serves many design points.
//
// An Analysis may be built as a struct literal and is safe for
// concurrent use. Its exported fields must not change once it has made
// a prediction: the schedules derived from them are memoized.
type Analysis struct {
	F        *ir.Func
	Platform *device.Platform
	// Table is the profiled op latencies. Analyze shares one table per
	// platform across analyses: treat it as read-only.
	Table  *device.LatencyTable
	PatLat dram.PatternLatencies

	// Freq is average block executions per work-item.
	Freq map[*ir.Block]float64
	// Mem is the classified coalesced global-memory behaviour per WI.
	Mem *trace.Classified
	// NWI is N_wi^kernel, the total work-items of the launch.
	NWI int64
	// WGSize is the work-group size the profile was taken at.
	WGSize int64
	// Barriers is the barrier crossings per work-item.
	Barriers float64

	memo memo
}

// schedKey is one schedule class. II, Depth and MII (Eq. 1–4) depend on
// the design only through the per-PE resource budget and whether
// work-items are pipelined, so every design of a class shares one
// schedule.
type schedKey struct {
	res  sched.Resources
	pipe bool
}

// invariants are the design-invariant quantities the model derives from
// an Analysis.
type invariants struct {
	// tot is the frequency-weighted operation totals of Eq. 4 and 6.
	tot sched.FuncTotals
	// dspPerPE is the DSP slices one PE's cores occupy.
	dspPerPE float64
	// localBits is the local memory one CU allocates, in bits.
	localBits int64
}

// memo holds what an Analysis derives from its exported fields, each
// computed on first use and exactly once: a cold predict evaluates one
// design, so nothing is computed up front. The zero value is empty and
// ready.
type memo struct {
	invOnce sync.Once
	inv     invariants

	mu    sync.Mutex
	sched map[schedKey]func() sched.PipelineResult
}

// invariants returns the design-invariant quantities of the analysis.
func (a *Analysis) invariants() invariants {
	a.memo.invOnce.Do(func() { a.memo.inv = a.computeInvariants() })
	return a.memo.inv
}

func (a *Analysis) computeInvariants() invariants {
	inv := invariants{tot: sched.Totals(a.F, a.Freq, &sched.Config{Table: a.Table})}
	for _, b := range a.F.Blocks {
		for _, in := range b.Instrs {
			if c := a.Table.DSPCost(device.Classify(in)); c > 0 {
				inv.dspPerPE += float64(c * in.T.Lanes())
			}
		}
	}
	for _, al := range a.F.LocalAllocas() {
		inv.localBits += al.Count * int64(al.Elem.ElemSize()) * 8
	}
	return inv
}

// schedule returns the PE schedule of one class, scheduling it on first
// use. Concurrent callers of one class wait for a single computation;
// callers of other classes are not held up by it.
func (a *Analysis) schedule(res sched.Resources, pipe bool) sched.PipelineResult {
	k := schedKey{res: res, pipe: pipe}
	a.memo.mu.Lock()
	get := a.memo.sched[k]
	if get == nil {
		if a.memo.sched == nil {
			a.memo.sched = make(map[schedKey]func() sched.PipelineResult)
		}
		get = sync.OnceValue(func() sched.PipelineResult { return a.computeSchedule(k) })
		a.memo.sched[k] = get
	}
	a.memo.mu.Unlock()
	return get()
}

// computeSchedule schedules one class. A PE without work-item
// pipelining is re-issued per work-item: II = Depth, and the MII terms
// are zero.
func (a *Analysis) computeSchedule(k schedKey) sched.PipelineResult {
	scfg := &sched.Config{Table: a.Table, Res: k.res}
	g := cdfg.Build(a.F, a.Freq, scfg)
	if !k.pipe {
		depth := sched.SerialDepth(a.F, g.Freq, scfg)
		return sched.PipelineResult{II: depth, Depth: depth}
	}
	return *sched.SMS(a.F, g.Freq, g.BlockOffsets, scfg)
}

// AnalysisOptions tunes Analyze.
type AnalysisOptions struct {
	// ProfileGroups is how many work-groups the dynamic profiler runs
	// (§3.2: "only a few work-groups are profiled"). Default 2.
	ProfileGroups int
	// DRAMSamples sets the micro-benchmark length for pattern profiling.
	DRAMSamples int
	// OpSamples sets the op-latency profiling sample count.
	OpSamples int
}

// Analyze runs FlexCL's kernel analysis (§3.2) for one kernel and launch
// configuration: dynamic profiling for trip counts and the memory trace,
// plus device micro-benchmark profiling. The interp buffers are copies of
// workload inputs and are mutated.
//
// ctx bounds the analysis: cancellation or an expired deadline is
// honored at each stage boundary (before profiling, before trace
// classification, before device profiling), returning ctx.Err(). Callers
// that share one analysis across requests should analyze under a
// detached context instead (see dse.PrepCache), so one impatient
// request cannot poison the shared fill.
func Analyze(ctx context.Context, f *ir.Func, p *device.Platform, cfg *interp.Config, opts AnalysisOptions) (*Analysis, error) {
	if opts.ProfileGroups <= 0 {
		opts.ProfileGroups = 8
	}
	if opts.DRAMSamples <= 0 {
		opts.DRAMSamples = 4096
	}
	if opts.OpSamples <= 0 {
		opts.OpSamples = 256
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	f.EnsureLoops()
	// The profiler streams each work-group's traces straight into the
	// burst classifier (§3.4 classifies per work-group), so no trace
	// outlives its group; on error the classifier is dropped with the
	// profile.
	layout := trace.NewLayout(f, trace.BufferCounts(f, cfg), p.DRAM)
	cl := trace.NewClassifier(layout, p.DRAM, p.MemAccessUnitBits/8)
	_, psp := telemetry.Start(ctx, "profile")
	prof, err := interp.ProfileKernelTo(f, cfg, opts.ProfileGroups, cl.Group)
	if prof != nil {
		psp.Annotate("source", string(prof.Source))
		psp.Annotate("loop_iters_summarized", fmt.Sprint(prof.LoopIters.Summarized))
		psp.Annotate("loop_iters_stepped", fmt.Sprint(prof.LoopIters.Stepped))
	}
	psp.Annotate("groups", fmt.Sprint(opts.ProfileGroups))
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("model: profiling %s: %w", f.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	_, msp := telemetry.Start(ctx, "memtrace")
	cls := cl.Result()
	msp.Annotate("bursts_per_wi", fmt.Sprintf("%.3f", cls.BurstsPerWI))
	msp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("model: analyzing %s: %w", f.Name, err)
	}
	_, dsp := telemetry.Start(ctx, "devprofile")
	table := latencyTable(p, opts.OpSamples)
	patLat := patternLatencies(p.DRAM, opts.DRAMSamples, device.HashString(p.Name))
	dsp.End()
	nd := cfg.Range.Normalize()
	return &Analysis{
		F:        f,
		Platform: p,
		Table:    table,
		PatLat:   patLat,
		Freq:     prof.BlockCounts,
		Mem:      cls,
		NWI:      nd.TotalWorkItems(),
		WGSize:   nd.WorkGroupSize(),
		Barriers: prof.Barriers,
	}, nil
}

// patternKey is every input of one DRAM pattern micro-benchmark.
type patternKey struct {
	dram    device.DRAMParams
	samples int
	seed    uint64
}

// patternMemo maps patternKey → dram.PatternLatencies. The latencies
// are a pure value of the key and every prep on one platform asks for
// the same ones, so each is computed once per process. Platforms come
// from a fixed catalogue, which bounds the memo.
var patternMemo sync.Map

// patternLatencies is dram.ProfilePatterns, memoized per patternKey.
// Callers that time or print the micro-benchmark itself call
// dram.ProfilePatterns directly.
func patternLatencies(p device.DRAMParams, samples int, seed uint64) dram.PatternLatencies {
	k := patternKey{p, samples, seed}
	if v, ok := patternMemo.Load(k); ok {
		return v.(dram.PatternLatencies)
	}
	lat := dram.ProfilePatterns(p, samples, seed)
	patternMemo.Store(k, lat)
	return lat
}

// tableKey selects one device.Profile result: the platform name seeds
// the sampling and the catalogue hash stands for its operation
// catalogue, which a hit then compares in full.
type tableKey struct {
	name    string
	ops     uint64
	samples int
}

// tableEntry is one memoized latency table with the platform it was
// profiled on.
type tableEntry struct {
	p     *device.Platform
	table *device.LatencyTable
}

// tableMemo maps tableKey → tableEntry. Platforms come from a fixed
// catalogue, and serve builds fresh *Platform values per job, so the
// key is the platform's contents, not its pointer.
var tableMemo sync.Map

// latencyTable is device.Profile, memoized per platform name, operation
// catalogue and sample count. Every Analysis on one platform shares the
// table, so Analysis.Table is read-only.
func latencyTable(p *device.Platform, samples int) *device.LatencyTable {
	k := tableKey{p.Name, p.OpsHash(), samples}
	if v, ok := tableMemo.Load(k); ok {
		if e := v.(tableEntry); e.p.SameOps(p) {
			return e.table
		}
		return device.Profile(p, samples) // hash collision: do not memoize
	}
	t := device.Profile(p, samples)
	tableMemo.Store(k, tableEntry{p, t})
	return t
}

// Estimate is the model's prediction for one design point, with the full
// breakdown of intermediate quantities for inspection and reporting.
type Estimate struct {
	Design Design
	Mode   CommMode // effective mode

	// PE model (Eq. 1–4).
	IIComp int // II_comp^wi
	Depth  int // D_comp^PE
	RecMII int
	ResMII int

	// Parallelism (Eq. 6, 8).
	NPE int
	NCU int

	// Memory model (Eq. 9).
	LMemWI float64

	// Composite latencies.
	LCompCU     float64 // Eq. 5
	LCompKernel float64 // Eq. 7
	Cycles      float64 // Eq. 10 or 11
	Seconds     float64
}

// Clone returns an independent copy of the estimate. Estimate is a flat
// value type (no interior pointers), so a shallow copy is a deep copy;
// Clone exists so shared caches can hand out copies without aliasing
// their stored entry (see dse.PredCache).
func (e *Estimate) Clone() *Estimate {
	if e == nil {
		return nil
	}
	c := *e
	return &c
}

// PEResources derives the scheduler's per-PE issue limits from the
// platform and the design's parallelism: local ports and DSP cores are
// CU-level resources shared by the replicated PEs. It is the model's
// schedule-class key, and the simulator builds the same hardware.
func PEResources(p *device.Platform, d Design) sched.Resources {
	dspPerCU := p.DSPTotal / maxInt(1, d.CU)
	// A DSP-backed core costs ≈3–4 slices; each PE can sustain a bounded
	// number of concurrent DSP issues.
	dspSlots := dspPerCU / (4 * maxInt(1, d.PE))
	if dspSlots > 16 {
		dspSlots = 16
	}
	return sched.Resources{
		LocalRead:  maxInt(1, p.LocalReadPorts()),
		LocalWrite: maxInt(1, p.LocalWritePorts()),
		Global:     2,
		DSPSlots:   maxInt(1, dspSlots),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Ablations disable individual model components for the sensitivity
// studies of DESIGN.md (§5): each switch removes one design choice the
// full model makes.
type Ablations struct {
	// SingleMemLatency replaces the eight-pattern memory model (Eq. 9)
	// with one flat average latency per access.
	SingleMemLatency bool
	// NoCoalescing prices every raw access instead of coalesced bursts.
	NoCoalescing bool
	// NoSchedOverhead drops ΔL_schedule (Eq. 7–8 reduce to perfect CUs).
	NoSchedOverhead bool
	// IIFromMII skips the SMS refinement and uses MII directly.
	IIFromMII bool
}

// Predict evaluates the full analytical model for one design point.
func (a *Analysis) Predict(d Design) *Estimate {
	return a.PredictWith(d, Ablations{})
}

// PredictWith evaluates the model with selected components disabled.
func (a *Analysis) PredictWith(d Design, ab Ablations) *Estimate {
	e := &Estimate{Design: d, Mode: EffectiveMode(a.F, d)}
	res := PEResources(a.Platform, d)

	// Computation model: CDFG depth + work-item pipeline schedule.
	s := a.schedule(res, d.WIPipeline)
	e.IIComp, e.Depth = s.II, s.Depth
	e.RecMII, e.ResMII = s.RecMII, s.ResMII
	if d.WIPipeline && ab.IIFromMII {
		e.IIComp = s.MII
	}

	// Eq. 6 — effective PE parallelism: the P replicas share the CU's
	// local-memory ports and DSP budget. (The printed equation's
	// ⌈Port/(N·P)⌉ terms degenerate to 1 for any realistic P; we
	// implement the evident intent Port/N capped by P.)
	tot := a.invariants().tot
	e.NPE = d.PE
	if tot.LocalReads >= 1 {
		e.NPE = minInt(e.NPE, maxInt(1, int(float64(res.LocalRead)/tot.LocalReads)))
	}
	if tot.LocalWrites >= 1 {
		e.NPE = minInt(e.NPE, maxInt(1, int(float64(res.LocalWrite)/tot.LocalWrites)))
	}
	if tot.DSPOps >= 1 {
		dspPerCU := a.Platform.DSPTotal / maxInt(1, d.CU)
		cores := float64(dspPerCU) / (tot.DSPOps * 4)
		e.NPE = minInt(e.NPE, maxInt(1, int(cores)))
	}

	// Eq. 5 — compute-unit latency.
	nwg := float64(d.WGSize)
	ii := float64(e.IIComp)
	depth := float64(e.Depth)
	waves := math.Ceil((nwg - float64(e.NPE)) / float64(e.NPE))
	if waves < 0 {
		waves = 0
	}
	e.LCompCU = ii*waves + depth

	// Eq. 8 — effective CU parallelism from scheduling overhead.
	dls := float64(a.Platform.WGSchedOverhead)
	if ab.NoSchedOverhead {
		dls = 0
	}
	e.NCU = d.CU
	if dls > 0 {
		if v := int(math.Ceil(e.LCompCU / dls)); v < e.NCU {
			e.NCU = v
		}
	}
	// No more CUs can be busy than there are work-groups to run.
	if g := int(math.Ceil(float64(a.NWI) / nwg)); g < e.NCU {
		e.NCU = g
	}
	if e.NCU < 1 {
		e.NCU = 1
	}

	// Eq. 7 — kernel computation latency.
	batches := math.Ceil(float64(a.NWI) / (nwg * float64(e.NCU)))
	e.LCompKernel = e.LCompCU*batches + float64(d.CU)*dls

	// Eq. 9 — per-work-item global memory latency.
	e.LMemWI = trace.MemLatencyWI(a.Mem, a.PatLat)
	if ab.SingleMemLatency {
		var flat float64
		for _, v := range a.PatLat {
			flat += v
		}
		flat /= float64(len(a.PatLat))
		e.LMemWI = a.Mem.BurstsPerWI * flat
	}
	if ab.NoCoalescing && a.Mem.BurstsPerWI > 0 {
		e.LMemWI *= a.Mem.RawPerWI / a.Mem.BurstsPerWI
	}

	switch e.Mode {
	case ModeBarrier:
		// Eq. 10 — all global transfers serialize through the single
		// DRAM channel and computation follows per work-group. With one
		// CU this is exactly L_mem^wi·N_wi + L_comp^kernel; with several,
		// a CU's computation overlaps the other CUs' serialized
		// transfers, hiding up to (1−1/N_CU) of the smaller term.
		memT := e.LMemWI * float64(a.NWI)
		overlap := (1 - 1/float64(e.NCU)) * math.Min(e.LCompKernel, memT)
		e.Cycles = memT + e.LCompKernel - overlap
	case ModePipeline:
		// Eq. 11–12 — memory pipelined against compute. The single
		// in-order memory channel is shared by the N_PE pipelines and
		// N_CU units, so the per-wave initiation interval is bounded by
		// the channel occupancy N_PE·N_CU·L_mem^wi; with N_PE = N_CU = 1
		// this is exactly II_wi = max(L_mem^wi, II_comp^wi) of Eq. 12.
		iiWI := math.Max(ii, e.LMemWI*float64(e.NPE)*float64(e.NCU))
		e.Cycles = (iiWI*waves + depth) * batches
		// The in-order channel must still carry every work-item's
		// transfers even when the PE array swallows a whole work-group
		// in one wave (waves = 0): Eq. 12's max() applied at full scale.
		if floor := e.LMemWI * float64(a.NWI); e.Cycles < floor {
			e.Cycles = floor
		}
	}
	// The serial work-group dispatcher bounds throughput from below in
	// either mode (the mechanism behind Eq. 8): no launch can finish
	// faster than ΔL_schedule per work-group.
	groups := math.Ceil(float64(a.NWI) / nwg)
	if floor := dls * groups; e.Cycles < floor {
		e.Cycles = floor
	}
	e.Seconds = e.Cycles / (a.Platform.ClockMHz * 1e6)
	return e
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
