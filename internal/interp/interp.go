// Package interp executes FlexCL IR functionally. It plays two roles from
// the paper (§3.2): the dynamic profiler that runs "a few work-groups" of
// a kernel to collect loop trip counts and the global-memory access trace
// when static analysis cannot determine them, and the reference executor
// used to validate kernel translations against Go implementations.
package interp

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// Val is a runtime scalar or vector value.
type Val struct {
	I   int64
	F   float64
	Vec []Val // non-nil for vectors; lanes are scalars
}

// IntVal makes an integer scalar.
func IntVal(v int64) Val { return Val{I: v} }

// FloatVal makes a floating scalar.
func FloatVal(v float64) Val { return Val{F: v} }

// Buffer is a global/constant memory buffer bound to a kernel pointer
// argument. Data is stored as flattened scalars; vector element types use
// lane-major order.
type Buffer struct {
	Elem ast.Type // pointee element type of the kernel argument
	// Exactly one of I/F is used, by Elem.Base.IsFloat().
	I []int64
	F []float64
}

// NewIntBuffer allocates an integer buffer of n elements of kind k.
func NewIntBuffer(k ast.BaseKind, n int) *Buffer {
	return &Buffer{Elem: ast.Scalar(k), I: make([]int64, n)}
}

// NewFloatBuffer allocates a float buffer of n elements of kind k.
func NewFloatBuffer(k ast.BaseKind, n int) *Buffer {
	return &Buffer{Elem: ast.Scalar(k), F: make([]float64, n)}
}

// Len returns the element count (scalar slots / lanes).
func (b *Buffer) Len() int {
	if b.Elem.Base.IsFloat() {
		return len(b.F)
	}
	return len(b.I)
}

// Access is one recorded global-memory access of a work-item. It holds
// no pointers (the buffer is named by its parameter ordinal), so traces
// are 16-byte records the garbage collector never scans.
type Access struct {
	Index int64  // element index into the buffer (scalar slots)
	Param int32  // ordinal of the buffer argument (ir.Param.Index)
	Bytes uint16 // access width in bytes
	Write bool
}

// NDRange is the kernel launch geometry.
type NDRange struct {
	Global [3]int64 // global work size per dimension (0 → 1)
	Local  [3]int64 // work-group size per dimension (0 → 1)
}

// Normalize fills unset dimensions with 1.
func (n NDRange) Normalize() NDRange {
	for d := 0; d < 3; d++ {
		if n.Global[d] <= 0 {
			n.Global[d] = 1
		}
		if n.Local[d] <= 0 {
			n.Local[d] = 1
		}
	}
	return n
}

// NumGroups returns the work-group count per dimension.
func (n NDRange) NumGroups() [3]int64 {
	var g [3]int64
	for d := 0; d < 3; d++ {
		g[d] = (n.Global[d] + n.Local[d] - 1) / n.Local[d]
	}
	return g
}

// TotalWorkItems returns the NDRange size.
func (n NDRange) TotalWorkItems() int64 {
	return n.Global[0] * n.Global[1] * n.Global[2]
}

// WorkGroupSize returns work-items per work-group.
func (n NDRange) WorkGroupSize() int64 {
	return n.Local[0] * n.Local[1] * n.Local[2]
}

// TotalGroups returns the total work-group count.
func (n NDRange) TotalGroups() int64 {
	g := n.NumGroups()
	return g[0] * g[1] * g[2]
}

// Config binds a kernel launch: geometry, buffers and scalar arguments.
type Config struct {
	Range NDRange
	// Buffers maps pointer-parameter names to buffers.
	Buffers map[string]*Buffer
	// Scalars maps value-parameter names to values.
	Scalars map[string]Val
}

// Profile is the dynamic-profiling result.
type Profile struct {
	// BlockCounts is the average execution count of each block per
	// work-item (the trip-count information of §3.2).
	BlockCounts map[*ir.Block]float64
	// Traces holds the per-work-item global access sequences, in
	// work-item issue order within each profiled group. ProfileKernelTo
	// streams them to its sink instead and leaves Traces nil.
	Traces [][]Access
	// Params is the profiled kernel's parameter list; Access.Param
	// indexes it. Diff reads it to name buffers.
	Params []*ir.Param
	// WorkItems is the number of profiled work-items.
	WorkItems int
	// Barriers is the number of barrier crossings per work-item.
	Barriers float64
	// Source records which profiling path produced the profile (see
	// fastpath.go); it is informational and excluded from Diff.
	Source Source
	// LoopIters splits the loop iterations of the profiled work-items
	// by how the executor produced them; informational and excluded
	// from Diff.
	LoopIters LoopIters
}

// LoopIters counts loop iterations, as visits of each natural loop's
// latch block, over the work-items of the completed groups.
type LoopIters struct {
	// Summarized iterations were emitted in closed form (loopsum.go).
	Summarized int64
	// Stepped iterations were executed one by one, by either path.
	Stepped int64
}

// Run executes every work-group of the kernel, mutating the buffers.
// It returns an execution error (bad memory access, missing argument).
func Run(f *ir.Func, cfg *Config) error {
	_, err := execute(f, cfg, prefixSample(-1), nil)
	return err
}

// A GroupSink receives the global-memory traces of each profiled
// work-group as the group completes, in dispatch order: one access
// slice per work-item, in work-item issue order. The slices are valid
// only during the call; a sink that keeps them must copy.
type GroupSink func(group [][]Access)

// ProfileKernel collects trip counts and global-memory traces for up to
// maxGroups work-groups (default 2). The profiled groups are the first
// maxGroups of the launch — FlexCL's own choice (§3.2), whose sampling
// bias is part of the modeled error.
//
// The profile is produced by one of two paths that yield the exact
// same result (see fastpath.go): the static slice executor when the
// kernel analyzes and the launch does not fault, else the sequential
// reference interpreter. Profile.Source records the path taken.
// Buffers are mutated only on the interpreted path.
func ProfileKernel(f *ir.Func, cfg *Config, maxGroups int) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	return profileCopy(f, cfg, sampleFor(cfg, maxGroups, false))
}

// ProfileKernelTo is ProfileKernel streaming the traces: each profiled
// work-group's traces go to sink as the group completes, and the
// returned profile's Traces is nil, so no trace outlives its group.
// When profiling fails, sink may also have received the groups of an
// abandoned fast-path run; the caller discards its state.
func ProfileKernelTo(f *ir.Func, cfg *Config, maxGroups int, sink GroupSink) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	return profileDispatch(f, cfg, sampleFor(cfg, maxGroups, false), func() GroupSink { return sink })
}

// ProfileKernelSpread is ProfileKernel with representative sampling:
// the maxGroups profiled work-groups are spread evenly across the whole
// launch instead of taken from its start. Ground-truth consumers
// (rtlsim) use this so extrapolating a sample to the full launch is not
// biased by atypical leading groups (boundary tiles, early-exit rows);
// the analytical model deliberately keeps the paper's prefix sampling.
// Work-groups of one launch are independent (OpenCL offers no
// inter-group ordering), so any subset is as valid to execute as a
// prefix. Buffers are mutated only on the interpreted path (see
// ProfileKernel).
func ProfileKernelSpread(f *ir.Func, cfg *Config, maxGroups int) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	return profileCopy(f, cfg, sampleFor(cfg, maxGroups, true))
}

// sampleFor builds the group sample of a profiling run: the prefix of
// the launch, or — for spread sampling with more groups than the sample
// — exactly maxGroups groups spread evenly across the launch. Include
// gid iff ⌊(gid+1)·m/t⌋ > ⌊gid·m/t⌋: deterministic, in dispatch order.
func sampleFor(cfg *Config, maxGroups int, spread bool) groupSample {
	if !spread {
		return prefixSample(maxGroups)
	}
	total := cfg.Range.Normalize().TotalGroups()
	if int64(maxGroups) >= total {
		return prefixSample(maxGroups)
	}
	m, t := int64(maxGroups), total
	sel := func(gid int64) bool {
		return (gid+1)*m/t > gid*m/t
	}
	return groupSample{sel: sel, last: t - 1}
}

// groupSample selects which work-groups (by linear dispatch index) an
// execution runs. last bounds the scan so prefix runs stop early.
type groupSample struct {
	sel  func(gid int64) bool
	last int64 // highest gid worth visiting; -1 = all
}

// prefixSample selects the first n groups (n < 0 = every group).
func prefixSample(n int) groupSample {
	if n < 0 {
		return groupSample{sel: func(int64) bool { return true }, last: -1}
	}
	return groupSample{sel: func(gid int64) bool { return gid < int64(n) }, last: int64(n) - 1}
}

// errGroupAborted marks work-items unwound because a peer died.
var errGroupAborted = errors.New("interp: work-group aborted after a peer error")

// execError aborts a work-item with a diagnostic.
type execError struct{ err error }

// execute runs the sampled work-groups on the interpreter. With a sink,
// work-items trace their global accesses and each completed group's
// traces go to it.
func execute(f *ir.Func, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	nd := cfg.Range.Normalize()
	groups := nd.NumGroups()
	wgSize := nd.WorkGroupSize()
	if wgSize <= 0 {
		return nil, fmt.Errorf("interp: empty work-group")
	}
	if err := validateArgs(f, cfg); err != nil {
		return nil, err
	}

	prof := &Profile{BlockCounts: make(map[*ir.Block]float64), Params: f.Params}
	var mu sync.Mutex // guards prof and atomics

	gid := int64(0)
loop:
	for gz := int64(0); gz < groups[2]; gz++ {
		for gy := int64(0); gy < groups[1]; gy++ {
			for gx := int64(0); gx < groups[0]; gx++ {
				if sample.last >= 0 && gid > sample.last {
					break loop
				}
				if sample.sel(gid) {
					if err := runGroup(f, cfg, nd, [3]int64{gx, gy, gz}, sink, prof, &mu); err != nil {
						return prof, err
					}
				}
				gid++
			}
		}
	}
	finalizeProfile(f, prof)
	return prof, nil
}

// validateArgs checks that every kernel parameter is bound in cfg, with
// the same errors on every profiling path.
func validateArgs(f *ir.Func, cfg *Config) error {
	for _, p := range f.Params {
		if p.T.Ptr {
			if cfg.Buffers[p.PName] == nil {
				return fmt.Errorf("interp: missing buffer for parameter %s", p.PName)
			}
		} else if _, ok := cfg.Scalars[p.PName]; !ok {
			return fmt.Errorf("interp: missing scalar argument %s", p.PName)
		}
	}
	return nil
}

// finalizeProfile turns the summed block visits of the completed groups
// into per-work-item averages, after counting the loop iterations they
// hold.
func finalizeProfile(f *ir.Func, p *Profile) {
	f.EnsureLoops()
	var iters float64
	for _, l := range f.Loops {
		if l.Latch != nil {
			iters += p.BlockCounts[l.Latch]
		}
	}
	p.LoopIters.Stepped = int64(iters) - p.LoopIters.Summarized
	if p.WorkItems > 0 {
		for b := range p.BlockCounts {
			p.BlockCounts[b] /= float64(p.WorkItems)
		}
		p.Barriers /= float64(p.WorkItems)
	}
}

// wgBarrier is a reusable barrier for one work-group.
type wgBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newWGBarrier(n int) *wgBarrier {
	b := &wgBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every live work-item of the group arrives. It
// reports false when the group has been aborted (a peer died), in which
// case the caller must unwind instead of touching shared state again.
func (b *wgBarrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n <= 0 { // aborted group
		return false
	}
	phase := b.phase
	b.count++
	if b.count >= b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return true
	}
	for phase == b.phase {
		if b.n <= 0 {
			return false
		}
		b.cond.Wait()
	}
	// The phase completed. A peer that passed it and then died has
	// aborted the group since, but this work-item did arrive: it
	// returns to meet the abort at its next barrier, not here.
	return true
}

func runGroup(f *ir.Func, cfg *Config, nd NDRange, group [3]int64, sink GroupSink,
	prof *Profile, mu *sync.Mutex) error {

	wgSize := nd.WorkGroupSize()
	// Local memory shared by the group.
	locals := make(map[*ir.Alloca][]Val)
	for _, a := range f.Allocas {
		if a.AS == ast.ASLocal {
			locals[a] = make([]Val, a.Count)
		}
	}
	bar := newWGBarrier(int(wgSize))

	wis := make([]*wiState, 0, wgSize)
	for lz := int64(0); lz < nd.Local[2]; lz++ {
		for ly := int64(0); ly < nd.Local[1]; ly++ {
			for lx := int64(0); lx < nd.Local[0]; lx++ {
				gid := [3]int64{
					group[0]*nd.Local[0] + lx,
					group[1]*nd.Local[1] + ly,
					group[2]*nd.Local[2] + lz,
				}
				// Work-items beyond the global size still participate in
				// barriers (OpenCL requires uniform group sizes; our
				// kernels guard with if (gid < n)).
				w := &wiState{
					f: f, cfg: cfg, nd: nd, group: group,
					local: [3]int64{lx, ly, lz}, global: gid,
					locals: locals, bar: bar, trace: sink != nil,
					blockCounts: make(map[*ir.Block]int64),
					mu:          mu,
				}
				wis = append(wis, w)
			}
		}
	}

	var wg sync.WaitGroup
	for _, w := range wis {
		wg.Add(1)
		go func(w *wiState) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ee, ok := r.(execError); ok {
						w.err = ee.err
					} else {
						w.err = fmt.Errorf("interp: panic: %v", r)
					}
					// Release peers stuck at barriers.
					w.bar.abort()
				}
			}()
			w.run()
			w.bar.leave()
		}(w)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	// Report the root cause, not the induced group-abort unwinds.
	var aborted error
	for _, w := range wis {
		if w.err != nil {
			if errors.Is(w.err, errGroupAborted) {
				aborted = w.err
				continue
			}
			return w.err
		}
	}
	if aborted != nil {
		return aborted
	}
	for _, w := range wis {
		prof.WorkItems++
		for b, c := range w.blockCounts {
			prof.BlockCounts[b] += float64(c)
		}
		prof.Barriers += float64(w.barriers)
	}
	if sink != nil {
		traces := make([][]Access, len(wis))
		for i, w := range wis {
			traces[i] = w.accesses
		}
		sink(traces)
	}
	return nil
}

// leave removes a work-item that returned from the barrier, so peers
// still looping over barriers (a WI-dependent trip count around a
// barrier, which OpenCL leaves undefined) wait only for live
// work-items instead of deadlocking. The static executor counts such
// barriers per work-item the same way.
func (b *wgBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n <= 0 { // aborted group
		return
	}
	b.n--
	if b.count > 0 && b.count >= b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	}
}

// abort releases all waiters after a work-item died so the group does not
// deadlock; subsequent waits return false immediately.
func (b *wgBarrier) abort() {
	b.mu.Lock()
	b.n = 0
	b.cond.Broadcast()
	b.mu.Unlock()
}

type wiState struct {
	f      *ir.Func
	cfg    *Config
	nd     NDRange
	group  [3]int64
	local  [3]int64
	global [3]int64

	locals map[*ir.Alloca][]Val
	priv   map[*ir.Alloca][]Val
	regs   map[*ir.Instr]Val
	bar    *wgBarrier

	trace       bool
	accesses    []Access
	blockCounts map[*ir.Block]int64
	barriers    int
	mu          *sync.Mutex
	err         error
}

func (w *wiState) fail(format string, args ...any) {
	panic(execError{fmt.Errorf("interp: "+format, args...)})
}

func (w *wiState) run() {
	w.priv = make(map[*ir.Alloca][]Val)
	for _, a := range w.f.Allocas {
		if a.AS != ast.ASLocal {
			w.priv[a] = make([]Val, a.Count)
		}
	}
	w.regs = make(map[*ir.Instr]Val)

	maxSteps := int(profStepLimit) // runaway-loop guard
	steps := 0
	blk := w.f.Entry()
	for blk != nil {
		w.blockCounts[blk]++
		var next *ir.Block
		for _, in := range blk.Instrs {
			steps++
			if steps > maxSteps {
				w.fail("work-item exceeded %d steps (infinite loop?)", maxSteps)
			}
			switch in.Op {
			case ir.OpBr:
				next = in.To
			case ir.OpCondBr:
				if truthy(w.eval(in.Args[0])) {
					next = in.To
				} else {
					next = in.Else
				}
			case ir.OpRet:
				return
			default:
				w.exec(in)
			}
		}
		blk = next
	}
}

func truthy(v Val) bool {
	if v.Vec != nil {
		for _, l := range v.Vec {
			if l.I != 0 || l.F != 0 {
				return true
			}
		}
		return false
	}
	return v.I != 0 || v.F != 0
}

func (w *wiState) eval(v ir.Value) Val {
	switch x := v.(type) {
	case *ir.Const:
		if x.T.Base.IsFloat() {
			return FloatVal(x.F)
		}
		return IntVal(x.I)
	case *ir.Param:
		sv, ok := w.cfg.Scalars[x.PName]
		if !ok {
			w.fail("read of unbound parameter %s", x.PName)
		}
		return sv
	case *ir.Instr:
		return w.regs[x]
	}
	w.fail("unknown value %T", v)
	return Val{}
}
