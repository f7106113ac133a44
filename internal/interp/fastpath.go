package interp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/interp/static"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opencl/ast"
)

// Source identifies which profiling path produced a Profile.
type Source string

// Profiling paths, cheapest first. Both paths yield the exact same
// Profile for a given (kernel, launch, sample) — the "profile" check
// family and TestStaticVsInterpCorpus enforce it corpus-wide.
const (
	// SourceStatic: the static slice executor walked only the control
	// flow and address computations, without running work-groups.
	SourceStatic Source = "static"
	// SourceInterp: the reference sequential interpreter.
	SourceInterp Source = "interp"
)

// profStepLimit is the per-work-item runaway-loop guard shared by the
// interpreter and the plan executor; tests lower it to exercise the
// guard without burning 64M steps (see export_test.go).
var profStepLimit int64 = 64 << 20

// planFor runs the static analysis of f. It is pure and costs tens of
// microseconds, so nothing memoizes it: a memo keyed by *ir.Func would
// keep every compiled function alive for the life of the process.
func planFor(f *ir.Func) (*static.Plan, error) {
	return static.Analyze(f, static.Options{
		KnownCall:   KnownBuiltin,
		KnownAtomic: KnownAtomic,
	})
}

// StaticAnalyzable reports whether f's profile can be produced by the
// static fast path, with the decline reason when it cannot.
func StaticAnalyzable(f *ir.Func) (bool, string) {
	if _, err := planFor(f); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// profileDispatch runs the static slice executor when the kernel is
// analyzable and the launch does not fault, else the interpreter. Each
// run streams its groups to a sink from newSink, called once per run.
func profileDispatch(f *ir.Func, cfg *Config, sample groupSample, newSink func() GroupSink) (*Profile, error) {
	if plan, err := planFor(f); err == nil {
		prof, err := runPlan(plan, cfg, sample, newSink())
		if err == nil {
			obs.Global().Counter("profile_static_total", "").Inc()
			obs.Global().Counter("profile_loop_iterations_summarized_total", "").Add(uint64(prof.LoopIters.Summarized))
			prof.Source = SourceStatic
			return prof, nil
		}
		// The launch faults. Rerun on the interpreter so the error and
		// the partial profile are byte-identical to the reference path
		// (the slice executor has not touched the buffers, so the rerun
		// starts from the same state).
	}
	obs.Global().Counter("profile_interp_total", "").Inc()
	return interpProfile(f, cfg, sample, newSink())
}

// traceCopy is the sink behind the materialising entry points: it
// copies every streamed group into one profile's Traces.
type traceCopy struct{ traces [][]Access }

// fresh starts a new run's trace and returns its sink.
func (c *traceCopy) fresh() GroupSink {
	c.traces = nil
	return c.add
}

// add copies one group's traces into a single allocation; each
// work-item's slice is capped so appending to it cannot reach into
// its neighbour.
func (c *traceCopy) add(group [][]Access) {
	n := 0
	for _, tr := range group {
		n += len(tr)
	}
	buf := make([]Access, n)
	for _, tr := range group {
		k := copy(buf, tr)
		c.traces = append(c.traces, buf[:k:k])
		buf = buf[k:]
	}
}

// into stores the copied traces in the profile of a finished run.
func (c *traceCopy) into(prof *Profile, err error) (*Profile, error) {
	if prof != nil {
		prof.Traces = c.traces
	}
	return prof, err
}

// profileCopy runs the dispatcher and materialises the traces into the
// returned profile.
func profileCopy(f *ir.Func, cfg *Config, sample groupSample) (*Profile, error) {
	var c traceCopy
	return c.into(profileDispatch(f, cfg, sample, c.fresh))
}

// InterpProfile profiles f with the sequential reference interpreter,
// bypassing the static fast path. Exported so tests and benchmarks can
// pin the path; callers wanting the fast path use
// ProfileKernel/ProfileKernelSpread.
func InterpProfile(f *ir.Func, cfg *Config, maxGroups int, spread bool) (*Profile, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	var c traceCopy
	return c.into(interpProfile(f, cfg, sampleFor(cfg, maxGroups, spread), c.fresh()))
}

// StaticProfile profiles f using only the static slice executor. ok
// reports whether the kernel is statically analyzable; when false the
// profile and error are nil and the caller must interpret instead.
func StaticProfile(f *ir.Func, cfg *Config, maxGroups int, spread bool) (*Profile, bool, error) {
	if maxGroups <= 0 {
		maxGroups = 2
	}
	plan, err := planFor(f)
	if err != nil {
		return nil, false, nil
	}
	var c traceCopy
	prof, err := c.into(runPlan(plan, cfg, sampleFor(cfg, maxGroups, spread), c.fresh()))
	if prof != nil {
		prof.Source = SourceStatic
	}
	return prof, true, err
}

func interpProfile(f *ir.Func, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	prof, err := execute(f, cfg, sample, sink)
	if prof != nil {
		prof.Source = SourceInterp
	}
	return prof, err
}

// Diff compares two profiles field for field (Source and Params
// excluded: they record provenance, not content) and describes the
// first difference, or returns "" when they are identical. Float
// comparisons are bitwise: the fast paths promise exact equality, not
// approximation.
func (p *Profile) Diff(q *Profile) string {
	if p == nil || q == nil {
		if p == q {
			return ""
		}
		return fmt.Sprintf("nil mismatch: %v vs %v", p == nil, q == nil)
	}
	if p.WorkItems != q.WorkItems {
		return fmt.Sprintf("WorkItems %d vs %d", p.WorkItems, q.WorkItems)
	}
	if p.Barriers != q.Barriers {
		return fmt.Sprintf("Barriers %v vs %v", p.Barriers, q.Barriers)
	}
	if len(p.BlockCounts) != len(q.BlockCounts) {
		return fmt.Sprintf("BlockCounts size %d vs %d", len(p.BlockCounts), len(q.BlockCounts))
	}
	type bc struct {
		label string
		a, b  float64
		only  bool
	}
	var diffs []bc
	for b, c := range p.BlockCounts {
		c2, ok := q.BlockCounts[b]
		if !ok {
			diffs = append(diffs, bc{label: b.Label(), a: c, only: true})
		} else if c != c2 {
			diffs = append(diffs, bc{label: b.Label(), a: c, b: c2})
		}
	}
	if len(diffs) > 0 {
		sort.Slice(diffs, func(i, j int) bool { return diffs[i].label < diffs[j].label })
		d := diffs[0]
		if d.only {
			return fmt.Sprintf("BlockCounts[%s] %v vs missing", d.label, d.a)
		}
		return fmt.Sprintf("BlockCounts[%s] %v vs %v", d.label, d.a, d.b)
	}
	if len(p.Traces) != len(q.Traces) {
		return fmt.Sprintf("Traces len %d vs %d", len(p.Traces), len(q.Traces))
	}
	for i := range p.Traces {
		ta, tb := p.Traces[i], q.Traces[i]
		if len(ta) != len(tb) {
			return fmt.Sprintf("Traces[%d] len %d vs %d", i, len(ta), len(tb))
		}
		for j := range ta {
			if ta[j] != tb[j] {
				return fmt.Sprintf("Traces[%d][%d] %s vs %s", i, j, p.accessString(ta[j]), q.accessString(tb[j]))
			}
		}
	}
	return ""
}

// accessString renders one traced access with its buffer named, e.g.
// "write a[12] (4B)".
func (p *Profile) accessString(a Access) string {
	dir := "read"
	if a.Write {
		dir = "write"
	}
	name := fmt.Sprintf("param#%d", a.Param)
	if a.Param >= 0 && int(a.Param) < len(p.Params) {
		name = p.Params[a.Param].PName
	}
	return fmt.Sprintf("%s %s[%d] (%dB)", dir, name, a.Index, a.Bytes)
}

// ---- static plan executor ----

// Action codes. Every hot operation has its own code, so runWI
// dispatches a step with one switch; the operation, compare predicate,
// storage class, lane count and buffer element kind are all decided
// when the plan is compiled for a launch.
const (
	// Scalar integer arithmetic without a fault path (div/rem stay
	// generic for their division-by-zero errors).
	aAdd uint8 = iota
	aSub
	aMul
	aAnd
	aOr
	aXor
	aShl
	aLShr
	aAShr
	// Scalar float arithmetic.
	aFAdd
	aFSub
	aFMul
	aFDiv
	// Scalar compares, one code per predicate in ir.Pred order.
	aICmpEQ
	aICmpNE
	aICmpLT
	aICmpLE
	aICmpGT
	aICmpGE
	aFCmpEQ
	aFCmpNE
	aFCmpLT
	aFCmpLE
	aFCmpGT
	aFCmpGE
	aTrunc // scalar int→int cast: truncInt to the step's kind
	// Work-item coordinates; the step's a operand is the dimension.
	aGlobalID
	aLocalID
	aGroupID
	// Memory steps; the a operand is the index, b a store's value.
	aLoadParamInt   // traced scalar load from an integer buffer
	aLoadParamFloat // traced scalar load from a float buffer
	aLoadParamVec   // traced vector load
	aReadParam      // traced load whose value the slice never reads
	aStoreParam     // traced store; buffers stay untouched
	aAtomicParam    // traced read-modify-write pair
	aLoadAlloca     // scalar tracked cell
	aLoadAllocaVec
	aStoreAlloca // scalar tracked cell
	aStoreAllocaVec
	aCheckLoad  // bounds check only: unread alloca load, alloca atomic
	aCheckStore // bounds check only: store into an untracked alloca
	aBarrier
	aGeneric // div/rem, select, calls, vector ops, float casts
)

// scalarActs maps the scalar arithmetic ops that have their own code.
var scalarActs = map[ir.Op]uint8{
	ir.OpAdd: aAdd, ir.OpSub: aSub, ir.OpMul: aMul,
	ir.OpAnd: aAnd, ir.OpOr: aOr, ir.OpXor: aXor,
	ir.OpShl: aShl, ir.OpLShr: aLShr, ir.OpAShr: aAShr,
	ir.OpFAdd: aFAdd, ir.OpFSub: aFSub, ir.OpFMul: aFMul, ir.OpFDiv: aFDiv,
}

// planStep is one compiled executor step. Operands are slots of the
// executor's register file.
type planStep struct {
	act   uint8
	bytes uint16       // traced bytes of a param access
	kind  ast.BaseKind // aTrunc target kind
	dst   int32        // result slot; the sink when nothing reads it
	a, b  int32        // operand slots
	param int32        // traced parameter ordinal
	lanes int64        // element lanes of a memory access
	lim   int64        // scalar cells of the accessed buffer or alloca
	cells *cellFile    // tracked alloca contents
	buf   *Buffer      // bound buffer of a param access
	in    *ir.Instr    // aGeneric evaluation and error messages
	args  []int32      // aGeneric: every operand slot
}

// Terminator kinds.
const (
	tBr uint8 = iota
	tCondBr
	tRet
)

// blockPlan is the compiled form of one basic block: its non-terminator
// steps plus direct pointers to the successor plans, so walking the CFG
// costs no map lookups.
type blockPlan struct {
	idx     int
	nInstr  int64 // full instruction count, for the step guard
	steps   []planStep
	term    uint8
	to, els *blockPlan
	cond    int32
	// sum, set on a loop header's entry copy, runs the loop in closed
	// form (loopsum.go).
	sum *loopSum
}

// planExec executes the profile slice of one plan. One instance serves
// a whole profiling run; all mutable state is reset per work-item.
type planExec struct {
	nd     NDRange
	blocks []*ir.Block
	entry  *blockPlan

	group, local, global [3]int64

	// The register file holds one Val per slot, split so that the hot
	// scalar steps write no pointers: ri and rf are the I and F fields
	// and rv the Vec field, which only the steps that can yield a
	// vector write.
	// Slots are the plan's SSA registers (the first nSSA, reset per
	// work-item), one sink slot for results nothing reads, then the
	// constants and launch scalars, filled once at compile time. Every
	// SSA slot has one writer step, so a step that writes only ri
	// leaves F == 0 and Vec == nil, exactly as Val{I: …} does.
	ri       []int64
	rf       []float64
	rv       [][]Val
	vecDirty bool // some SSA slot of rv may be non-nil
	nSSA     int
	tracked  []*cellFile // for the per-work-item reset
	counts   []int64     // per-block visit counts of the current work-item
	gCounts  []float64
	// traces holds one trace buffer per work-item of a group, reused
	// across the run's groups; accesses is the current work-item's.
	traces   [][]Access
	accesses []Access
	accHint  int // trace length of the previous work-item, for preallocation
	barriers int
	steps    int64
	// loopIters counts the current work-item's latch visits that
	// summaries produced instead of stepping.
	loopIters int64
	sums      []*loopSum // every compiled loop summary
}

// cellFile is the contents of one tracked alloca, split like the
// register file. v, the lanes' Vec fields, stays nil until a store
// puts a vector-valued Val into a cell.
type cellFile struct {
	i []int64
	f []float64
	v [][]Val
}

func newCellFile(n int64) *cellFile {
	return &cellFile{i: make([]int64, n), f: make([]float64, n)}
}

func (c *cellFile) reset() {
	clear(c.i)
	clear(c.f)
	if c.v != nil {
		clear(c.v)
	}
}

func (c *cellFile) load(k int64) Val {
	v := Val{I: c.i[k], F: c.f[k]}
	if c.v != nil {
		v.Vec = c.v[k]
	}
	return v
}

func (c *cellFile) store(k int64, v Val) {
	c.i[k], c.f[k] = v.I, v.F
	if v.Vec != nil && c.v == nil {
		c.v = make([][]Val, len(c.i))
	}
	if c.v != nil {
		c.v[k] = v.Vec
	}
}

// val reads slot s as a Val.
func (x *planExec) val(s int32) Val {
	return Val{I: x.ri[s], F: x.rf[s], Vec: x.rv[s]}
}

// setVal writes a Val into slot s.
func (x *planExec) setVal(s int32, v Val) {
	x.ri[s], x.rf[s], x.rv[s] = v.I, v.F, v.Vec
	if v.Vec != nil {
		x.vecDirty = true
	}
}

func newPlanExec(p *static.Plan, cfg *Config, nd NDRange) *planExec {
	n := p.NumRegs + 1
	x := &planExec{
		nd:      nd,
		blocks:  p.Fn.Blocks,
		ri:      make([]int64, n),
		rf:      make([]float64, n),
		rv:      make([][]Val, n),
		nSSA:    p.NumRegs,
		counts:  make([]int64, len(p.Fn.Blocks)),
		gCounts: make([]float64, len(p.Fn.Blocks)),
		traces:  make([][]Access, nd.WorkGroupSize()),
	}
	c := &planCompiler{
		x:      x,
		plan:   p,
		cfg:    cfg,
		cells:  make(map[*ir.Alloca]*cellFile, len(p.TrackedAllocas)),
		alias:  make(map[*ir.Instr]ir.Value),
		consts: make(map[[2]uint64]int32),
		params: make(map[*ir.Param]int32),
	}
	for a := range p.TrackedAllocas {
		cells := newCellFile(a.Count * int64(a.Elem.Lanes()))
		c.cells[a] = cells
		x.tracked = append(x.tracked, cells)
	}

	// Pass 1 decides, block by block, which steps run and which results
	// fold into another value. Pass 2 emits the steps, when every alias
	// is known whatever the block order. Block plans are allocated
	// first so branch targets can link directly.
	kept := make([][]*ir.Instr, len(p.Fn.Blocks))
	plans := make(map[*ir.Block]*blockPlan, len(p.Fn.Blocks))
	for i, b := range p.Fn.Blocks {
		kept[i] = c.peephole(b, p.Steps[b])
		plans[b] = &blockPlan{idx: p.BlockIndex[b], nInstr: int64(len(b.Instrs))}
	}
	for i, b := range p.Fn.Blocks {
		bp := plans[b]
		for _, in := range kept[i] {
			switch in.Op {
			case ir.OpBr:
				bp.term, bp.to = tBr, plans[in.To]
			case ir.OpCondBr:
				bp.term, bp.to, bp.els = tCondBr, plans[in.To], plans[in.Else]
				bp.cond = c.slot(in.Args[0])
			case ir.OpRet:
				bp.term = tRet
			default:
				bp.steps = append(bp.steps, c.step(in))
			}
		}
	}
	x.entry = plans[p.Fn.Entry()]
	c.summarizeLoops(plans)
	return x
}

// planCompiler holds the state of compiling one plan for one launch.
type planCompiler struct {
	x      *planExec
	plan   *static.Plan
	cfg    *Config
	cells  map[*ir.Alloca]*cellFile // tracked alloca contents
	alias  map[*ir.Instr]ir.Value   // folded instructions: the value each equals
	consts map[[2]uint64]int32      // scalar constant (I, F bits) → slot
	params map[*ir.Param]int32      // launch scalar → slot
	plain  map[*ir.Alloca]bool      // see plainCells; nil until first asked
}

// peephole is the per-block pre-pass. It drops steps that cannot
// affect the profile and folds results into operand aliases. Each
// rewrite keeps the profile, the traces and every error string bitwise
// equal to running the step:
//
//   - Dead alloca steps. An alloca access whose index is an integer
//     constant in [0, Count) cannot fault. Three such accesses have no
//     other effect the slice can see, so they are dropped: a load whose
//     result is not in the slice, a store into an untracked alloca, and
//     an atomic on an alloca (tracked allocas have no atomics, and the
//     executor never models an untracked cell).
//   - Forwarded cell loads. A constant-index load of a scalar tracked
//     cell returns the Val the cell's latest store in this block wrote,
//     or its latest load read. When that value is a constant or a slot
//     defined earlier in this block, the load becomes an alias of it:
//     a block runs to completion and each slot has one writer, so the
//     slot still holds the value at every later use in the block. An
//     atomic, or a store with a non-constant index, forgets the whole
//     alloca; a store of any other value forgets the cell.
//   - Aliases. A scalar integer→long/ulong cast returns IntVal(v.I),
//     and truncInt is the identity at 64 bits, so the cast is its
//     operand whenever the operand always holds a plain integer (see
//     plainInt). An NDRange-only work-item query is a launch constant.
//
// The step guard still adds each block's full instruction count, so
// runaway-loop detection and its error are unchanged.
func (c *planCompiler) peephole(b *ir.Block, steps []*ir.Instr) []*ir.Instr {
	type cell struct {
		a *ir.Alloca
		i int64
	}
	fwd := make(map[cell]ir.Value)
	forget := func(a *ir.Alloca) {
		for k := range fwd {
			if k.a == a {
				delete(fwd, k)
			}
		}
	}
	var kept []*ir.Instr
	defined := make(map[*ir.Instr]bool) // kept steps of this block so far
	local := func(v ir.Value) bool {
		for {
			in, ok := v.(*ir.Instr)
			if !ok {
				return true // constant or launch scalar
			}
			if defined[in] {
				return true
			}
			av, ok := c.alias[in]
			if !ok || in.Blk != b {
				return false
			}
			v = av
		}
	}
	for _, in := range steps {
		switch in.Op {
		case ir.OpLoad:
			a, ok := in.Mem.(*ir.Alloca)
			if !ok {
				break
			}
			i, ok := c.constIndex(a, in.Args[0])
			if !ok {
				break
			}
			if !c.plan.Need[in] {
				continue
			}
			if a.Elem.Lanes() == 1 && in.T.Lanes() == 1 {
				k := cell{a, i}
				if v, ok := fwd[k]; ok {
					c.alias[in] = v
					continue
				}
				fwd[k] = in
			}
		case ir.OpStore:
			a, ok := in.Mem.(*ir.Alloca)
			if !ok {
				break
			}
			i, ok := c.constIndex(a, in.Args[0])
			switch {
			case !ok:
				forget(a)
			case c.cells[a] == nil:
				continue
			case a.Elem.Lanes() == 1 && local(in.Args[1]):
				fwd[cell{a, i}] = in.Args[1]
			default:
				delete(fwd, cell{a, i})
			}
		case ir.OpAtomic:
			if a, ok := in.Mem.(*ir.Alloca); ok {
				forget(a)
				if _, ok := c.constIndex(a, in.Args[0]); ok {
					continue
				}
			}
		case ir.OpCast:
			if c.identityCast(in) {
				c.alias[in] = in.Args[0]
				continue
			}
		case ir.OpWorkItem:
			switch in.Fn {
			case "get_global_id", "get_local_id", "get_group_id":
			default:
				n, _ := workItemVal(in.Fn, in.Dim, c.x.nd, [3]int64{}, [3]int64{}, [3]int64{})
				c.alias[in] = &ir.Const{T: ast.Scalar(ast.KLong), I: n}
				continue
			}
		}
		kept = append(kept, in)
		defined[in] = true
	}
	return kept
}

// constVal resolves v through the aliases known so far to a constant
// or launch scalar.
func (c *planCompiler) constVal(v ir.Value) (Val, bool) {
	for {
		switch t := v.(type) {
		case *ir.Const:
			return constOf(t), true
		case *ir.Param:
			return c.cfg.Scalars[t.PName], true
		case *ir.Instr:
			if av, ok := c.alias[t]; ok {
				v = av
				continue
			}
		}
		return Val{}, false
	}
}

// constIndex returns the value of idx when it is an integer constant
// in [0, a.Count): an access there cannot fault.
func (c *planCompiler) constIndex(a *ir.Alloca, idx ir.Value) (int64, bool) {
	v, ok := c.constVal(idx)
	return v.I, ok && v.I >= 0 && v.I < a.Count
}

// identityCast reports whether cast in returns its operand's Val
// unchanged: a scalar integer→long/ulong cast of a plain integer.
func (c *planCompiler) identityCast(in *ir.Instr) bool {
	to := in.T
	return !to.IsVector() && (to.Base == ast.KLong || to.Base == ast.KULong) &&
		!in.Args[0].Type().Base.IsFloat() && c.plainInt(in.Args[0])
}

// plainInt reports whether v always evaluates to a plain integer — a
// Val with F == 0 and Vec == nil, the form castVal rebuilds — so that
// aliasing an identity cast to v keeps the Val bitwise equal. Only a
// launch scalar or a type-confused buffer can introduce anything else
// (an int argument bound as FloatVal, an int pointer bound to a float
// buffer); the check follows values through private cells.
func (c *planCompiler) plainInt(v ir.Value) bool {
	switch t := v.(type) {
	case *ir.Const:
		return !t.T.Base.IsFloat()
	case *ir.Param:
		s := c.cfg.Scalars[t.PName]
		return s.F == 0 && s.Vec == nil
	case *ir.Instr:
		if t.T.IsVector() {
			return false
		}
		switch t.Op {
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
			ir.OpICmp, ir.OpFCmp, ir.OpWorkItem:
			return true
		case ir.OpCast:
			return !t.T.Base.IsFloat()
		case ir.OpLoad:
			switch m := t.Mem.(type) {
			case *ir.Param:
				buf := c.cfg.Buffers[m.PName]
				return buf != nil && !buf.Elem.Base.IsFloat()
			case *ir.Alloca:
				return c.plainCells(m)
			}
		}
	}
	return false
}

// plainCells reports whether a's cells only ever hold plain integers.
// Cells start zeroed; the set of plain allocas is the greatest fixpoint
// in which every store into a plain scalar alloca stores a plain value.
func (c *planCompiler) plainCells(a *ir.Alloca) bool {
	if c.plain == nil {
		c.plain = make(map[*ir.Alloca]bool)
		var stores []*ir.Instr
		for _, b := range c.plan.Fn.Blocks {
			for _, in := range b.Instrs {
				if s, ok := in.Mem.(*ir.Alloca); ok && in.Op == ir.OpStore {
					c.plain[s] = !s.Elem.IsVector()
					stores = append(stores, in)
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, st := range stores {
				s := st.Mem.(*ir.Alloca)
				if c.plain[s] && !c.plainInt(st.Args[1]) {
					c.plain[s], changed = false, true
				}
			}
		}
	}
	p, stored := c.plain[a]
	return p || !stored
}

func constOf(k *ir.Const) Val {
	if k.T.Base.IsFloat() {
		return FloatVal(k.F)
	}
	return IntVal(k.I)
}

// slot resolves an operand to its register-file slot.
func (c *planCompiler) slot(v ir.Value) int32 {
	for {
		switch t := v.(type) {
		case *ir.Const:
			return c.constSlot(constOf(t))
		case *ir.Param:
			s, ok := c.params[t]
			if !ok {
				s = c.newSlot(c.cfg.Scalars[t.PName]) // presence validated up front
				c.params[t] = s
			}
			return s
		case *ir.Instr:
			if av, ok := c.alias[t]; ok {
				v = av
				continue
			}
			if ri, ok := c.plan.RegIndex[t]; ok {
				return int32(ri)
			}
		}
		return c.constSlot(Val{}) // never computed by the slice, never read
	}
}

func (c *planCompiler) constSlot(v Val) int32 {
	k := [2]uint64{uint64(v.I), math.Float64bits(v.F)}
	s, ok := c.consts[k]
	if !ok {
		s = c.newSlot(v)
		c.consts[k] = s
	}
	return s
}

func (c *planCompiler) newSlot(v Val) int32 {
	x := c.x
	x.ri, x.rf, x.rv = append(x.ri, v.I), append(x.rf, v.F), append(x.rv, v.Vec)
	return int32(len(x.ri) - 1)
}

// step compiles one kept non-terminator instruction.
func (c *planCompiler) step(in *ir.Instr) planStep {
	st := planStep{in: in, act: aGeneric, dst: int32(c.x.nSSA)}
	if ri, ok := c.plan.RegIndex[in]; ok {
		st.dst = int32(ri)
	}
	scalar := !in.T.IsVector()
	if act, ok := scalarActs[in.Op]; ok && scalar {
		st.act, st.a, st.b = act, c.slot(in.Args[0]), c.slot(in.Args[1])
		return st
	}
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp:
		if scalar && in.Pr >= ir.PredEQ && in.Pr <= ir.PredGE {
			st.act = aICmpEQ + uint8(in.Pr)
			if in.Op == ir.OpFCmp {
				st.act = aFCmpEQ + uint8(in.Pr)
			}
			st.a, st.b = c.slot(in.Args[0]), c.slot(in.Args[1])
			return st
		}
	case ir.OpCast:
		if scalar && !in.T.Base.IsFloat() && !in.Args[0].Type().Base.IsFloat() {
			st.act, st.kind, st.a = aTrunc, in.T.Base, c.slot(in.Args[0])
			return st
		}
	case ir.OpWorkItem:
		switch in.Fn {
		case "get_global_id":
			st.act = aGlobalID
		case "get_local_id":
			st.act = aLocalID
		default: // get_group_id; NDRange-only queries were folded
			st.act = aGroupID
		}
		if in.Dim >= 0 && in.Dim <= 2 {
			st.a = int32(in.Dim)
		}
		return st
	case ir.OpBarrier:
		st.act = aBarrier
		return st
	case ir.OpLoad:
		st.a, st.lanes = c.slot(in.Args[0]), int64(in.T.Lanes())
		need := c.plan.Need[in]
		switch s := in.Mem.(type) {
		case *ir.Param:
			c.paramAccess(&st, s, in.T)
			switch {
			case !need:
				st.act = aReadParam
			case st.lanes > 1:
				st.act = aLoadParamVec
			case st.buf.Elem.Base.IsFloat():
				st.act = aLoadParamFloat
			default:
				st.act = aLoadParamInt
			}
		case *ir.Alloca:
			st.lim, st.cells = s.Count*st.lanes, c.cells[s]
			switch {
			case !need:
				st.act = aCheckLoad
			case st.lanes > 1:
				st.act = aLoadAllocaVec
			default:
				st.act = aLoadAlloca
			}
		}
		return st
	case ir.OpStore:
		st.a, st.b = c.slot(in.Args[0]), c.slot(in.Args[1])
		switch s := in.Mem.(type) {
		case *ir.Param:
			c.paramAccess(&st, s, s.Elem())
			st.act = aStoreParam
		case *ir.Alloca:
			st.lanes = int64(s.Elem.Lanes())
			st.lim, st.cells = s.Count*st.lanes, c.cells[s]
			switch {
			case st.cells == nil:
				st.act = aCheckStore
			case st.lanes > 1:
				st.act = aStoreAllocaVec
			default:
				st.act = aStoreAlloca
			}
		}
		return st
	case ir.OpAtomic:
		// The analyzer declines kernels that consume an atomic's
		// result, so the step only traces and bounds-checks.
		st.a = c.slot(in.Args[0])
		switch s := in.Mem.(type) {
		case *ir.Param:
			c.paramAccess(&st, s, s.Elem())
			st.act = aAtomicParam
		case *ir.Alloca:
			st.lanes = int64(s.Elem.Lanes())
			st.lim, st.act = s.Count*st.lanes, aCheckLoad
		}
		return st
	}
	st.args = make([]int32, len(in.Args))
	for i, a := range in.Args {
		st.args[i] = c.slot(a)
	}
	return st
}

// paramAccess fills the buffer fields of a param access of type t.
func (c *planCompiler) paramAccess(st *planStep, s *ir.Param, t ast.Type) {
	st.buf = c.cfg.Buffers[s.PName]
	st.param, st.bytes = int32(s.Index), uint16(t.ElemSize())
	st.lanes, st.lim = int64(t.Lanes()), int64(st.buf.Len())
}

// runPlan profiles the sampled work-groups of a launch by executing
// only the plan's slice, reproducing the interpreter's group and
// work-item iteration order, trace emission, bounds checks and profile
// accumulation exactly. Each completed group's traces go to sink.
// Buffers are never mutated.
func runPlan(p *static.Plan, cfg *Config, sample groupSample, sink GroupSink) (*Profile, error) {
	prof, _, err := execPlan(p, cfg, sample, sink)
	return prof, err
}

// execPlan is runPlan, also returning the executor it ran (nil when
// the launch is rejected up front).
func execPlan(p *static.Plan, cfg *Config, sample groupSample, sink GroupSink) (*Profile, *planExec, error) {
	nd := cfg.Range.Normalize()
	groups := nd.NumGroups()
	if nd.WorkGroupSize() <= 0 {
		return nil, nil, fmt.Errorf("interp: empty work-group")
	}
	if err := validateArgs(p.Fn, cfg); err != nil {
		return nil, nil, err
	}

	prof := &Profile{BlockCounts: make(map[*ir.Block]float64), Params: p.Fn.Params}
	x := newPlanExec(p, cfg, nd)

	gid := int64(0)
loop:
	for gz := int64(0); gz < groups[2]; gz++ {
		for gy := int64(0); gy < groups[1]; gy++ {
			for gx := int64(0); gx < groups[0]; gx++ {
				if sample.last >= 0 && gid > sample.last {
					break loop
				}
				if sample.sel(gid) {
					if err := x.runGroup([3]int64{gx, gy, gz}, prof, sink); err != nil {
						return prof, x, err
					}
				}
				gid++
			}
		}
	}
	finalizeProfile(p.Fn, prof)
	return prof, x, nil
}

// runGroup executes every work-item of one group. Like the
// interpreter, a group contributes to the profile only when every one
// of its work-items completes.
//
// A faulting group fails with the interpreter's error too. There the
// work-items run in barrier lockstep, and the first fault aborts the
// group at its next barrier: the group fails in the earliest barrier
// phase any work-item faults in, with the error of the first such
// work-item in dispatch order. So the executor runs every work-item
// and keeps that error.
//
// Each work-item traces into its own buffer, reused from the previous
// group. A buffer's first use preallocates it at the previous
// work-item's trace length: the work-items of one kernel trace
// near-identical access counts.
func (x *planExec) runGroup(group [3]int64, prof *Profile, sink GroupSink) error {
	x.group = group
	nd := x.nd

	gWIs := 0
	gBarriers := 0.0
	var gLoopIters int64
	clear(x.gCounts)
	var gErr error
	errPhase := 0

	for lz := int64(0); lz < nd.Local[2]; lz++ {
		for ly := int64(0); ly < nd.Local[1]; ly++ {
			for lx := int64(0); lx < nd.Local[0]; lx++ {
				x.local = [3]int64{lx, ly, lz}
				x.global = [3]int64{
					group[0]*nd.Local[0] + lx,
					group[1]*nd.Local[1] + ly,
					group[2]*nd.Local[2] + lz,
				}
				wi := (lz*nd.Local[1]+ly)*nd.Local[0] + lx
				x.accesses = x.traces[wi][:0]
				if x.accesses == nil && x.accHint > 0 {
					x.accesses = make([]Access, 0, x.accHint)
				}
				err := x.runWI()
				x.traces[wi] = x.accesses
				x.accHint = len(x.accesses)
				if err != nil {
					if gErr == nil || x.barriers < errPhase {
						gErr, errPhase = err, x.barriers
					}
					continue
				}
				if gErr != nil {
					continue
				}
				gWIs++
				for bi, c := range x.counts {
					if c != 0 {
						x.gCounts[bi] += float64(c)
					}
				}
				gBarriers += float64(x.barriers)
				gLoopIters += x.loopIters
			}
		}
	}
	if gErr != nil {
		return gErr
	}

	prof.WorkItems += gWIs
	for bi, c := range x.gCounts {
		if c != 0 {
			prof.BlockCounts[x.blocks[bi]] += c
		}
	}
	prof.Barriers += gBarriers
	prof.LoopIters.Summarized += gLoopIters
	if sink != nil {
		sink(x.traces)
	}
	return nil
}

// runWI executes the slice for one work-item. Each step is dispatched
// by one switch on its action code; every case mirrors the shared
// evaluator (scalarArithVal, compareVal, castVal, loadElem, storeElem)
// it replaces, minus the type switches and error plumbing.
func (x *planExec) runWI() error {
	clear(x.ri[:x.nSSA])
	clear(x.rf[:x.nSSA])
	if x.vecDirty {
		clear(x.rv[:x.nSSA])
		x.vecDirty = false
	}
	for _, cells := range x.tracked {
		cells.reset()
	}
	clear(x.counts)
	x.barriers = 0
	x.steps = 0
	x.loopIters = 0

	ri, rf := x.ri, x.rf
	bp := x.entry
	for {
		if bp.sum != nil && x.summarize(bp.sum) {
			bp = bp.sum.exit
			continue
		}
		x.counts[bp.idx]++
		x.steps += bp.nInstr
		if x.steps > profStepLimit {
			return fmt.Errorf("interp: work-item exceeded %d steps (infinite loop?)", profStepLimit)
		}
		for i := range bp.steps {
			st := &bp.steps[i]
			switch st.act {
			case aAdd:
				ri[st.dst] = ri[st.a] + ri[st.b]
			case aSub:
				ri[st.dst] = ri[st.a] - ri[st.b]
			case aMul:
				ri[st.dst] = ri[st.a] * ri[st.b]
			case aAnd:
				ri[st.dst] = ri[st.a] & ri[st.b]
			case aOr:
				ri[st.dst] = ri[st.a] | ri[st.b]
			case aXor:
				ri[st.dst] = ri[st.a] ^ ri[st.b]
			case aShl:
				ri[st.dst] = ri[st.a] << uint(ri[st.b]&63)
			case aLShr:
				ri[st.dst] = int64(uint64(ri[st.a]) >> uint(ri[st.b]&63))
			case aAShr:
				ri[st.dst] = ri[st.a] >> uint(ri[st.b]&63)
			case aFAdd:
				rf[st.dst] = rf[st.a] + rf[st.b]
			case aFSub:
				rf[st.dst] = rf[st.a] - rf[st.b]
			case aFMul:
				rf[st.dst] = rf[st.a] * rf[st.b]
			case aFDiv:
				rf[st.dst] = rf[st.a] / rf[st.b]
			case aICmpEQ:
				ri[st.dst] = boolInt(ri[st.a] == ri[st.b])
			case aICmpNE:
				ri[st.dst] = boolInt(ri[st.a] != ri[st.b])
			case aICmpLT:
				ri[st.dst] = boolInt(ri[st.a] < ri[st.b])
			case aICmpLE:
				ri[st.dst] = boolInt(ri[st.a] <= ri[st.b])
			case aICmpGT:
				ri[st.dst] = boolInt(ri[st.a] > ri[st.b])
			case aICmpGE:
				ri[st.dst] = boolInt(ri[st.a] >= ri[st.b])
			case aFCmpEQ:
				ri[st.dst] = boolInt(rf[st.a] == rf[st.b])
			case aFCmpNE:
				ri[st.dst] = boolInt(rf[st.a] != rf[st.b])
			case aFCmpLT:
				ri[st.dst] = boolInt(rf[st.a] < rf[st.b])
			case aFCmpLE:
				ri[st.dst] = boolInt(rf[st.a] <= rf[st.b])
			case aFCmpGT:
				ri[st.dst] = boolInt(rf[st.a] > rf[st.b])
			case aFCmpGE:
				ri[st.dst] = boolInt(rf[st.a] >= rf[st.b])
			case aTrunc:
				ri[st.dst] = truncInt(ri[st.a], st.kind)
			case aGlobalID:
				ri[st.dst] = x.global[st.a]
			case aLocalID:
				ri[st.dst] = x.local[st.a]
			case aGroupID:
				ri[st.dst] = x.group[st.a]
			case aLoadParamInt, aLoadParamFloat, aLoadParamVec, aReadParam:
				idx := ri[st.a]
				base := idx * st.lanes
				if base < 0 || base+st.lanes > st.lim {
					return st.outOfBounds("load", idx)
				}
				x.accesses = append(x.accesses, Access{
					Param: st.param, Index: idx, Bytes: st.bytes, Write: false,
				})
				switch st.act {
				case aLoadParamInt:
					ri[st.dst] = st.buf.I[base]
				case aLoadParamFloat:
					rf[st.dst] = st.buf.F[base]
				case aLoadParamVec:
					x.setVal(st.dst, readBufPlain(st.buf, base, st.lanes))
				}
			case aStoreParam:
				// Global buffers are left untouched — no statically
				// analyzable kernel reads back what it wrote (that is
				// the analyzability criterion) — so the store only
				// traces and bounds-checks.
				idx := ri[st.a]
				base := idx * st.lanes
				if base < 0 || base+st.lanes > st.lim {
					return st.outOfBounds("store", idx)
				}
				x.accesses = append(x.accesses, Access{
					Param: st.param, Index: idx, Bytes: st.bytes, Write: true,
				})
			case aAtomicParam:
				idx := ri[st.a]
				base := idx * st.lanes
				if base < 0 || base+st.lanes > st.lim {
					return st.outOfBounds("load", idx)
				}
				x.accesses = append(x.accesses,
					Access{Param: st.param, Index: idx, Bytes: st.bytes, Write: false},
					Access{Param: st.param, Index: idx, Bytes: st.bytes, Write: true})
			case aLoadAlloca, aLoadAllocaVec, aCheckLoad:
				idx := ri[st.a]
				base := idx * st.lanes
				if base < 0 || base+st.lanes > st.lim {
					return st.outOfBounds("load", idx)
				}
				switch st.act {
				case aLoadAlloca:
					c := st.cells
					ri[st.dst], rf[st.dst] = c.i[base], c.f[base]
					if c.v != nil {
						x.setVal(st.dst, c.load(base))
					}
				case aLoadAllocaVec:
					out := Val{Vec: make([]Val, st.lanes)}
					for i := range out.Vec {
						out.Vec[i] = st.cells.load(base + int64(i))
					}
					x.setVal(st.dst, out)
				}
			case aStoreAlloca, aStoreAllocaVec, aCheckStore:
				idx := ri[st.a]
				base := idx * st.lanes
				if base < 0 || base+st.lanes > st.lim {
					return st.outOfBounds("store", idx)
				}
				switch st.act {
				case aStoreAlloca:
					c := st.cells
					c.i[base], c.f[base] = ri[st.b], rf[st.b]
					if x.rv[st.b] != nil || c.v != nil {
						c.store(base, x.val(st.b))
					}
				case aStoreAllocaVec:
					v := x.val(st.b)
					for i := int64(0); i < st.lanes; i++ {
						st.cells.store(base+i, lane(v, int(i)))
					}
				}
			case aBarrier:
				// No synchronization: nothing in the slice crosses
				// work-items.
				x.barriers++
			default: // aGeneric
				v, err := x.generic(st)
				if err != nil {
					return err
				}
				x.setVal(st.dst, v)
			}
		}
		switch bp.term {
		case tBr:
			bp = bp.to
		case tCondBr:
			// truthy(x.val(c)), building the Val only for a vector.
			c := bp.cond
			taken := ri[c] != 0 || rf[c] != 0
			if x.rv[c] != nil {
				taken = truthy(x.val(c))
			}
			if taken {
				bp = bp.to
			} else {
				bp = bp.els
			}
		default: // tRet
			return nil
		}
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// outOfBounds is the interpreter's bounds error for the step's access.
func (st *planStep) outOfBounds(verb string, idx int64) error {
	return fmt.Errorf("interp: %s out of bounds: %s[%d] (len %d)", verb, st.in.Mem.StorageName(), idx, st.lim/st.lanes)
}

// generic evaluates a step without its own action code through the
// evaluators the interpreter uses, so semantics and error strings match.
func (x *planExec) generic(st *planStep) (Val, error) {
	in := st.in
	arg := func(i int) Val { return x.val(st.args[i]) }
	all := func() []Val {
		vs := make([]Val, len(st.args))
		for i := range st.args {
			vs[i] = arg(i)
		}
		return vs
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return arithVal(in, arg(0), arg(1))
	case ir.OpICmp, ir.OpFCmp:
		return compareVal(in, arg(0), arg(1)), nil
	case ir.OpSelect:
		return selectVal(in, arg(0), arg(1), arg(2)), nil
	case ir.OpCast:
		return castVal(arg(0), in.Args[0].Type(), in.T), nil
	case ir.OpCall:
		return builtinVal(in, all())
	case ir.OpVecBuild:
		return vecBuildVal(all()), nil
	case ir.OpVecExtract:
		return vecExtractVal(in, arg(0)), nil
	case ir.OpVecInsert:
		return vecInsertVal(in, all()), nil
	}
	return Val{}, fmt.Errorf("interp: static executor met unplanned op %v", in.Op)
}

// readBufPlain mirrors readBuf without per-element atomics.
func readBufPlain(b *Buffer, base, lanes int64) Val {
	get := func(i int64) Val {
		if b.Elem.Base.IsFloat() {
			return FloatVal(b.F[i])
		}
		return IntVal(b.I[i])
	}
	if lanes == 1 {
		return get(base)
	}
	out := Val{Vec: make([]Val, lanes)}
	for i := int64(0); i < lanes; i++ {
		out.Vec[i] = get(base + i)
	}
	return out
}
