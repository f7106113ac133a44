package interp

import (
	"math"
	"slices"

	"repro/internal/ir"
	"repro/internal/opencl/ast"
)

// ---- closed-form loop summaries ----
//
// A counted innermost loop whose slice is integer arithmetic, private
// cell traffic and param accesses whose values it never reads produces,
// at iteration t, values that are affine in t. The executor then emits
// the whole loop at once instead of stepping it. Exactness rests on
// three facts:
//
//   - Ring arithmetic. The executor's integer steps wrap modulo 2^64,
//     and add, sub, mul by an invariant and shl by an invariant are
//     ring operations, so a value built from them over cells that
//     advance by a fixed stride is exactly a + b·t modulo 2^64. The
//     compile-time pass (compileLoopSum) proves that shape once per
//     plan; every other operation may only see invariant operands.
//   - Endpoint checks. Where a value is observed — an access index
//     against its bounds, a narrowing cast, the exit test — the run-time
//     check requires a + b·t to stay an exact int64 inside the allowed
//     range at both ends of the executed range. The line is monotone,
//     so the endpoints bound every iteration in between.
//   - Fall back. When a check fails, or the loop would cross the step
//     budget, the loop is stepped exactly as before, so faults, partial
//     traces and the step-limit error stay byte-identical.

// loopSum is the compiled summary of one loop: a straight-line value
// program for one iteration (header, then the body chain), plus the
// templates that turn its values at t = 0 and t = 1 into the loop's
// trace, visit counts and exit state.
type loopSum struct {
	exit   *blockPlan
	head   int     // header block index
	body   []int   // body chain block indices, in order
	nHead  int64   // instructions per header visit
	nBody  int64   // instructions per body pass
	selfLp bool    // the header is its own latch
	ops    []sumOp // one iteration's value program
	in     []sumIO // invariant inputs, copied from their slots
	out    []sumIO // loop-defined values, written back to their slots
	cells  []sumCell
	plain  []int32 // invariant slots stored into cells: must hold plain integers
	acc    []sumAcc
	nHAcc  int // the header's accesses lead acc
	checks []sumCheck

	// The loop continues while pred(value iv, value bound); at exit the
	// test's slot holds exitVal.
	pred      ir.Pred
	iv, bound int32
	condSlot  int32
	exitVal   int64

	// Run-time scratch, reused by every summary of this loop.
	v0, v1, c0, e0, cur []int64
	tmpl                []Access
	stride              []int64

	hits int64 // loop entries summarized, for tests
}

// sumOp is one step of the value program. Operands index the loop's
// value file; cell indexes loopSum.cells; a is the dimension of a
// work-item query.
type sumOp struct {
	act  uint8
	kind ast.BaseKind
	dst  int32
	a, b int32
	cell int32
}

// sumIO pairs a register slot with its index in the value file.
type sumIO struct {
	slot, v int32
	head    bool // out: defined in the header
}

// sumCell is one tracked scalar cell the loop reads or writes.
type sumCell struct {
	file    *cellFile
	i       int64
	written bool
}

// sumAcc is the template of one traced access.
type sumAcc struct {
	v     int32
	param int32
	bytes uint16
	write bool
}

// sumCheck requires value v to lie in [lo, hi] on every iteration that
// evaluates it.
type sumCheck struct {
	v      int32
	head   bool
	lo, hi int64
}

// summarizeLoops attaches summaries to the loops that admit one:
// natural loops whose header ends in the only conditional branch and
// whose body is a chain of unconditionally branching blocks back to the
// header. A summarized header gets an entry copy that carries the
// summary. Edges from outside the loop enter through the copy and the
// back edge keeps the plain header, so a loop that falls back to
// stepping tries its summary once per entry, not once per iteration.
func (c *planCompiler) summarizeLoops(plans map[*ir.Block]*blockPlan) {
	f := c.plan.Fn
	f.EnsureLoops()
	entry := make(map[*blockPlan]*blockPlan) // plain header → entry copy
	latch := make(map[*blockPlan]*blockPlan)
	for _, l := range f.Loops {
		h := plans[l.Header]
		if h == nil || h.term != tCondBr || l.Latch == nil {
			continue
		}
		toIn, elsIn := l.Contains(c.x.blocks[h.to.idx]), l.Contains(c.x.blocks[h.els.idx])
		if toIn == elsIn {
			continue
		}
		in, exit := h.to, h.els
		if elsIn {
			in, exit = h.els, h.to
		}
		loop := []*blockPlan{h}
		for cur := in; cur != h; cur = cur.to {
			if cur.term != tBr || !l.Contains(c.x.blocks[cur.idx]) || len(loop) > len(l.Blocks) {
				loop = nil
				break
			}
			loop = append(loop, cur)
		}
		if len(loop) != len(l.Blocks) || loop[len(loop)-1] != plans[l.Latch] {
			continue
		}
		last := loop[len(loop)-1]
		d := c.compileLoopSum(loop, exit, toIn)
		if d == nil {
			continue
		}
		e := *h
		e.sum = d
		entry[h], latch[h] = &e, last
		c.x.sums = append(c.x.sums, d)
	}
	if len(entry) == 0 {
		return
	}
	redirect := func(from *blockPlan, to **blockPlan) {
		if e, ok := entry[*to]; ok && from != latch[*to] && from != e {
			*to = e
		}
	}
	relink := func(bp *blockPlan) {
		redirect(bp, &bp.to)
		redirect(bp, &bp.els)
	}
	for _, bp := range plans {
		relink(bp)
	}
	for _, e := range entry {
		relink(e)
	}
	redirect(nil, &c.x.entry)
}

// symVal is the compile-time shape of one value of an iteration: an
// invariant, or inv + Σ coef[j]·cell_j over the cells carried from one
// iteration into the next. unk marks coefficients that depend on
// run-time invariants: the value is still affine in t, but cannot prove
// a carried cell's self-shift.
type symVal struct {
	vary bool
	unk  bool
	coef []int64
}

// compileLoopSum proves that the loop whose blocks are loop (the
// header, then the body chain) can be summarized, and compiles its
// descriptor; it returns nil when it cannot. exit is the header's
// successor outside the loop, and bodyOnTrue tells whether the loop
// continues on a true exit test.
func (c *planCompiler) compileLoopSum(loop []*blockPlan, exit *blockPlan, bodyOnTrue bool) *loopSum {
	x, h := c.x, loop[0]
	sink := int32(x.nSSA)
	known := func(s int32) bool { return s > sink } // constant or launch scalar

	// Pass 1 admits the operations, numbers the cells and finds the
	// carried ones: read before any write in the iteration, and written.
	var cells []sumCell
	var readFirst []bool
	cellOf := func(st *planStep) int32 {
		if st.cells == nil || st.lanes != 1 || !known(st.a) {
			return -1
		}
		i := x.ri[st.a]
		if i < 0 || i >= st.lim {
			return -1 // faults: stepping reports it
		}
		for k, cl := range cells {
			if cl.file == st.cells && cl.i == i {
				return int32(k)
			}
		}
		cells = append(cells, sumCell{file: st.cells, i: i})
		readFirst = append(readFirst, false)
		return int32(len(cells) - 1)
	}
	var exitSt *planStep
	for _, bp := range loop {
		for i := range bp.steps {
			st := &bp.steps[i]
			switch st.act {
			case aAdd, aSub, aMul, aAnd, aOr, aXor, aShl, aLShr, aAShr,
				aICmpEQ, aICmpNE, aICmpLT, aICmpLE, aICmpGT, aICmpGE,
				aTrunc, aGlobalID, aLocalID, aGroupID:
				if bp == h && st.dst == h.cond && st.act >= aICmpEQ && st.act <= aICmpGE {
					exitSt = st
				}
			case aReadParam, aStoreParam, aCheckLoad, aCheckStore:
				if st.lanes <= 0 || st.lim/st.lanes <= 0 {
					return nil // every access faults
				}
			case aLoadAlloca:
				k := cellOf(st)
				if k < 0 {
					return nil
				}
				if !cells[k].written {
					readFirst[k] = true
				}
			case aStoreAlloca:
				k := cellOf(st)
				if k < 0 || bp == h {
					return nil // the exit visit would store once more
				}
				cells[k].written = true
			default:
				return nil // float, vector, needed param load, atomic, barrier, generic
			}
		}
	}
	if exitSt == nil {
		return nil
	}
	nc := 0
	carried := make([]int, len(cells)) // cell → carried ordinal, or -1
	for k := range cells {
		carried[k] = -1
		if readFirst[k] && cells[k].written {
			carried[k] = nc
			nc++
		}
	}

	// Pass 2 numbers the values and runs the symbolic proof. A slot's
	// state is 0 before it is met; pending while the loop defines it
	// further on, or for the exit test, which nothing may read; v+1 once
	// it holds loop value v; and pending-1-v for invariant input v.
	const pending = -1
	state := make([]int32, len(x.ri))
	nst := 0
	for _, bp := range loop {
		nst += len(bp.steps)
		for i := range bp.steps {
			if st := &bp.steps[i]; valueAct(st.act) && st.dst != sink {
				state[st.dst] = pending
			}
		}
	}
	d := &loopSum{
		exit: exit, head: h.idx, nHead: h.nInstr, selfLp: len(loop) == 1, condSlot: h.cond, cells: cells,
		body: make([]int, 0, len(loop)-1),
		ops:  make([]sumOp, 0, nst),
		out:  make([]sumIO, 0, nst),
	}
	for _, bp := range loop[1:] {
		d.body = append(d.body, bp.idx)
		d.nBody += bp.nInstr
	}
	syms := make([]symVal, 0, 2*nst) // inputs and values; a size hint
	use := func(s int32) (int32, bool) {
		switch v := state[s]; {
		case v > 0:
			return v - 1, true
		case v < pending:
			return pending - 1 - v, true
		case v == pending || s == sink:
			return 0, false // read before its definition, or the exit test
		}
		v := int32(len(syms))
		syms = append(syms, symVal{})
		state[s] = pending - 1 - v
		d.in = append(d.in, sumIO{slot: s, v: v})
		return v, true
	}
	cellSym := make([]symVal, len(cells))
	for k, j := range carried {
		if j >= 0 {
			cellSym[k] = symVal{vary: true, coef: unit(nc, j)}
		}
	}
	for _, bp := range loop {
		head := bp == h
		for i := range bp.steps {
			st := &bp.steps[i]
			op := sumOp{act: st.act, kind: st.kind, a: st.a}
			var ok bool
			if op.a, op.b, ok = operands(st, use); !ok {
				return nil
			}
			var res symVal
			switch st.act {
			case aAdd, aSub:
				res = linComb(syms[op.a], syms[op.b], st.act == aSub)
			case aMul, aShl:
				sa, sb := syms[op.a], syms[op.b]
				switch {
				case !sa.vary && !sb.vary:
				case sb.vary && (sa.vary || st.act == aShl):
					return nil // quadratic, or a varying shift
				case sa.vary:
					k := x.ri[st.b]
					if st.act == aShl {
						k = 1 << uint(k&63)
					}
					res = scale(sa, k, known(st.b))
				default:
					res = scale(sb, x.ri[st.a], known(st.a))
				}
			case aAnd, aOr, aXor, aLShr, aAShr,
				aICmpEQ, aICmpNE, aICmpLT, aICmpLE, aICmpGT, aICmpGE:
				if st == exitSt {
					if !d.exitTest(syms, op.a, op.b, st.act, bodyOnTrue) {
						return nil
					}
					continue // the exit test's slot stays pending
				}
				if syms[op.a].vary || syms[op.b].vary {
					return nil
				}
			case aTrunc:
				res = syms[op.a]
				if res.vary {
					lo, hi := kindRange(st.kind)
					d.checks = append(d.checks, sumCheck{v: op.a, head: head, lo: lo, hi: hi})
				}
			case aReadParam, aStoreParam, aCheckLoad, aCheckStore:
				d.checks = append(d.checks, sumCheck{v: op.a, head: head, lo: 0, hi: st.lim/st.lanes - 1})
				if st.act == aReadParam || st.act == aStoreParam {
					d.acc = append(d.acc, sumAcc{v: op.a, param: st.param, bytes: st.bytes, write: st.act == aStoreParam})
					if head {
						d.nHAcc++
					}
				}
				continue
			case aLoadAlloca:
				op.cell = cellOf(st)
				res = cellSym[op.cell]
			case aStoreAlloca:
				op.cell = cellOf(st)
				cellSym[op.cell] = syms[op.b]
				if state[st.b] < pending {
					d.plain = append(d.plain, st.b)
				}
				d.ops = append(d.ops, op)
				continue
			}
			op.dst = int32(len(syms))
			syms = append(syms, res)
			d.ops = append(d.ops, op)
			if st.dst != sink {
				state[st.dst] = op.dst + 1
				d.out = append(d.out, sumIO{slot: st.dst, v: op.dst, head: head})
			}
		}
	}
	if !syms[d.iv].vary {
		return nil
	}
	for k, j := range carried {
		if j < 0 {
			continue
		}
		// The proof: cell_k(t+1) = cell_k(t) + an invariant.
		if s := cellSym[k]; !s.vary || s.unk || !slices.Equal(s.coef, unit(nc, j)) {
			return nil
		}
	}

	n, m, na := len(syms), len(cells), len(d.acc)
	scratch := make([]int64, 2*n+3*m+na)
	d.v0, scratch = scratch[:n:n], scratch[n:]
	d.v1, scratch = scratch[:n:n], scratch[n:]
	d.c0, scratch = scratch[:m:m], scratch[m:]
	d.e0, scratch = scratch[:m:m], scratch[m:]
	d.cur, d.stride = scratch[:m:m], scratch[m:]
	d.tmpl = make([]Access, na)
	return d
}

// valueAct reports whether a step of an admitted loop writes its dst.
func valueAct(act uint8) bool {
	switch act {
	case aReadParam, aStoreParam, aCheckLoad, aCheckStore, aStoreAlloca:
		return false
	}
	return true
}

// operands resolves the value operands of an admitted loop step
// through use: both for binary steps, the index of a param access or
// untracked alloca check, the stored value of a cell store. Work-item
// queries and cell loads read no value.
func operands(st *planStep, use func(int32) (int32, bool)) (a, b int32, ok bool) {
	switch st.act {
	case aGlobalID, aLocalID, aGroupID, aLoadAlloca:
		return st.a, 0, true
	case aTrunc, aReadParam, aStoreParam, aCheckLoad, aCheckStore:
		a, ok = use(st.a)
		return a, 0, ok
	case aStoreAlloca:
		b, ok = use(st.b)
		return st.a, b, ok
	}
	if a, ok = use(st.a); !ok {
		return 0, 0, false
	}
	b, ok = use(st.b)
	return a, b, ok
}

// exitTest records the loop's exit test: one operand varies, the other
// is invariant, and the loop continues while the normalized predicate
// holds with the varying operand on the left.
func (d *loopSum) exitTest(syms []symVal, a, b int32, act uint8, bodyOnTrue bool) bool {
	if syms[a].vary == syms[b].vary {
		return false
	}
	d.pred, d.iv, d.bound = ir.Pred(act-aICmpEQ), a, b
	if syms[b].vary {
		d.pred, d.iv, d.bound = swapPred(d.pred), b, a
	}
	if !bodyOnTrue {
		d.pred, d.exitVal = negPred(d.pred), 1
	}
	d.checks = append(d.checks, sumCheck{v: d.iv, head: true, lo: math.MinInt64, hi: math.MaxInt64})
	return true
}

func unit(n, j int) []int64 {
	u := make([]int64, n)
	u[j] = 1
	return u
}

// linComb is a ± b on symbolic values.
func linComb(a, b symVal, sub bool) symVal {
	if !a.vary && !b.vary {
		return symVal{}
	}
	r := symVal{vary: true, unk: a.unk || b.unk}
	if r.unk {
		return r
	}
	r.coef = make([]int64, max(len(a.coef), len(b.coef)))
	for j := range r.coef {
		var ca, cb int64
		if j < len(a.coef) {
			ca = a.coef[j]
		}
		if j < len(b.coef) {
			cb = b.coef[j]
		}
		if sub {
			cb = -cb
		}
		r.coef[j] = ca + cb
	}
	return r
}

// scale multiplies a varying symbolic value by an invariant, k when
// isConst, else a run-time value.
func scale(a symVal, k int64, isConst bool) symVal {
	if !isConst || a.unk {
		return symVal{vary: true, unk: true}
	}
	r := symVal{vary: true, coef: make([]int64, len(a.coef))}
	for j, cj := range a.coef {
		r.coef[j] = cj * k
	}
	return r
}

// swapPred mirrors a predicate across its operands: a < b ⇔ b > a.
func swapPred(p ir.Pred) ir.Pred {
	switch p {
	case ir.PredLT:
		return ir.PredGT
	case ir.PredLE:
		return ir.PredGE
	case ir.PredGT:
		return ir.PredLT
	case ir.PredGE:
		return ir.PredLE
	}
	return p
}

// negPred is the predicate's complement: !(a < b) ⇔ a >= b.
func negPred(p ir.Pred) ir.Pred {
	return [...]ir.Pred{ir.PredNE, ir.PredEQ, ir.PredGE, ir.PredGT, ir.PredLE, ir.PredLT}[p]
}

// kindRange is the set of values truncInt leaves unchanged for k.
func kindRange(k ast.BaseKind) (lo, hi int64) {
	switch k {
	case ast.KBool:
		return 0, 1
	case ast.KChar:
		return math.MinInt8, math.MaxInt8
	case ast.KUChar:
		return 0, math.MaxUint8
	case ast.KShort:
		return math.MinInt16, math.MaxInt16
	case ast.KUShort:
		return 0, math.MaxUint16
	case ast.KInt:
		return math.MinInt32, math.MaxInt32
	case ast.KUInt:
		return 0, math.MaxUint32
	}
	return math.MinInt64, math.MaxInt64
}

// eval runs the value program once: the value file v holds the inputs
// and receives the iteration's values; cells holds the cell contents at
// its start and, on return, at its end.
func (d *loopSum) eval(x *planExec, v, cells []int64) {
	for i := range d.ops {
		op := &d.ops[i]
		switch op.act {
		case aAdd:
			v[op.dst] = v[op.a] + v[op.b]
		case aSub:
			v[op.dst] = v[op.a] - v[op.b]
		case aMul:
			v[op.dst] = v[op.a] * v[op.b]
		case aAnd:
			v[op.dst] = v[op.a] & v[op.b]
		case aOr:
			v[op.dst] = v[op.a] | v[op.b]
		case aXor:
			v[op.dst] = v[op.a] ^ v[op.b]
		case aShl:
			v[op.dst] = v[op.a] << uint(v[op.b]&63)
		case aLShr:
			v[op.dst] = int64(uint64(v[op.a]) >> uint(v[op.b]&63))
		case aAShr:
			v[op.dst] = v[op.a] >> uint(v[op.b]&63)
		case aICmpEQ:
			v[op.dst] = boolInt(v[op.a] == v[op.b])
		case aICmpNE:
			v[op.dst] = boolInt(v[op.a] != v[op.b])
		case aICmpLT:
			v[op.dst] = boolInt(v[op.a] < v[op.b])
		case aICmpLE:
			v[op.dst] = boolInt(v[op.a] <= v[op.b])
		case aICmpGT:
			v[op.dst] = boolInt(v[op.a] > v[op.b])
		case aICmpGE:
			v[op.dst] = boolInt(v[op.a] >= v[op.b])
		case aTrunc:
			v[op.dst] = truncInt(v[op.a], op.kind)
		case aGlobalID:
			v[op.dst] = x.global[op.a]
		case aLocalID:
			v[op.dst] = x.local[op.a]
		case aGroupID:
			v[op.dst] = x.group[op.a]
		case aLoadAlloca:
			v[op.dst] = cells[op.cell]
		case aStoreAlloca:
			cells[op.cell] = v[op.b]
		}
	}
}

// summarize runs the loop of d in closed form from the current state,
// as if runWI had stepped it from the header through the exit branch.
// It reports false, having changed nothing, when a check fails; the
// caller then steps the loop.
func (x *planExec) summarize(d *loopSum) bool {
	ri, rf := x.ri, x.rf
	for _, s := range d.plain {
		if rf[s] != 0 || x.rv[s] != nil {
			return false
		}
	}
	for k := range d.cells {
		c := &d.cells[k]
		if c.file.v != nil || c.file.f[c.i] != 0 {
			return false
		}
		d.c0[k] = c.file.i[c.i]
	}
	v0, v1 := d.v0, d.v1
	for _, in := range d.in {
		v0[in.v], v1[in.v] = ri[in.slot], ri[in.slot]
	}
	// Iterations 0 and 1 fix every value's line a + b·t.
	copy(d.cur, d.c0)
	d.eval(x, v0, d.cur)
	copy(d.e0, d.cur)
	d.eval(x, v1, d.cur)

	a := v0[d.iv]
	T, ok := tripCount(d.pred, a, v1[d.iv]-a, v0[d.bound])
	if !ok || T > uint64(profStepLimit) {
		return false
	}
	t := int64(T)
	per := d.nHead + d.nBody
	if left := profStepLimit - x.steps - d.nHead; left < 0 || t > left/per {
		return false // the step guard fires inside the loop
	}
	for i := range d.checks {
		ck := &d.checks[i]
		tmax := t
		if !ck.head {
			if t == 0 {
				continue
			}
			tmax = t - 1
		}
		a := v0[ck.v]
		if a < ck.lo || a > ck.hi {
			return false
		}
		if b := v1[ck.v] - a; b != 0 && tmax > 0 {
			e, ok := affineAt(a, b, tmax)
			if !ok || e < ck.lo || e > ck.hi {
				return false
			}
		}
	}

	// The trace: T iterations of header and body accesses, then the
	// header's once more.
	tmpl, stride := d.tmpl, d.stride
	for k := range d.acc {
		ac := &d.acc[k]
		tmpl[k] = Access{Param: ac.param, Index: v0[ac.v], Bytes: ac.bytes, Write: ac.write}
		stride[k] = v1[ac.v] - v0[ac.v]
	}
	if len(tmpl) > 0 {
		n0 := len(x.accesses)
		n := int(t)*len(tmpl) + d.nHAcc
		out := slices.Grow(x.accesses, n)[:n0+n]
		w := out[n0:]
		for range t {
			for k := range tmpl {
				w[k] = tmpl[k]
				tmpl[k].Index += stride[k]
			}
			w = w[len(tmpl):]
		}
		copy(w, tmpl[:d.nHAcc])
		x.accesses = out
	}

	x.counts[d.head] += t + 1
	for _, b := range d.body {
		x.counts[b] += t
	}
	x.steps += t*per + d.nHead
	if d.selfLp {
		x.loopIters += t + 1
	} else {
		x.loopIters += t
	}
	d.hits++

	// Exit state: header values at t = T, body values and cells at the
	// end of iteration T-1 (unchanged when the body never ran).
	for _, o := range d.out {
		tmax := t
		if !o.head {
			if t == 0 {
				continue
			}
			tmax = t - 1
		}
		ri[o.slot] = v0[o.v] + (v1[o.v]-v0[o.v])*tmax
		rf[o.slot] = 0
	}
	ri[d.condSlot] = d.exitVal
	if t > 0 {
		for k := range d.cells {
			if c := &d.cells[k]; c.written {
				c.file.i[c.i] = d.e0[k] + (d.cur[k]-d.e0[k])*(t-1)
			}
		}
	}
	return true
}

// tripCount returns the first t ≥ 0 at which pred(a + b·t, c) fails,
// taking a + b·t as an exact integer. ok is false when the test holds
// until the line leaves int64 (the executor would wrap around).
func tripCount(pred ir.Pred, a, b, c int64) (uint64, bool) {
	// Differences of ordered int64s are exact in uint64; so is |b|.
	switch pred {
	case ir.PredLT, ir.PredLE:
		if a > c || a == c && pred == ir.PredLT {
			return 0, true
		}
		if b <= 0 {
			return 0, false
		}
		return steps(uint64(c)-uint64(a), uint64(b), pred == ir.PredLE)
	case ir.PredGT, ir.PredGE:
		if a < c || a == c && pred == ir.PredGT {
			return 0, true
		}
		if b >= 0 {
			return 0, false
		}
		return steps(uint64(a)-uint64(c), -uint64(b), pred == ir.PredGE)
	case ir.PredNE:
		switch {
		case a == c:
			return 0, true
		case b > 0 && a < c:
			if dist := uint64(c) - uint64(a); dist%uint64(b) == 0 {
				return dist / uint64(b), true
			}
		case b < 0 && a > c:
			if dist := uint64(a) - uint64(c); dist%-uint64(b) == 0 {
				return dist / -uint64(b), true
			}
		}
		return 0, false
	default: // PredEQ
		if a != c {
			return 0, true
		}
		return 1, b != 0
	}
}

// steps counts the strides of size step that stay within dist of the
// start: inclusive of dist itself for <= and >=, exclusive for < and >.
func steps(dist, step uint64, inclusive bool) (uint64, bool) {
	if inclusive {
		n := dist/step + 1
		return n, n != 0
	}
	n := dist / step
	if dist%step != 0 {
		n++
	}
	return n, true
}

// affineAt is a + b·t for t > 0 as an exact int64; ok is false when it
// does not fit.
func affineAt(a, b, t int64) (int64, bool) {
	bt := b * t
	if bt/t != b {
		return 0, false
	}
	s := a + bt
	if (bt > 0 && s < a) || (bt < 0 && s > a) {
		return 0, false
	}
	return s, true
}
