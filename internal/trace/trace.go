// Package trace converts the dynamic global-memory access traces produced
// by the profiler (package interp) into the quantities FlexCL's memory
// model consumes (§3.4): buffer layout in the DRAM address space, burst
// coalescing of consecutive same-direction accesses (factor f =
// MemoryAccessUnitSize / DataTypeBitWidth), mapping to banks under the
// byte-interleaved policy, and classification of every coalesced access
// into the eight patterns of Table 1.
package trace

import (
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Layout assigns every global buffer a base byte address.
type Layout struct {
	Base map[string]int64
	End  int64
	// base is Base indexed by parameter ordinal (ir.Param.Index, the
	// Access.Param of a trace); -1 marks a parameter that is not a
	// global buffer.
	base []int64
}

// NewLayout lays the kernel's global buffers out sequentially, each
// aligned to a row boundary (the allocator behaviour on the board).
// counts gives each buffer's length in scalar elements.
func NewLayout(f *ir.Func, counts map[string]int64, p device.DRAMParams) Layout {
	align := int64(p.RowBytes)
	if align <= 0 {
		align = 1024
	}
	l := Layout{Base: make(map[string]int64), base: make([]int64, len(f.Params))}
	for i := range l.base {
		l.base[i] = -1
	}
	var addr int64
	for _, prm := range f.GlobalParams() {
		l.Base[prm.PName] = addr
		l.base[prm.Index] = addr
		n := counts[prm.PName]
		if n <= 0 {
			n = 1024
		}
		bytes := n * int64(prm.Elem().Base.Size())
		addr += (bytes + align - 1) / align * align
	}
	l.End = addr
	return l
}

// baseOf returns the base address of the buffer a trace access names,
// and false when the parameter is not a global buffer.
func (l *Layout) baseOf(param int32) (int64, bool) {
	if param < 0 || int(param) >= len(l.base) || l.base[param] < 0 {
		return 0, false
	}
	return l.base[param], true
}

// Burst is one coalesced memory transaction.
type Burst struct {
	Addr  int64
	Write bool
}

// CoalesceWG streams one work-group's memory traffic, in pipeline issue
// order, through the coalescing rule of §3.4 and calls emit for every
// resulting burst. With work-item pipelining all work-items execute the
// same instruction in adjacent cycles, so the k-th access of every
// work-item issues before anyone's (k+1)-th; this column-major order is
// what lets SDAccel merge consecutive work-items' unit-stride accesses
// into 512-bit bursts (f = unit size / data width). Consecutive
// same-direction accesses to byte-contiguous addresses of one buffer
// form a run, and a run issues one burst per unitBytes-aligned unit it
// touches. Accesses to parameters that are not global buffers are
// skipped. Nothing is materialised: the traces are read in place.
func CoalesceWG(group [][]interp.Access, l Layout, unitBytes int, emit func(Burst)) {
	unit := int64(unitBytes)
	if unit <= 0 {
		unit = 64
	}
	maxLen := 0
	for _, tr := range group {
		maxLen = max(maxLen, len(tr))
	}
	var (
		open       bool // a run is in progress
		write      bool
		param      int32
		start, end int64 // the run's byte range [start, end)
	)
	for k := 0; k < maxLen; k++ {
		for _, tr := range group {
			if k >= len(tr) {
				continue
			}
			a := tr[k]
			if open && a.Write == write && a.Param == param {
				if addr := l.base[a.Param] + a.Index*int64(a.Bytes); addr == end {
					end = addr + int64(a.Bytes)
					continue
				}
			}
			if open {
				emitRun(start, end, unit, write, emit)
			}
			var base int64
			base, open = l.baseOf(a.Param)
			if open {
				write, param = a.Write, a.Param
				start = base + a.Index*int64(a.Bytes)
				end = start + int64(a.Bytes)
			}
		}
	}
	if open {
		emitRun(start, end, unit, write, emit)
	}
}

// emitRun issues the bursts of one run: every unit-aligned unit that
// the byte range [start, end) touches.
func emitRun(start, end, unit int64, write bool, emit func(Burst)) {
	for p := start / unit * unit; p < end; p += unit {
		emit(Burst{Addr: p, Write: write})
	}
}

// Classified summarizes a kernel's coalesced global-memory behaviour per
// work-item: the N counts of Table 1 plus aggregate statistics.
type Classified struct {
	// N is the average per-work-item count of each pattern (third column
	// of Table 1, after coalescing).
	N [dram.NumPatterns]float64
	// BurstsPerWI is the total coalesced access count per work-item.
	BurstsPerWI float64
	// RawPerWI is the pre-coalescing access count per work-item.
	RawPerWI float64
	// WorkItems profiled.
	WorkItems int
	// Reads and Writes per work-item after coalescing.
	Reads, Writes float64
}

// CoalescingFactor returns raw/coalesced accesses (≥ 1 for unit-stride).
func (c *Classified) CoalescingFactor() float64 {
	if c.BurstsPerWI == 0 {
		return 1
	}
	return c.RawPerWI / c.BurstsPerWI
}

// ClassifyGrouped classifies materialised traces: it splits the
// profiled work-item traces into work-groups of wgSize and feeds them,
// in order, to a Classifier. N counts are per-work-item averages.
func ClassifyGrouped(traces [][]interp.Access, wgSize int64, l Layout, p device.DRAMParams, unitBytes int) *Classified {
	if wgSize <= 0 {
		wgSize = 1
	}
	c := NewClassifier(l, p, unitBytes)
	nwi := int64(len(traces))
	for lo := int64(0); lo < nwi; lo += wgSize {
		c.Group(traces[lo:min(lo+wgSize, nwi)])
	}
	return c.Result()
}

// Classifier classifies a profile's memory traffic one work-group at a
// time, as the profiler completes the groups: it coalesces each group
// in pipeline issue order (CoalesceWG), maps every burst to its bank
// under the interleaved policy and classifies it against the bank's
// row buffer and last operation. It keeps the bank state and one
// integer tally per group, never the traces. Its Group method is an
// interp.GroupSink.
type Classifier struct {
	l      Layout
	unit   int
	sim    *dram.Sim
	banks  []bankState
	groups []groupTally
	cur    *groupTally // the group being classified
}

type bankState struct {
	hasOpen   bool
	openRow   int64
	prevWrite bool
}

// groupTally counts one work-group's traffic.
type groupTally struct {
	wis, raw, bursts, reads, writes int64
	n                               [dram.NumPatterns]int64
}

// NewClassifier returns a classifier for traces laid out by l.
func NewClassifier(l Layout, p device.DRAMParams, unitBytes int) *Classifier {
	sim := dram.NewSim(p)
	return &Classifier{
		l:      l,
		unit:   unitBytes,
		sim:    sim,
		banks:  make([]bankState, sim.P.Banks),
		groups: make([]groupTally, 0, 8), // the prep path profiles 8 groups
	}
}

// Group classifies the next work-group: one access trace per
// work-item, in work-item issue order. The traces are not retained.
func (c *Classifier) Group(group [][]interp.Access) {
	c.groups = append(c.groups, groupTally{wis: int64(len(group))})
	c.cur = &c.groups[len(c.groups)-1]
	for _, tr := range group {
		c.cur.raw += int64(len(tr))
	}
	CoalesceWG(group, c.l, c.unit, c.classify)
}

func (c *Classifier) classify(b Burst) {
	t := c.cur
	st := &c.banks[c.sim.BankOf(b.Addr)]
	row := c.sim.RowOf(b.Addr)
	t.bursts++
	t.n[patternOf(b.Write, st.prevWrite, st.hasOpen && st.openRow == row)]++
	if b.Write {
		t.writes++
	} else {
		t.reads++
	}
	st.hasOpen = true
	st.openRow = row
	st.prevWrite = b.Write
}

// Result returns the per-work-item averages over the groups classified
// so far. The first quarter of the groups (at least one, when there
// are several) serve as warm-up: their bursts updated the bank state
// but are not counted, so the short profiling window of §3.2 does not
// over-represent cold row-buffer misses relative to the launch's
// steady state. Tallies are integers divided once, so the averages do
// not depend on summation order.
func (c *Classifier) Result() *Classified {
	warmup := 0
	if len(c.groups) > 1 {
		warmup = max(1, len(c.groups)/4)
	}
	var total int64
	var sum groupTally
	for i, g := range c.groups {
		total += g.wis
		if i < warmup {
			continue
		}
		sum.wis += g.wis
		sum.raw += g.raw
		sum.bursts += g.bursts
		sum.reads += g.reads
		sum.writes += g.writes
		for p, k := range g.n {
			sum.n[p] += k
		}
	}
	res := &Classified{WorkItems: int(total)}
	if sum.wis == 0 {
		return res
	}
	n := float64(sum.wis)
	for i, k := range sum.n {
		res.N[i] = float64(k) / n
	}
	res.BurstsPerWI = float64(sum.bursts) / n
	res.RawPerWI = float64(sum.raw) / n
	res.Reads = float64(sum.reads) / n
	res.Writes = float64(sum.writes) / n
	return res
}

// patternOf mirrors the dram package's classification.
func patternOf(write, prevWrite, hit bool) dram.Pattern {
	var p dram.Pattern
	switch {
	case !write && !prevWrite:
		p = dram.RARHit
	case !write && prevWrite:
		p = dram.RAWHit
	case write && !prevWrite:
		p = dram.WARHit
	default:
		p = dram.WAWHit
	}
	if !hit {
		p += 4
	}
	return p
}

// MemLatencyWI evaluates Eq. 9: the per-work-item global-memory latency
// as the pattern-count-weighted sum of profiled pattern latencies.
func MemLatencyWI(c *Classified, lat dram.PatternLatencies) float64 {
	var sum float64
	for p := dram.Pattern(0); p < dram.NumPatterns; p++ {
		sum += c.N[p] * lat.Get(p)
	}
	return sum
}

// BufferCounts extracts buffer element counts from an interp
// configuration, for layout construction. Unbound buffers are left to
// the profiler to report.
func BufferCounts(f *ir.Func, cfg *interp.Config) map[string]int64 {
	counts := make(map[string]int64)
	for _, prm := range f.GlobalParams() {
		if b := cfg.Buffers[prm.PName]; b != nil {
			counts[prm.PName] = int64(b.Len())
		}
	}
	return counts
}
