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

// ClassifyGrouped splits the profiled work-item traces into work-groups
// of wgSize, coalesces each group in pipeline issue order (CoalesceWG),
// maps every burst to its bank under the interleaved policy and
// classifies it against the bank's row buffer and last operation.
// N counts are per-work-item averages.
//
// The first quarter of the profiled groups serve as warm-up: their bursts
// update the bank state but are not counted, so the short profiling
// window of §3.2 does not over-represent cold row-buffer misses relative
// to the launch's steady state.
func ClassifyGrouped(traces [][]interp.Access, wgSize int64, l Layout, p device.DRAMParams, unitBytes int) *Classified {
	c := &Classified{WorkItems: len(traces)}
	if len(traces) == 0 {
		return c
	}
	if wgSize <= 0 {
		wgSize = 1
	}
	sim := dram.NewSim(p)
	type bankState struct {
		hasOpen   bool
		openRow   int64
		prevWrite bool
	}
	banks := make([]bankState, sim.P.Banks)

	nwi := int64(len(traces))
	groups := (nwi + wgSize - 1) / wgSize
	warmup := int64(0)
	if groups > 1 {
		warmup = max(1, groups/4)
	}
	var (
		count  bool // the current group is past the warm-up
		bursts int  // bursts of the current group
	)
	classify := func(b Burst) {
		bursts++
		st := &banks[sim.BankOf(b.Addr)]
		row := sim.RowOf(b.Addr)
		if count {
			c.N[patternOf(b.Write, st.prevWrite, st.hasOpen && st.openRow == row)]++
			if b.Write {
				c.Writes++
			} else {
				c.Reads++
			}
		}
		st.hasOpen = true
		st.openRow = row
		st.prevWrite = b.Write
	}
	counted := 0 // work-items in counted groups
	for gi := int64(0); gi < groups; gi++ {
		lo := gi * wgSize
		hi := min(lo+wgSize, nwi)
		count, bursts = gi >= warmup, 0
		CoalesceWG(traces[lo:hi], l, unitBytes, classify)
		if count {
			counted += int(hi - lo)
			for _, tr := range traces[lo:hi] {
				c.RawPerWI += float64(len(tr))
			}
			c.BurstsPerWI += float64(bursts)
		}
	}
	if counted == 0 {
		return c
	}
	n := float64(counted)
	for i := range c.N {
		c.N[i] /= n
	}
	c.BurstsPerWI /= n
	c.RawPerWI /= n
	c.Reads /= n
	c.Writes /= n
	return c
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
// configuration, for layout construction.
func BufferCounts(f *ir.Func, cfg *interp.Config) map[string]int64 {
	counts := make(map[string]int64)
	for _, prm := range f.GlobalParams() {
		if b, ok := cfg.Buffers[prm.PName]; ok {
			counts[prm.PName] = int64(b.Len())
		}
	}
	return counts
}
