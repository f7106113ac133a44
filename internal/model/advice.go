package model

import (
	"fmt"
	"math"
)

// Resources is the estimated FPGA resource usage of one design point —
// used to prune infeasible configurations before they reach synthesis.
type Resources struct {
	DSPs     int // DSP slices across all CUs and PEs
	BRAMKb   int // block RAM for local memories, Kb
	Feasible bool
}

// ResourceUsage estimates the design's resource footprint: each PE
// replicates the kernel's DSP-backed cores, each CU replicates its local
// memories, and the whole kernel replicates per CU.
func (a *Analysis) ResourceUsage(d Design) Resources {
	inv := a.invariants()
	r := Resources{
		DSPs:   int(inv.dspPerPE) * d.PE * d.CU,
		BRAMKb: int(inv.localBits/1024) * d.CU,
	}
	r.Feasible = r.DSPs <= a.Platform.DSPTotal && r.BRAMKb <= a.Platform.BRAMTotalKb
	return r
}

// Bottleneck identifies what limits a design's performance.
type Bottleneck int

// Bottleneck classes.
const (
	// BoundCompute: the work-item pipeline's II or depth dominates.
	BoundCompute Bottleneck = iota
	// BoundMemory: the global-memory channel dominates.
	BoundMemory
	// BoundRecurrence: an inter-work-item dependence caps the II.
	BoundRecurrence
	// BoundPorts: local-memory ports or DSP cores cap the II.
	BoundPorts
	// BoundScheduler: work-group dispatch overhead dominates.
	BoundScheduler
)

func (b Bottleneck) String() string {
	return [...]string{"compute", "memory", "recurrence", "ports", "scheduler"}[b]
}

// Diagnosis explains a prediction: the binding bottleneck and actionable
// restructuring hints (the §1 use case: "identify the performance
// bottlenecks on FPGAs, give code restructuring hints").
type Diagnosis struct {
	Bottleneck Bottleneck
	Hints      []string
}

// Diagnose classifies the bottleneck of an estimate and suggests code or
// configuration changes.
func (a *Analysis) Diagnose(e *Estimate) *Diagnosis {
	d := &Diagnosis{}
	nwg := float64(e.Design.WGSize)
	groups := math.Ceil(float64(a.NWI) / nwg)
	dispatch := float64(a.Platform.WGSchedOverhead) * groups
	memTotal := e.LMemWI * float64(a.NWI)

	switch {
	case dispatch >= e.Cycles*0.9:
		d.Bottleneck = BoundScheduler
		d.Hints = append(d.Hints,
			"work-group dispatch dominates: increase the work-group size so fewer groups are scheduled",
			fmt.Sprintf("at WG=%d the launch needs %.0f dispatches of %d cycles each",
				e.Design.WGSize, groups, a.Platform.WGSchedOverhead))
	case memTotal >= e.Cycles*0.6:
		d.Bottleneck = BoundMemory
		d.Hints = append(d.Hints,
			"the global-memory channel is saturated: restructure accesses for unit stride so bursts coalesce (f = 512/width)",
			"stage reused data in __local memory behind a barrier instead of re-reading global buffers")
		if f := a.Mem.CoalescingFactor(); f < 2 {
			d.Hints = append(d.Hints, fmt.Sprintf(
				"coalescing factor is only %.1f; consecutive work-items should touch consecutive addresses", f))
		}
		var missFrac float64
		var total float64
		for p, n := range a.Mem.N {
			total += n
			if p >= 4 {
				missFrac += n
			}
		}
		if total > 0 && missFrac/total > 0.5 {
			d.Hints = append(d.Hints, fmt.Sprintf(
				"%.0f%% of accesses miss the DRAM row buffer; tile loops so each work-group stays within rows",
				missFrac/total*100))
		}
	case e.RecMII > e.ResMII && e.RecMII > 1 && e.IIComp >= e.RecMII:
		d.Bottleneck = BoundRecurrence
		d.Hints = append(d.Hints,
			fmt.Sprintf("an inter-work-item dependence forces II >= %d: break the recurrence or increase its distance", e.RecMII),
			"consider privatizing the carried value and combining partial results after the loop")
	case e.ResMII > 1 && e.IIComp >= e.ResMII:
		d.Bottleneck = BoundPorts
		d.Hints = append(d.Hints,
			fmt.Sprintf("local-memory ports or DSP cores cap II at %d: partition __local arrays into more banks", e.ResMII),
			"or reduce per-work-item local accesses by widening the data type (vector loads)")
	default:
		d.Bottleneck = BoundCompute
		d.Hints = append(d.Hints,
			fmt.Sprintf("computation-bound (II=%d, depth=%d): increase PE or CU parallelism", e.IIComp, e.Depth))
		if !e.Design.WIPipeline {
			d.Hints = append(d.Hints, "enable work-item pipelining — the largest single win for this kernel")
		}
	}
	return d
}
