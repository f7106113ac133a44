package trace

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
)

// collect returns CoalesceWG's burst stream for one work-group.
func collect(group [][]interp.Access, l Layout, unitBytes int) []Burst {
	var bs []Burst
	CoalesceWG(group, l, unitBytes, func(b Burst) { bs = append(bs, b) })
	return bs
}

// wgBursts collects the burst stream of every work-group of wgSize, the
// way rtlsim walks a launch.
func wgBursts(traces [][]interp.Access, wgSize int64, l Layout, unitBytes int) [][]Burst {
	var out [][]Burst
	for lo := int64(0); lo < int64(len(traces)); lo += wgSize {
		out = append(out, collect(traces[lo:min(lo+wgSize, int64(len(traces)))], l, unitBytes))
	}
	return out
}

func TestInterleaveWGColumnMajor(t *testing.T) {
	// With a 4-byte unit every burst is one access, so the burst stream
	// shows the issue order: the k-th access of every work-item before
	// anyone's (k+1)-th. Row-major order would interleave a[0..2] with
	// a[10..11] and break both runs.
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	l := NewLayout(k, map[string]int64{"a": 1024}, device.Virtex7().DRAM)
	prm := int32(k.GlobalParams()[0].Index)
	mk := func(idx ...int64) []interp.Access {
		var out []interp.Access
		for _, i := range idx {
			out = append(out, interp.Access{Param: prm, Index: i, Bytes: 4})
		}
		return out
	}
	got := collect([][]interp.Access{mk(0, 10), mk(1, 11), mk(2)}, l, 4)
	wantAddr := []int64{0, 4, 8, 40, 44}
	if len(got) != len(wantAddr) {
		t.Fatalf("bursts = %v, want addresses %v", got, wantAddr)
	}
	for i, w := range wantAddr {
		if got[i].Addr != w {
			t.Errorf("burst %d: addr %d, want %d", i, got[i].Addr, w)
		}
	}
}

func TestGroupedCoalescingAcrossWorkItems(t *testing.T) {
	// 16 work-items each reading one consecutive float: within-WI
	// coalescing (groups of one) sees 16 separate bursts, column-major
	// group coalescing sees one.
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 1024}, p)
	prm := int32(k.GlobalParams()[0].Index)
	traces := make([][]interp.Access, 16)
	for wi := range traces {
		traces[wi] = []interp.Access{{Param: prm, Index: int64(wi), Bytes: 4}}
	}
	perWI := ClassifyGrouped(traces, 1, l, p, 64)
	grouped := ClassifyGrouped(traces, 16, l, p, 64)
	if perWI.BurstsPerWI != 1 {
		t.Errorf("per-WI coalescing: %v bursts/WI, want 1", perWI.BurstsPerWI)
	}
	if grouped.BurstsPerWI != 1.0/16 {
		t.Errorf("grouped coalescing: %v bursts/WI, want 1/16 (f = 16)", grouped.BurstsPerWI)
	}
}

func TestWGBurstsGrouping(t *testing.T) {
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 4096}, p)
	prm := int32(k.GlobalParams()[0].Index)
	traces := make([][]interp.Access, 32)
	for wi := range traces {
		traces[wi] = []interp.Access{{Param: prm, Index: int64(wi), Bytes: 4}}
	}
	groups := wgBursts(traces, 16, l, 64)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	for gi, bursts := range groups {
		if len(bursts) != 1 {
			t.Errorf("group %d: %d bursts, want 1", gi, len(bursts))
		}
	}
}

func TestGroupedPatternCountsSumToBursts(t *testing.T) {
	k := compileKernel(t, `__kernel void k(__global float* a) { a[0] = 1.0f; }`, "k")
	p := device.Virtex7().DRAM
	l := NewLayout(k, map[string]int64{"a": 65536}, p)
	prm := int32(k.GlobalParams()[0].Index)
	traces := make([][]interp.Access, 64)
	for wi := range traces {
		traces[wi] = []interp.Access{
			{Param: prm, Index: int64(wi * 137 % 4096), Bytes: 4},
			{Param: prm, Index: int64(wi), Bytes: 4, Write: true},
		}
	}
	c := ClassifyGrouped(traces, 64, l, p, 64)
	var total float64
	for _, n := range c.N {
		total += n
	}
	if diff := total - c.BurstsPerWI; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("pattern sum %v != bursts %v", total, c.BurstsPerWI)
	}
	if c.Reads+c.Writes != c.BurstsPerWI {
		t.Errorf("reads+writes (%v) != bursts (%v)", c.Reads+c.Writes, c.BurstsPerWI)
	}
}
