package model_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/model"
	"repro/internal/sched"
)

// corpusAnalysis compiles and analyzes one corpus kernel the way
// dse.PrepCache does.
func corpusAnalysis(t *testing.T, k *bench.Kernel, p *device.Platform, wg int64) *model.Analysis {
	t.Helper()
	f, err := k.Compile(wg)
	if err != nil {
		t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
	}
	f.EnsureLoops()
	an, err := model.Analyze(context.Background(), f, p, k.Config(wg), model.AnalysisOptions{ProfileGroups: 8})
	if err != nil {
		t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
	}
	return an
}

// fresh copies the analysis's inputs into a new Analysis whose schedule
// memo is empty, so every prediction it makes is computed from scratch.
func fresh(an *model.Analysis) *model.Analysis {
	return &model.Analysis{
		F: an.F, Platform: an.Platform, Table: an.Table, PatLat: an.PatLat,
		Freq: an.Freq, Mem: an.Mem, NWI: an.NWI, WGSize: an.WGSize, Barriers: an.Barriers,
	}
}

// spaceAt is the default design space restricted to one WG size, as
// dse.Space builds it.
func spaceAt(p *device.Platform, wg int64) []model.Design {
	var out []model.Design
	for _, d := range model.DefaultSpace(wg, p.MaxPE, p.MaxCU) {
		if d.WGSize == wg {
			out = append(out, d)
		}
	}
	return out
}

// sameBits reports whether two estimates agree field by field, floats
// compared by their bit patterns.
func sameBits(a, b *model.Estimate) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

var memoAblations = []model.Ablations{
	{},
	{IIFromMII: true},
	{NoSchedOverhead: true, SingleMemLatency: true, NoCoalescing: true},
}

// checkDirect compares the schedule fields of the analysis's estimates
// with schedules computed here from cdfg and sched directly, so a fault
// the shared and the fresh analyses would have in common cannot hide.
func checkDirect(t *testing.T, id string, an *model.Analysis, space []model.Design) {
	t.Helper()
	type class struct {
		res  sched.Resources
		pipe bool
	}
	direct := map[class]sched.PipelineResult{}
	for _, d := range space {
		c := class{model.PEResources(an.Platform, d), d.WIPipeline}
		want, ok := direct[c]
		if !ok {
			scfg := &sched.Config{Table: an.Table, Res: c.res}
			g := cdfg.Build(an.F, an.Freq, scfg)
			if c.pipe {
				want = *sched.SMS(an.F, g.Freq, g.BlockOffsets, scfg)
			} else {
				depth := sched.SerialDepth(an.F, g.Freq, scfg)
				want = sched.PipelineResult{II: depth, Depth: depth}
			}
			direct[c] = want
		}
		e := an.Predict(d)
		if e.IIComp != want.II || e.Depth != want.Depth || e.RecMII != want.RecMII || e.ResMII != want.ResMII {
			t.Errorf("%s %v: estimate II/depth/RecMII/ResMII %d/%d/%d/%d, direct schedule %+v",
				id, d, e.IIComp, e.Depth, e.RecMII, e.ResMII, want)
		}
		if d.WIPipeline {
			if got := an.PredictWith(d, model.Ablations{IIFromMII: true}).IIComp; got != want.MII {
				t.Errorf("%s %v: IIFromMII estimate II %d, direct MII %d", id, d, got, want.MII)
			}
		}
	}
}

type memoJob struct {
	d  model.Design
	ab model.Ablations
}

// runShared predicts the jobs on one shared analysis from GOMAXPROCS
// goroutines and compares each estimate with a fresh analysis's.
func runShared(t *testing.T, id string, shared *model.Analysis, jobs []memoJob) {
	t.Helper()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				got := shared.PredictWith(j.d, j.ab)
				want := fresh(shared).PredictWith(j.d, j.ab)
				if !sameBits(got, want) {
					t.Errorf("%s %v %+v: shared %+v, fresh %+v", id, j.d, j.ab, *got, *want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestScheduleMemoExactUnderConcurrency predicts the whole default
// space of every corpus kernel at its golden WG sizes on one shared
// Analysis per key, concurrently and in a shuffled order, and requires
// every estimate to equal the one of a fresh Analysis. On every other
// key the IIFromMII ablation runs first, so the memo entries the plain
// predictions read were filled by the ablated ones. The schedule fields
// are then checked against schedules computed without the model.
func TestScheduleMemoExactUnderConcurrency(t *testing.T) {
	p := device.Virtex7()
	rng := rand.New(rand.NewSource(1))
	key := 0
	for _, k := range bench.All() {
		for _, wg := range k.WGSizes() {
			key++
			shared := corpusAnalysis(t, k, p, wg)
			space := spaceAt(p, wg)
			var jobs []memoJob
			for _, d := range space {
				for _, ab := range memoAblations {
					jobs = append(jobs, memoJob{d, ab})
				}
			}
			rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
			id := k.ID()
			if key%2 == 0 {
				var first, rest []memoJob
				for _, j := range jobs {
					if j.ab.IIFromMII {
						first = append(first, j)
					} else {
						rest = append(rest, j)
					}
				}
				runShared(t, id, shared, first)
				jobs = rest
			}
			runShared(t, id, shared, jobs)
			checkDirect(t, id, shared, space)
			if t.Failed() {
				return
			}
		}
	}
}

// TestDesignBoundsIndependentOfPredictOrder requires DesignBounds to be
// the same whether it schedules the lattice itself or reads schedules a
// full sweep has already memoized.
func TestDesignBoundsIndependentOfPredictOrder(t *testing.T) {
	p := device.Virtex7()
	peVals, cuVals := model.PEValues(p.MaxPE), model.CUValues(p.MaxCU)
	for _, k := range bench.All() {
		wg := k.WGSizes()[0]
		an := corpusAnalysis(t, k, p, wg)
		before := fresh(an).DesignBounds(peVals, cuVals)
		swept := fresh(an)
		for _, d := range spaceAt(p, wg) {
			swept.Predict(d)
		}
		if after := swept.DesignBounds(peVals, cuVals); after != before {
			t.Errorf("%s wg=%d: DesignBounds before any Predict %+v, after a sweep %+v", k.ID(), wg, before, after)
		}
	}
}

// TestPatternLatenciesPerDRAM pins the pattern-latency memo's key: a
// platform whose DRAM timings differ gets its own micro-benchmark
// result, and each analysis carries exactly what dram.ProfilePatterns
// computes for its platform.
func TestPatternLatenciesPerDRAM(t *testing.T) {
	base := device.Virtex7()
	slow := *base
	slow.DRAM.TCL += 7
	slow.DRAM.TRCD += 5
	k := bench.FindID("gemm/gemm")
	var got []dram.PatternLatencies
	for _, p := range []*device.Platform{base, &slow, base} {
		an := corpusAnalysis(t, k, p, k.MinWG)
		want := dram.ProfilePatterns(p.DRAM, 4096, device.HashString(p.Name))
		if an.PatLat != want {
			t.Fatalf("DRAM %+v: PatLat %v, want %v", p.DRAM, an.PatLat, want)
		}
		got = append(got, an.PatLat)
	}
	if got[0] == got[1] {
		t.Error("changed DRAM timings gave the same pattern latencies")
	}
}

// TestLatencyTableMemo pins the device.Profile memo: on every catalogue
// platform the shared table equals a fresh computation, and fresh
// *Platform values with the same contents share one table, as the
// per-job platforms of the server do.
func TestLatencyTableMemo(t *testing.T) {
	k := bench.FindID("gemm/gemm")
	for name := range device.Platforms() {
		a := corpusAnalysis(t, k, device.Platforms()[name], k.MinWG)
		b := corpusAnalysis(t, k, device.Platforms()[name], k.MinWG)
		if want := device.Profile(device.Platforms()[name], 256); *a.Table != *want {
			t.Errorf("%s: memoized table %+v, want %+v", name, *a.Table, *want)
		}
		if a.Table != b.Table {
			t.Errorf("%s: two analyses on equal platforms got distinct tables", name)
		}
	}
}
