// Command flexcl-dse explores the optimization design space of a
// benchmark kernel: it evaluates every configuration (work-group size ×
// pipelining × PE × CU × communication mode) with the FlexCL analytical
// model — within seconds, as §4.3 demonstrates — and optionally validates
// the ranking against the cycle-level simulator. -search=guided swaps the
// exhaustive sweep for the branch-and-bound search (same best design,
// a fraction of the evaluations); -search=pareto additionally reports the
// cycles-vs-resource Pareto frontier.
//
// Usage:
//
//	flexcl-dse -bench hotspot -kernel hotspot [-sim] [-top 10] [-workers N]
//	flexcl-dse -bench hotspot -kernel hotspot -search guided
//	flexcl-dse -artifact-dir ~/.cache/flexcl -bench hotspot -kernel hotspot
//	flexcl-dse -list
//
// -artifact-dir persists compile+analyze results between runs: the
// second invocation against the same directory skips the profiling
// interpreter entirely (see docs/SERVE.md "Warm restarts").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	var (
		benchName   = flag.String("bench", "", "benchmark name (e.g. hotspot)")
		kernel      = flag.String("kernel", "", "kernel name (e.g. hotspot)")
		platform    = flag.String("platform", "virtex7", "virtex7 or ku060")
		sim         = flag.Bool("sim", false, "validate against the cycle-level simulator (exhaustive search only)")
		search      = flag.String("search", dse.StrategyExhaustive, "exhaustive, guided (branch-and-bound) or pareto (guided + frontier)")
		top         = flag.Int("top", 10, "show the N best designs")
		workers     = flag.Int("workers", 0, "exploration worker goroutines (0 = all cores, 1 = serial; output is identical)")
		list        = flag.Bool("list", false, "list available kernels and exit")
		trace       = flag.Bool("trace", false, "print a per-stage timing table of the exploration after the results")
		artifactDir = flag.String("artifact-dir", "", "persist compile+analyze results to this directory and reuse them across runs (empty = memory only)")
	)
	flag.Parse()

	if *list {
		t := report.New("Available kernels", "Suite", "Benchmark", "Kernel", "#WIs", "WG sizes")
		for _, k := range bench.All() {
			t.Add(k.Suite, k.Bench, k.Name, k.NWI(), fmt.Sprint(k.WGSizes()))
		}
		t.Write(os.Stdout)
		return
	}
	p, ok := device.Platforms()[*platform]
	if !ok {
		fmt.Fprintf(os.Stderr, "flexcl-dse: unknown platform %q\n", *platform)
		os.Exit(1)
	}
	cache, err := prepCache(*artifactDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexcl-dse:", err)
		os.Exit(1)
	}
	// Trailing artifact writes land after the results print; wait for
	// them so the next run actually starts warm.
	defer cache.Flush()
	if *benchName == "" || *kernel == "" {
		flag.Usage()
		os.Exit(2)
	}
	k := bench.Find(*benchName, *kernel)
	if k == nil {
		fmt.Fprintf(os.Stderr, "flexcl-dse: kernel %s/%s not found (use -list)\n", *benchName, *kernel)
		os.Exit(1)
	}

	// With -trace the exploration becomes one trace; the per-stage table
	// (prep, compile, profile, sweep/search, …) prints after the results.
	ctx := context.Background()
	var tr *telemetry.Tracer
	var root *telemetry.Span
	if *trace {
		tr = telemetry.New(telemetry.Options{Capacity: 8})
		ctx, root = tr.StartTrace(ctx, "cli", "flexcl-dse "+k.ID())
	}

	switch *search {
	case dse.StrategyExhaustive:
	case dse.StrategyGuided, dse.StrategyPareto:
		if *sim {
			fmt.Fprintln(os.Stderr, "flexcl-dse: -sim requires -search=exhaustive (guided search evaluates only the designs its bounds cannot prune)")
			os.Exit(2)
		}
		runGuided(ctx, k, p, *search, *workers, *top, cache)
		finishTrace(tr, root)
		return
	default:
		fmt.Fprintf(os.Stderr, "flexcl-dse: unknown -search %q (want exhaustive, guided or pareto)\n", *search)
		os.Exit(2)
	}

	r, err := core.ExploreOpts(ctx, k, core.ExploreOptions{
		Platform:     p,
		SimMaxGroups: 8,
		SkipActual:   !*sim,
		SkipBaseline: true,
		Workers:      *workers,
		Cache:        cache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexcl-dse:", err)
		os.Exit(1)
	}
	fmt.Printf("explored %d designs of %s on %s in %v (model work %v, sim work %v)\n",
		len(r.Points), k.ID(), p.Name, r.WallTime.Round(time.Millisecond),
		r.ModelTime.Round(time.Millisecond), r.SimTime.Round(time.Millisecond))

	t := report.New("Best designs by FlexCL estimate",
		"Design", "FlexCL cycles", "Simulated cycles", "Err(%)")
	best := append([]dse.Point{}, r.Points...)
	sort.SliceStable(best, func(i, j int) bool { return best[i].Est < best[j].Est })
	n := *top
	if n > len(best) {
		n = len(best)
	}
	for _, pt := range best[:n] {
		actual, errPct := "-", "-"
		if pt.Actual > 0 {
			actual = fmt.Sprintf("%.0f", pt.Actual)
			errPct = fmt.Sprintf("%.1f", abs(pt.Est-pt.Actual)/pt.Actual*100)
		}
		t.Add(pt.Design.String(), fmt.Sprintf("%.0f", pt.Est), actual, errPct)
	}
	t.Write(os.Stdout)

	if *sim {
		fe, _ := r.AvgErrors()
		gapStr, spStr := "n/a", "n/a"
		if gap, ok := r.GapToOptimum(); ok {
			gapStr = fmt.Sprintf("%.1f%%", gap)
		}
		if sp, ok := r.SpeedupOverBaseline(); ok {
			spStr = fmt.Sprintf("%.0fx", sp)
		}
		fmt.Printf("\navg |error| %.1f%%  selected-design gap to optimum %s  speedup over unoptimized %s\n",
			fe, gapStr, spStr)
	}
	finishTrace(tr, root)
}

// prepCache builds the run's shared prep cache, disk-backed when an
// artifact directory was given.
func prepCache(dir string) (*dse.PrepCache, error) {
	if dir == "" {
		return dse.NewPrepCache(), nil
	}
	store, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	return dse.NewPrepCacheOpts(dse.PrepCacheOptions{Store: store}), nil
}

// finishTrace ends a -trace run's root span and prints the stage table.
// A nil root (no -trace) is a no-op.
func finishTrace(tr *telemetry.Tracer, root *telemetry.Span) {
	if root == nil {
		return
	}
	root.End()
	if v, ok := tr.Get("cli"); ok {
		fmt.Println()
		v.WriteTable(os.Stdout)
	}
}

// runGuided runs the branch-and-bound search and prints the evaluated
// points (and, for pareto, the frontier).
func runGuided(ctx context.Context, k *bench.Kernel, p *core.Platform, strategy string, workers, top int, cache *dse.PrepCache) {
	sr, err := core.Search(ctx, k, core.SearchOptions{
		Platform: p,
		Workers:  workers,
		Pareto:   strategy == dse.StrategyPareto,
		Cache:    cache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexcl-dse:", err)
		os.Exit(1)
	}
	fmt.Printf("%s search of %s on %s: evaluated %d of %d designs (pruned %d, %.1f%%) in %v (model work %v)\n",
		strategy, k.ID(), p.Name, sr.Evaluated, sr.Space, sr.Pruned,
		float64(sr.Pruned)/float64(maxInt(sr.Space, 1))*100,
		sr.WallTime.Round(time.Millisecond), sr.ModelTime.Round(time.Millisecond))
	if sr.BestOK {
		fmt.Printf("best design %s  %.0f cycles (identical to exhaustive exploration)\n",
			sr.Best.Design, sr.Best.Est)
	}

	t := report.New("Evaluated designs by FlexCL estimate", "Design", "FlexCL cycles")
	pts := append([]dse.Point{}, sr.Points...)
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Est < pts[j].Est })
	if top > len(pts) {
		top = len(pts)
	}
	for _, pt := range pts[:top] {
		t.Add(pt.Design.String(), fmt.Sprintf("%.0f", pt.Est))
	}
	t.Write(os.Stdout)

	if strategy == dse.StrategyPareto {
		ft := report.New("Pareto frontier (cycles vs PE·CU resource)",
			"PE·CU", "Design", "FlexCL cycles")
		for _, pt := range sr.Frontier {
			ft.Add(dse.Resource(pt.Design), pt.Design.String(), fmt.Sprintf("%.0f", pt.Est))
		}
		ft.Write(os.Stdout)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
