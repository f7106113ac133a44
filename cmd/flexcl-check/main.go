// Command flexcl-check audits the FlexCL reproduction for correctness
// drift: it runs the cross-layer check families of internal/check —
// model invariants over the benchmark corpus, differential checks
// against the cycle-level simulator, HTTP-service consistency, the
// guided-search equivalence proof (branch-and-bound vs exhaustive), and
// the static-profiler equivalence proof (static slice executor vs
// interpreter, bitwise) — and exits non-zero when any non-allowlisted
// finding survives.
//
// Usage:
//
//	flexcl-check                 # full corpus, all families
//	flexcl-check -smoke          # CI subset, time-boxed
//	flexcl-check -families invariant,differential
//	flexcl-check -families search
//	flexcl-check -families profile
//	flexcl-check -bench srad -kernel srad
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/dse"
)

func main() {
	var (
		platform    = flag.String("platform", "virtex7", "virtex7 or ku060")
		families    = flag.String("families", "", "comma-separated check families (invariant,differential,serve,search,profile); empty = all")
		benchName   = flag.String("bench", "", "restrict to one benchmark (with -kernel)")
		kernel      = flag.String("kernel", "", "restrict to one kernel (with -bench)")
		smoke       = flag.Bool("smoke", false, "CI smoke mode: deterministic kernel subset, one WG size each")
		workers     = flag.Int("workers", 0, "kernel-level worker goroutines (0 = 4)")
		simGroups   = flag.Int("sim-groups", 0, "work-groups simulated per differential point (0 = 4)")
		band        = flag.Float64("band", 0, "differential error band in percent (0 = default)")
		timeout     = flag.Duration("timeout", 30*time.Minute, "overall deadline")
		verbose     = flag.Bool("v", false, "per-kernel progress on stderr")
		artifactDir = flag.String("artifact-dir", "", "persist compile+analyze results to this directory and reuse them across audits (empty = memory only)")
	)
	flag.Parse()

	p, ok := device.Platforms()[*platform]
	if !ok {
		fmt.Fprintf(os.Stderr, "flexcl-check: unknown platform %q\n", *platform)
		os.Exit(1)
	}

	opts := check.Options{
		Platform:     p,
		Smoke:        *smoke,
		Workers:      *workers,
		SimMaxGroups: *simGroups,
		ErrorBandPct: *band,
	}
	if *artifactDir != "" {
		store, err := artifact.Open(*artifactDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flexcl-check: %v\n", err)
			os.Exit(1)
		}
		opts.Cache = dse.NewPrepCacheOpts(dse.PrepCacheOptions{Store: store})
	}
	if *families != "" {
		for _, f := range strings.Split(*families, ",") {
			if f = strings.TrimSpace(f); f != "" {
				opts.Families = append(opts.Families, f)
			}
		}
	}
	if *benchName != "" || *kernel != "" {
		k := bench.Find(*benchName, *kernel)
		if k == nil {
			fmt.Fprintf(os.Stderr, "flexcl-check: kernel %s/%s not found\n", *benchName, *kernel)
			os.Exit(1)
		}
		opts.Kernels = []*bench.Kernel{k}
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "flexcl-check: "+format+"\n", args...)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	rep, err := check.Run(ctx, opts)
	if opts.Cache != nil {
		// Artifact writes trail the fills; let them land so the next
		// audit against this directory starts warm.
		opts.Cache.Flush()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexcl-check: %v\n", err)
		os.Exit(1)
	}

	violations := rep.Violations()
	allowed := rep.Allowed()
	if len(rep.Findings) > 0 {
		rep.Table().Write(os.Stdout)
		fmt.Println()
	}
	fmt.Printf("flexcl-check: %d checks over %d kernels in %v — %d violations, %d allowed, %d attributed scaling pairs\n",
		rep.Checks, rep.Kernels, rep.Duration.Round(time.Millisecond),
		len(violations), len(allowed), rep.Attributed)
	if len(violations) > 0 {
		os.Exit(1)
	}
}
