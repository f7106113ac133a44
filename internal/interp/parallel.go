package interp

import (
	"sync"

	"repro/internal/ir"
)

// groupIndependent reports whether a kernel's profiled behavior cannot
// depend on the execution order of its work-groups: no global buffer is
// both read and written by the kernel (an atomic is both at once), so
// no group can observe another group's writes. Only such kernels may be
// profiled with work-groups running in parallel — for the rest, the
// sequential dispatch order is part of the semantics the profile must
// reproduce.
func groupIndependent(f *ir.Func) bool {
	loaded := make(map[ir.Storage]bool)
	written := make(map[ir.Storage]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			p, isParam := in.Mem.(*ir.Param)
			if !isParam {
				continue // allocas are group- or work-item-private
			}
			switch in.Op {
			case ir.OpLoad:
				loaded[p] = true
			case ir.OpStore:
				written[p] = true
			case ir.OpAtomic:
				// Atomics additionally need launch-wide mutual exclusion,
				// which the per-group execution below does not provide.
				return false
			}
		}
	}
	for p := range written {
		if loaded[p] {
			return false
		}
	}
	return true
}

// executeParallel profiles the sampled work-groups on parallel workers.
// Each group runs into a private partial profile; partials are merged
// in dispatch order, so the result is bitwise identical to sequential
// execution at any worker count (per-block counts are integer-valued
// float sums, exact under any grouping below 2^53). ok is false when
// the launch has too few sampled groups to be worth fanning out;
// callers then fall back to the sequential path.
func executeParallel(f *ir.Func, cfg *Config, sample groupSample, workers int) (*Profile, bool, error) {
	nd := cfg.Range.Normalize()
	groups := nd.NumGroups()
	if nd.WorkGroupSize() <= 0 {
		return nil, false, nil // sequential path reports the error
	}

	// Enumerate the selected groups in dispatch order.
	var sels [][3]int64
	gid := int64(0)
loop:
	for gz := int64(0); gz < groups[2]; gz++ {
		for gy := int64(0); gy < groups[1]; gy++ {
			for gx := int64(0); gx < groups[0]; gx++ {
				if sample.last >= 0 && gid > sample.last {
					break loop
				}
				if sample.sel(gid) {
					sels = append(sels, [3]int64{gx, gy, gz})
				}
				gid++
			}
		}
	}
	if len(sels) < 2 {
		return nil, false, nil
	}
	if workers > len(sels) {
		workers = len(sels)
	}

	if err := validateArgs(f, cfg); err != nil {
		return nil, true, err
	}

	// Locals are per group and buffer cells are accessed with
	// per-element atomics (see readBuf), so concurrent groups are
	// race-free; group independence guarantees no group's profile can
	// observe another's buffer writes.
	partials := make([]*Profile, len(sels))
	errs := make([]error, len(sels))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := &Profile{BlockCounts: make(map[*ir.Block]float64)}
				var mu sync.Mutex
				errs[i] = runGroup(f, cfg, nd, sels[i], true, p, &mu)
				partials[i] = p
			}
		}()
	}
	for i := range sels {
		next <- i
	}
	close(next)
	wg.Wait()

	// Merge in dispatch order, stopping at the first failed group with
	// the partial profile of the groups before it — exactly what the
	// sequential path returns.
	prof := &Profile{BlockCounts: make(map[*ir.Block]float64), Params: f.Params}
	for i := range sels {
		if errs[i] != nil {
			return prof, true, errs[i]
		}
		p := partials[i]
		prof.WorkItems += p.WorkItems
		for b, c := range p.BlockCounts {
			prof.BlockCounts[b] += c
		}
		prof.Barriers += p.Barriers
		prof.Traces = append(prof.Traces, p.Traces...)
	}
	finalizeProfile(prof)
	return prof, true, nil
}
