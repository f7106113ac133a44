package api

import (
	"net/http"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/opencl/ast"
)

// InlineBench is the bench name synthesized inline kernels carry; their
// id renders as "inline/<fn>".
const InlineBench = "inline"

// Inline launch caps. Synthesized buffers are allocated and filled
// element by element on every compile, so an unbounded global or
// buf_lens would let one request exhaust memory. The largest bundled
// launch is 2^18 work-items.
const (
	maxInlineWorkItems = 1 << 24 // product of the global dimensions
	maxInlineBufElems  = 1 << 24 // elements of one buffer, and of all together
)

// inlineKernel builds a bench.Kernel from an inline source reference:
// the source is compiled once (at the smallest swept work-group size)
// to validate it and enumerate its parameters, global pointer arguments
// get deterministic synthesized buffers, and scalar arguments must all
// be bound via ref.Scalars. The resulting kernel's CacheKey depends
// only on source + workload, so two requests carrying the same inline
// kernel coalesce onto one compile+analyze in the prep cache.
func inlineKernel(ref KernelRef) (*bench.Kernel, *Error) {
	if ref.Fn == "" {
		return nil, Errf(CodeBadRequest, http.StatusBadRequest,
			"inline kernel requires fn (the __kernel entry point)")
	}
	if len(ref.Global) == 0 || len(ref.Global) > 3 {
		return nil, Errf(CodeBadRequest, http.StatusBadRequest,
			"inline kernel requires global: 1-3 positive NDRange dimensions")
	}
	var global [3]int64
	for i := range global {
		global[i] = 1
	}
	nwi := int64(1)
	for i, g := range ref.Global {
		if g <= 0 {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"inline kernel global[%d] = %d must be positive", i, g)
		}
		// nwi·g ≤ cap ⟺ g ≤ ⌊cap/nwi⌋, so the product never overflows.
		if g > maxInlineWorkItems/nwi {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"inline kernel global: more than %d work-items", maxInlineWorkItems)
		}
		nwi *= g
		global[i] = g
	}

	k := &bench.Kernel{
		Suite:   "inline",
		Bench:   InlineBench,
		Name:    ref.Fn,
		Fn:      ref.Fn,
		Source:  ref.Source,
		Defines: ref.Defines,
		Global:  global,
		TwoD:    ref.TwoD,
		Scalars: ref.Scalars,
	}

	// Work-group sweep: default 16..256, clamped so every swept size
	// divides the leading global dimension (the interp lays 1-D groups
	// out along it) and never exceeds the total work-items.
	k.MinWG, k.MaxWG = ref.MinWG, ref.MaxWG
	if k.MinWG <= 0 {
		k.MinWG = 16
	}
	if k.MaxWG <= 0 {
		k.MaxWG = 256
	}
	for k.MaxWG > k.MinWG && (global[0]%k.MaxWG != 0 || k.MaxWG > k.NWI()) {
		k.MaxWG /= 2
	}
	if global[0]%k.MinWG != 0 {
		return nil, Errf(CodeBadRequest, http.StatusBadRequest,
			"inline kernel global[0] = %d is not divisible by the minimum work-group size %d (adjust global or min_wg)",
			global[0], k.MinWG)
	}

	// One validation compile enumerates the parameters; the serving
	// caches redo it per swept WG size under their own keys.
	f, err := k.Compile(k.MinWG)
	if err != nil {
		return nil, Errf(CodeBadRequest, http.StatusBadRequest,
			"inline kernel does not compile: %v", err)
	}

	var missing []string
	var total int64
	for _, prm := range f.Params {
		t := prm.T
		if !t.Ptr {
			if _, ok := ref.Scalars[prm.PName]; !ok {
				missing = append(missing, prm.PName)
			}
			continue
		}
		if t.Space != ast.ASGlobal {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"inline kernel parameter %q: only __global pointer arguments are supported", prm.PName)
		}
		if t.Vec > 1 {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"inline kernel parameter %q: vector-element buffers are not supported", prm.PName)
		}
		n := ref.BufLens[prm.PName]
		if n > maxInlineBufElems {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"inline kernel buf_lens[%q] = %d exceeds %d elements", prm.PName, n, maxInlineBufElems)
		}
		if n <= 0 {
			n = k.NWI()
		}
		if total += n; total > maxInlineBufElems {
			return nil, Errf(CodeBadRequest, http.StatusBadRequest,
				"inline kernel buf_lens: synthesized buffers exceed %d elements in total", maxInlineBufElems)
		}
		b := bench.Buf{Name: prm.PName, Kind: t.Base, Len: n}
		if t.Base.IsFloat() {
			b.Float = true
			b.Fill = bench.FillNoise
		} else {
			// Index-like ramp kept in range so inline kernels that use an
			// int buffer for gathers stay within their own buffers.
			b.Fill = bench.FillRamp
			b.Mod = n
		}
		k.Bufs = append(k.Bufs, b)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, Errf(CodeBadRequest, http.StatusBadRequest,
			"inline kernel scalar argument(s) unset: %s (bind them in scalars)",
			strings.Join(missing, ", "))
	}
	return k, nil
}
