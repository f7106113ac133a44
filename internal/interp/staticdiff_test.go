// Corpus-wide differential harness: for every bundled and generated
// kernel whose profile the static analyzer claims, the static profile
// must be field-for-field identical to the sequential reference
// interpreter's. The package is interp_test (not interp) because the
// corpus lives in bench, which imports interp.
package interp_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/opencl/ast"
)

func corpus() []*bench.Kernel {
	return append(bench.All(), bench.GeneratedCorpus()...)
}

func TestStaticVsInterpCorpus(t *testing.T) {
	const groups = 8
	kernels := corpus()
	for _, k := range kernels {
		k := k
		t.Run(k.Bench+"_"+k.Name, func(t *testing.T) {
			t.Parallel()
			wg := k.MinWG
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if ok, _ := interp.StaticAnalyzable(f); !ok {
				return // fallback kernels are covered by the interp tests
			}
			for _, spread := range []bool{false, true} {
				sp, sok, err := interp.StaticProfile(f, k.Config(wg), groups, spread)
				if !sok {
					t.Fatal("StaticAnalyzable true but StaticProfile declined")
				}
				if err != nil {
					t.Fatalf("static profile (spread=%v): %v", spread, err)
				}
				// Fresh Config: the interpreter mutates buffers.
				ip, err := interp.InterpProfile(f, k.Config(wg), groups, spread)
				if err != nil {
					t.Fatalf("interp profile (spread=%v): %v", spread, err)
				}
				if d := sp.Diff(ip); d != "" {
					t.Fatalf("static != interp (spread=%v): %s", spread, d)
				}
			}
		})
	}
}

// TestStaticVsInterpAllKeys extends TestStaticVsInterpCorpus from
// MinWG to every work-group size of the sweep, i.e. every prep key the
// model can request, in both sampling modes.
func TestStaticVsInterpAllKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("every prep key of the corpus: skipped under -short")
	}
	const groups = 8
	for _, k := range corpus() {
		k := k
		t.Run(k.Bench+"_"+k.Name, func(t *testing.T) {
			t.Parallel()
			for _, wg := range k.WGSizes() {
				f, err := k.Compile(wg)
				if err != nil {
					t.Fatalf("wg=%d: compile: %v", wg, err)
				}
				if ok, _ := interp.StaticAnalyzable(f); !ok {
					continue
				}
				for _, spread := range []bool{false, true} {
					sp, _, err := interp.StaticProfile(f, k.Config(wg), groups, spread)
					if err != nil {
						t.Fatalf("wg=%d spread=%v: static profile: %v", wg, spread, err)
					}
					ip, err := interp.InterpProfile(f, k.Config(wg), groups, spread)
					if err != nil {
						t.Fatalf("wg=%d spread=%v: interp profile: %v", wg, spread, err)
					}
					if d := sp.Diff(ip); d != "" {
						t.Fatalf("wg=%d spread=%v: static != interp: %s", wg, spread, d)
					}
				}
			}
		})
	}
}

// TestDispatcherSourceAllKeys pins the dispatcher itself at every prep
// key in both sampling modes: ProfileKernel takes the static path
// exactly when the kernel is statically analyzable. The equality tests
// above would all still pass if static kernels were silently routed
// to the interpreter.
func TestDispatcherSourceAllKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("every prep key of the corpus: skipped under -short")
	}
	const groups = 8
	for _, k := range corpus() {
		k := k
		t.Run(k.Bench+"_"+k.Name, func(t *testing.T) {
			t.Parallel()
			for _, wg := range k.WGSizes() {
				f, err := k.Compile(wg)
				if err != nil {
					t.Fatalf("wg=%d: compile: %v", wg, err)
				}
				want := interp.SourceInterp
				if ok, _ := interp.StaticAnalyzable(f); ok {
					want = interp.SourceStatic
				}
				for _, spread := range []bool{false, true} {
					profile := interp.ProfileKernel
					if spread {
						profile = interp.ProfileKernelSpread
					}
					prof, err := profile(f, k.Config(wg), groups)
					if err != nil {
						t.Fatalf("wg=%d spread=%v: %v", wg, spread, err)
					}
					if prof.Source != want {
						t.Fatalf("wg=%d spread=%v: source = %q, want %q", wg, spread, prof.Source, want)
					}
				}
			}
		})
	}
}

// hazardKernels are small kernels on which a naive static executor
// diverges from the interpreter. Most sit next to a peephole: each
// forwards, drops or aliases something beside a hazard that makes the
// naive rewrite wrong. The last faults in several work-items at
// different barrier phases. They also seed FuzzAffineAnalyzer.
var hazardKernels = []struct {
	name, src, wantErr string
}{
	{name: "load-after-store", src: `__kernel void k(__global int* x) {
    int a = get_global_id(0);
    int b = a;
    a = a + 3;
    x[a] = b;
    x[b] = a;
}`},
	{name: "dynamic-store-between-loads", src: `__kernel void k(__global int* x) {
    int g = get_global_id(0);
    int p[4];
    p[0] = g; p[1] = 2; p[2] = 3; p[3] = 4;
    int u = p[1];
    p[g % 4] = 7;
    int v = p[1];
    x[u + v] = 1;
}`},
	{name: "cell-across-blocks", src: `__kernel void k(__global int* x, int n) {
    int g = get_global_id(0);
    int s = g * 2;
    for (int i = 0; i < 3; i++) {
        x[s] = i;
        s = s + 1;
    }
    x[s] = n;
}`},
	{name: "post-increment", src: `__kernel void k(__global int* x) {
    int i = get_global_id(0);
    int y = i++;
    x[y] = 1;
    x[i] = 2;
}`},
	{name: "const-index-out-of-range", wantErr: "load out of bounds: p.0[5] (len 4)", src: `__kernel void k(__global int* x) {
    int p[4];
    p[1] = get_global_id(0);
    x[p[5]] = 1;
}`},
	{name: "untracked-store-out-of-range", wantErr: "store out of bounds: q.0[3] (len 2)", src: `__kernel void k(__global int* x) {
    int q[2];
    q[3] = 1;
    x[get_global_id(0)] = 1;
}`},
	{name: "dead-dynamic-load-out-of-range", wantErr: "load out of bounds: q.0[4] (len 4)", src: `__kernel void k(__global int* x) {
    int q[4];
    int g = get_global_id(0);
    int z = q[g];
    x[g] = z;
}`},
	// Odd work-items fault at l*k >= 36: l = 7 first in dispatch order
	// (k = 6), but l = 13 and 15 fault three barriers earlier (k = 3),
	// and the interpreter's lockstep group aborts before l = 7 gets there.
	{name: "fault-in-earliest-barrier-phase", wantErr: "load out of bounds: p.0[39] (len 36)", src: `__kernel void k(__global int* x) {
    int p[36];
    int l = get_local_id(0);
    for (int k = 0; k < 8; k++) {
        if (l & 1) { x[p[l * k]] = 1; }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
}`},
}

// requireStaticEqualsInterp profiles f on both paths (interpreter with
// one worker) and requires equal profiles, or equal errors containing
// wantErr when it is set.
func requireStaticEqualsInterp(t *testing.T, f *ir.Func, wantErr string) {
	t.Helper()
	if ok, reason := interp.StaticAnalyzable(f); !ok {
		t.Fatalf("not statically analyzable: %s", reason)
	}
	for _, spread := range []bool{false, true} {
		sp, _, serr := interp.StaticProfile(f, fuzzConfig(f), 2, spread)
		ip, ierr := interp.InterpProfile(f, fuzzConfig(f), 2, spread)
		switch {
		case wantErr != "":
			if serr == nil || ierr == nil || serr.Error() != ierr.Error() || !strings.Contains(serr.Error(), wantErr) {
				t.Fatalf("spread=%v: want both paths to fail with %q: static %v, interp %v", spread, wantErr, serr, ierr)
			}
		case serr != nil || ierr != nil:
			t.Fatalf("spread=%v: static %v, interp %v", spread, serr, ierr)
		default:
			if d := sp.Diff(ip); d != "" {
				t.Fatalf("spread=%v: static != interp: %s", spread, d)
			}
		}
	}
}

func TestStaticPeepholeHazards(t *testing.T) {
	for _, h := range hazardKernels {
		t.Run(h.name, func(t *testing.T) {
			m, err := irgen.Compile(h.name+".cl", []byte(h.src), map[string]string{"WG": "16"})
			if err != nil {
				t.Fatal(err)
			}
			requireStaticEqualsInterp(t, m.Kernels[0], h.wantErr)
		})
	}
}

// TestDivergentBarrierLoop pins the interpreter's barrier on a loop
// whose trip count depends on the local id: work-items that return
// leave the barrier, so the rest no longer wait for them forever, and
// the profile equals the static executor's per-work-item counts.
func TestDivergentBarrierLoop(t *testing.T) {
	src := `__kernel void k(__global float* x) {
    __local float ps[16];
    int l = get_local_id(0);
    ps[l] = x[get_global_id(0)];
    for (int s = l / 2; s > 0; s = s / 2) {
        ps[l] += 1.0f;
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    x[get_global_id(0)] = ps[l];
}`
	m, err := irgen.Compile("divergent.cl", []byte(src), map[string]string{"WG": "16"})
	if err != nil {
		t.Fatal(err)
	}
	requireStaticEqualsInterp(t, m.Kernels[0], "")
}

// irKernel builds a hand-written kernel k(__global int* x) for IR
// shapes the frontend never emits (its locals live in cells, so no
// value crosses a block boundary in an SSA register).
type irKernel struct {
	f *ir.Func
	x *ir.Param
}

func newIRKernel() *irKernel {
	f := ir.NewFunc("k", true)
	x := &ir.Param{PName: "x", T: ast.Type{Base: ast.KInt, Vec: 1, Ptr: true, Space: ast.ASGlobal}}
	f.Params = []*ir.Param{x}
	return &irKernel{f: f, x: x}
}

func (k *irKernel) cell(name string) *ir.Alloca {
	a := &ir.Alloca{AName: name, Elem: ast.Scalar(ast.KLong), Count: 1, AS: ast.ASPrivate, Idx: len(k.f.Allocas)}
	k.f.Allocas = append(k.f.Allocas, a)
	return a
}

func (k *irKernel) emit(b *ir.Block, op ir.Op, mem ir.Storage, args ...ir.Value) *ir.Instr {
	t := ast.Scalar(ast.KLong)
	if op == ir.OpStore || op.IsTerminator() {
		t = ast.Scalar(ast.KVoid)
	}
	in := k.f.NewInstr(op, t)
	in.Args, in.Mem = args, mem
	return k.f.Append(b, in)
}

// TestStaticStoreOfNonLocalValue covers stores whose value is not
// defined earlier in the storing block, which the forwarding peephole
// must not forward from.
func TestStaticStoreOfNonLocalValue(t *testing.T) {
	zero, one := ir.IntConst(ast.KLong, 0), ir.IntConst(ast.KLong, 1)

	t.Run("defined-in-another-block", func(t *testing.T) {
		// entry: t = gid + 1; body: c = t; x[c] = 1.
		k := newIRKernel()
		c := k.cell("c")
		entry, body := k.f.NewBlock("entry"), k.f.NewBlock("body")
		gid := k.emit(entry, ir.OpWorkItem, nil)
		gid.Fn = "get_global_id"
		tv := k.emit(entry, ir.OpAdd, nil, gid, one)
		k.emit(entry, ir.OpBr, nil).To = body
		k.emit(body, ir.OpStore, c, zero, tv)
		l := k.emit(body, ir.OpLoad, c, zero)
		k.emit(body, ir.OpStore, k.x, l, one)
		k.emit(body, ir.OpRet, nil)
		requireStaticEqualsInterp(t, k.f, "")
	})

	t.Run("defined-later-in-the-block", func(t *testing.T) {
		// A loop block that stores w before recomputing it: each trip
		// stores the previous trip's w (zero on the first), so the
		// reload must not alias w's slot, which the block rewrites
		// before x[l] reads it.
		//   loop: n0 = n; c = w; l = c; w = n0 + 1; x[l] = 1; n = w;
		//         if (w < 3) goto loop
		k := newIRKernel()
		c, n := k.cell("c"), k.cell("n")
		entry, loop, exit := k.f.NewBlock("entry"), k.f.NewBlock("loop"), k.f.NewBlock("exit")
		k.emit(entry, ir.OpStore, n, zero, zero)
		k.emit(entry, ir.OpBr, nil).To = loop
		n0 := k.emit(loop, ir.OpLoad, n, zero)
		w := k.f.NewInstr(ir.OpAdd, ast.Scalar(ast.KLong))
		w.Args = []ir.Value{n0, one}
		k.emit(loop, ir.OpStore, c, zero, w)
		l := k.emit(loop, ir.OpLoad, c, zero)
		k.f.Append(loop, w)
		k.emit(loop, ir.OpStore, k.x, l, one)
		k.emit(loop, ir.OpStore, n, zero, w)
		lt := k.emit(loop, ir.OpICmp, nil, w, ir.IntConst(ast.KLong, 3))
		lt.Pr = ir.PredLT
		br := k.emit(loop, ir.OpCondBr, nil, lt)
		br.To, br.Else = loop, exit
		k.emit(exit, ir.OpRet, nil)
		requireStaticEqualsInterp(t, k.f, "")
	})
}

// TestStaticCastOfNonPlainScalar pins the plain-integer guard on cast
// aliasing: castVal rebuilds IntVal(v.I), so an int argument bound as
// Val{F: 0.5} reads false as (long)n but true uncast. Aliasing the cast
// to n, directly or through a private cell, would flip the branch.
func TestStaticCastOfNonPlainScalar(t *testing.T) {
	for _, viaCell := range []bool{false, true} {
		k := newIRKernel()
		n := &ir.Param{PName: "n", T: ast.Scalar(ast.KInt), Index: 1}
		k.f.Params = append(k.f.Params, n)
		entry, then, exit := k.f.NewBlock("entry"), k.f.NewBlock("then"), k.f.NewBlock("exit")
		var v ir.Value = n
		if viaCell {
			c := k.cell("c")
			k.emit(entry, ir.OpStore, c, ir.IntConst(ast.KLong, 0), n)
			v = k.emit(entry, ir.OpLoad, c, ir.IntConst(ast.KLong, 0))
		}
		y := k.emit(entry, ir.OpCast, nil, v)
		br := k.emit(entry, ir.OpCondBr, nil, y)
		br.To, br.Else = then, exit
		k.emit(then, ir.OpStore, k.x, ir.IntConst(ast.KLong, 0), ir.IntConst(ast.KInt, 1))
		k.emit(then, ir.OpBr, nil).To = exit
		k.emit(exit, ir.OpRet, nil)

		cfg := func() *interp.Config {
			c := fuzzConfig(k.f)
			c.Scalars["n"] = interp.Val{F: 0.5}
			return c
		}
		sp, ok, err := interp.StaticProfile(k.f, cfg(), 2, false)
		if !ok || err != nil {
			t.Fatalf("viaCell=%v: static profile: ok=%v err=%v", viaCell, ok, err)
		}
		ip, err := interp.InterpProfile(k.f, cfg(), 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := sp.Diff(ip); d != "" {
			t.Errorf("viaCell=%v: static != interp: %s", viaCell, d)
		}
	}
}

// TestStaticVectorValuedScalar pins the lane file of the split register
// file and private cells: a scalar argument bound to a vector Val has
// I == F == 0 but is truthy through its lanes, so a branch on it —
// directly, or reloaded from a private cell in a later block — must
// still be taken, as the interpreter takes it.
func TestStaticVectorValuedScalar(t *testing.T) {
	for _, viaCell := range []bool{false, true} {
		k := newIRKernel()
		n := &ir.Param{PName: "n", T: ast.Scalar(ast.KInt), Index: 1}
		k.f.Params = append(k.f.Params, n)
		entry, test, then, exit := k.f.NewBlock("entry"), k.f.NewBlock("test"), k.f.NewBlock("then"), k.f.NewBlock("exit")
		var v ir.Value = n
		if viaCell {
			c := k.cell("c")
			k.emit(entry, ir.OpStore, c, ir.IntConst(ast.KLong, 0), n)
			v = k.emit(test, ir.OpLoad, c, ir.IntConst(ast.KLong, 0))
		}
		k.emit(entry, ir.OpBr, nil).To = test
		br := k.emit(test, ir.OpCondBr, nil, v)
		br.To, br.Else = then, exit
		k.emit(then, ir.OpStore, k.x, ir.IntConst(ast.KLong, 0), ir.IntConst(ast.KInt, 1))
		k.emit(then, ir.OpBr, nil).To = exit
		k.emit(exit, ir.OpRet, nil)

		cfg := func() *interp.Config {
			c := fuzzConfig(k.f)
			c.Scalars["n"] = interp.Val{Vec: []interp.Val{{}, {I: 5}}}
			return c
		}
		sp, ok, err := interp.StaticProfile(k.f, cfg(), 2, false)
		if !ok || err != nil {
			t.Fatalf("viaCell=%v: static profile: ok=%v err=%v", viaCell, ok, err)
		}
		ip, err := interp.InterpProfile(k.f, cfg(), 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(ip.Traces) == 0 || len(ip.Traces[0]) != 1 {
			t.Fatalf("viaCell=%v: the interpreter did not take the branch: %v", viaCell, ip.Traces)
		}
		if d := sp.Diff(ip); d != "" {
			t.Errorf("viaCell=%v: static != interp: %s", viaCell, d)
		}
	}
}

// TestCovarianceInnerBodySteps pins the peepholes on the heaviest static
// prep key: covariance's inner loop body runs 20 steps per iteration
// without them (repeated private-cell loads, a dead accumulator load
// and store, int→long index casts) and at most 11 with them.
func TestCovarianceInnerBodySteps(t *testing.T) {
	k := bench.FindID("covariance/covar")
	f, err := k.Compile(k.MinWG)
	if err != nil {
		t.Fatal(err)
	}
	steps := interp.PlanStepsForTest(f, k.Config(k.MinWG))
	if steps == nil {
		t.Fatal("covariance is not statically analyzable")
	}
	// The inner body is the for.body block with the most instructions.
	var inner *ir.Block
	for _, b := range f.Blocks {
		if b.BName == "for.body" && (inner == nil || len(b.Instrs) > len(inner.Instrs)) {
			inner = b
		}
	}
	if inner == nil || len(inner.Instrs) < 20 {
		t.Fatalf("inner for.body not found")
	}
	if n := steps[inner.Label()]; n > 11 {
		t.Errorf("%s compiles to %d steps, want <= 11", inner.Label(), n)
	}
}

// TestStaticCoverageFloor pins the headline analyzability claim: at
// least 40% of the PolyBench suite takes the static path.
func TestStaticCoverageFloor(t *testing.T) {
	var ok40, total int
	for _, k := range bench.Suite("polybench") {
		f, err := k.Compile(k.MinWG)
		if err != nil {
			t.Fatalf("%s: %v", k.ID(), err)
		}
		total++
		if ok, _ := interp.StaticAnalyzable(f); ok {
			ok40++
		}
	}
	if total == 0 {
		t.Fatal("no polybench kernels")
	}
	if frac := float64(ok40) / float64(total); frac < 0.40 {
		t.Errorf("polybench static coverage = %d/%d (%.0f%%), want >= 40%%", ok40, total, 100*frac)
	} else {
		t.Logf("polybench static coverage: %d/%d (%.0f%%)", ok40, total, 100*frac)
	}
}

// TestDispatcherRecordsSource pins that ProfileKernel actually routes
// analyzable kernels through the fast path (Source tells which).
func TestDispatcherRecordsSource(t *testing.T) {
	va, err := bench.Generate(bench.GenSpec{Family: "vecadd", N: 256})
	if err != nil {
		t.Fatal(err)
	}
	f, err := va.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := interp.ProfileKernel(f, va.Config(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Source != interp.SourceStatic {
		t.Errorf("vecadd profile source = %q, want %q", prof.Source, interp.SourceStatic)
	}

	dd, err := bench.Generate(bench.GenSpec{Family: "datadep", N: 256})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := dd.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	prof, err = interp.ProfileKernel(fd, dd.Config(64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Source == interp.SourceStatic {
		t.Error("datadep must not take the static path")
	}
}

var updateLoops = flag.Bool("update", false, "rewrite testdata/summarized_loops.txt from the current executor")

// summarizedRequired are the kernels whose inner loops must run in
// closed form at every prep key.
var summarizedRequired = []string{
	"gemm/gemm", "2mm/mm2", "3mm/mm3", "syrk/syrk", "syr2k/syr2k",
	"covariance/covar", "correlation/corr", "lavaMD/lavaMD",
	"backprop/layer", "particlefilter/likelihood",
}

// TestSummarizedLoopsAllKeys pins, beside TestDispatcherSourceAllKeys,
// which loops the static executor summarizes at run time at every prep
// key: the header label of each loop whose summary ran in closed form
// at least once, in testdata/summarized_loops.txt. The equality tests
// would all still pass if a change silently stopped summarizing; this
// one fails instead. Regenerate an intended change with
//
//	go test -run TestSummarizedLoopsAllKeys -update ./internal/interp
func TestSummarizedLoopsAllKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("every prep key of the corpus: skipped under -short")
	}
	const groups = 8
	var sb strings.Builder
	got := make(map[string][]string) // kernel ID → one entry per key
	for _, k := range corpus() {
		for _, wg := range k.WGSizes() {
			f, err := k.Compile(wg)
			if err != nil {
				t.Fatalf("%s wg=%d: compile: %v", k.ID(), wg, err)
			}
			hits, err := interp.SummarizedLoopsForTest(f, k.Config(wg), groups)
			if err != nil {
				t.Fatalf("%s wg=%d: %v", k.ID(), wg, err)
			}
			var fired []string
			for label, n := range hits {
				if n > 0 {
					fired = append(fired, label)
				}
			}
			sort.Strings(fired)
			line := strings.Join(fired, " ")
			if line == "" {
				line = "-"
			}
			got[k.ID()] = append(got[k.ID()], line)
			fmt.Fprintf(&sb, "%s wg=%d: %s\n", k.ID(), wg, line)
		}
	}
	for _, id := range summarizedRequired {
		lines, ok := got[id]
		if !ok {
			t.Errorf("%s: not in the corpus", id)
		}
		for i, line := range lines {
			if line == "-" {
				t.Errorf("%s: key %d summarizes no loop", id, i)
			}
		}
	}
	const path = "testdata/summarized_loops.txt"
	if *updateLoops {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\nregenerate with `go test -run TestSummarizedLoopsAllKeys -update ./internal/interp`", err)
	}
	if d := firstLineDiff(string(want), sb.String()); d != "" {
		t.Fatalf("summarized loops changed: %s\nIf intended, regenerate with `go test -run TestSummarizedLoopsAllKeys -update ./internal/interp`.", d)
	}
}

// firstLineDiff describes the first line where want and got differ.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, a, b)
		}
	}
	return ""
}
