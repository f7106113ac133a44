package interp_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestProfilingRetainsNoFunc: profiling keeps no reference to the
// profiled function once it returns. Every cold prep compiles a fresh
// function, so anything the profiler retained per function (a memo of
// its static plan, say) would grow the server's heap with every key it
// ever served. Covers both profiling paths: gemm runs on the static
// executor, bfs on the interpreter.
func TestProfilingRetainsNoFunc(t *testing.T) {
	for _, tc := range []struct{ bench, name string }{{"gemm", "gemm"}, {"bfs", "bfs_1"}} {
		t.Run(tc.bench+"/"+tc.name, func(t *testing.T) {
			k := bench.Find(tc.bench, tc.name)
			collected := make(chan struct{})
			func() {
				f, err := k.Compile(64)
				if err != nil {
					t.Fatal(err)
				}
				f.EnsureLoops()
				if _, err := interp.ProfileKernel(f, k.Config(64), 2); err != nil {
					t.Fatal(err)
				}
				// Nothing inside a Func points back to it, so the
				// finalizer runs once f itself is unreachable.
				runtime.SetFinalizer(f, func(*ir.Func) { close(collected) })
			}()
			deadline := time.Now().Add(10 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("the profiled function is still reachable after profiling returned")
				}
			}
		})
	}
}
