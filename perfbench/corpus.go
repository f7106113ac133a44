package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/model"
)

// prepKey is one (kernel, work-group size) pair: the unit the prep cache
// compiles and analyzes once.
type prepKey struct {
	K  *bench.Kernel
	WG int64
}

// pair is one (kernel, design) point of the corpus design space.
type pair struct {
	K *bench.Kernel
	D model.Design
}

func (p pair) id() string { return p.K.ID() + "|" + p.D.String() }

// corpus is the bundled kernel set on one platform, enumerated in the
// stable order of bench.All and dse.Space.
type corpus struct {
	P       *device.Platform
	Kernels []*bench.Kernel
	Keys    []prepKey
	Pairs   []pair
}

func newCorpus() *corpus {
	c := &corpus{P: device.Virtex7(), Kernels: bench.All()}
	for _, k := range c.Kernels {
		for _, wg := range k.WGSizes() {
			c.Keys = append(c.Keys, prepKey{k, wg})
		}
		for _, d := range dse.Space(k, c.P) {
			c.Pairs = append(c.Pairs, pair{k, d})
		}
	}
	return c
}

// kernelOf returns, for every pair, the index of its kernel.
func (c *corpus) kernelOf() []int {
	idx := make(map[*bench.Kernel]int, len(c.Kernels))
	for i, k := range c.Kernels {
		idx[k] = i
	}
	out := make([]int, len(c.Pairs))
	for i, p := range c.Pairs {
		out[i] = idx[p.K]
	}
	return out
}

// goldenDesigns is the design grid testdata/golden pins at each
// work-group size: unoptimized, pipelined, a mid and the max parallel
// point.
func goldenDesigns(wg int64) []model.Design {
	return []model.Design{
		{WGSize: wg, WIPipeline: false, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: wg, WIPipeline: true, PE: 1, CU: 1, Mode: model.ModeBarrier},
		{WGSize: wg, WIPipeline: true, PE: 4, CU: 2, Mode: model.ModePipeline},
		{WGSize: wg, WIPipeline: true, PE: 16, CU: 4, Mode: model.ModePipeline},
	}
}

// loadGolden reads the golden prediction corpus below root, keyed by
// pair.id(). Every kernel must have its file.
func loadGolden(root string, kernels []*bench.Kernel) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, k := range kernels {
		name := k.Suite + "__" + strings.ReplaceAll(k.ID(), "/", "__") + ".golden"
		f, err := os.Open(filepath.Join(root, "testdata", "golden", name))
		if err != nil {
			return nil, fmt.Errorf("golden corpus: %w", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			design, val, ok := strings.Cut(line, " ")
			if !ok {
				f.Close()
				return nil, fmt.Errorf("golden %s: malformed line %q", name, line)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("golden %s: %w", name, err)
			}
			out[k.ID()+"|"+design] = v
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
	}
	return out, nil
}

// references holds the expected cycles of every corpus pair: the golden
// value on the golden grid, else the library-path prediction computed
// in set-up.
type references struct {
	golden map[string]float64
	lib    map[string]float64
}

// expect returns the reference cycles of a pair.
func (r *references) expect(id string) (float64, bool) {
	if v, ok := r.golden[id]; ok {
		return v, true
	}
	v, ok := r.lib[id]
	return v, ok
}

// check compares an answer against the reference, exactly.
func (r *references) check(id string, cycles float64) error {
	want, ok := r.expect(id)
	if !ok {
		return fmt.Errorf("%s: no reference", id)
	}
	if cycles != want {
		return fmt.Errorf("%s: cycles %v, want %v", id, cycles, want)
	}
	return nil
}

// libraryReferences prepares every key in a fresh prep cache (cache may
// be a caller's cache to fill) and predicts every pair through
// Analysis.Predict on `workers` goroutines. It returns the predictions
// keyed by pair.id() and the number of golden-grid predictions that
// disagree with the golden corpus.
func libraryReferences(c *corpus, cache *dse.PrepCache, golden map[string]float64, workers int) (map[string]float64, int, error) {
	if err := parallel(workers, len(c.Keys), func(i int) error {
		_, err := cache.Analysis(c.Keys[i].K, c.P, c.Keys[i].WG)
		return err
	}); err != nil {
		return nil, 0, err
	}
	cycles := make([]float64, len(c.Pairs))
	if err := parallel(workers, len(c.Pairs), func(i int) error {
		an, err := cache.Analysis(c.Pairs[i].K, c.P, c.Pairs[i].D.WGSize)
		if err != nil {
			return err
		}
		cycles[i] = an.Predict(c.Pairs[i].D).Cycles
		return nil
	}); err != nil {
		return nil, 0, err
	}
	lib := make(map[string]float64, len(c.Pairs))
	bad := 0
	for i, pr := range c.Pairs {
		id := pr.id()
		if g, ok := golden[id]; ok && g != cycles[i] {
			bad++
		}
		lib[id] = cycles[i]
	}
	return lib, bad, nil
}

// parallel runs fn(0..n-1) on min(workers, n) goroutines and returns the
// first error; it returns once every goroutine has exited.
func parallel(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var firstErr error
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
