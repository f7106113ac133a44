package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/bench"
)

// heldOutSeed is never used while tuning the benchmark or a change:
// a claimed gain must also hold on it.
const heldOutSeed = 9173

// Every input the benchmark sends is a pure function of the workload
// seed. Each stream draws from its own generator, so lengthening one
// stream never shifts another.
const (
	tagCold uint64 = iota + 1
	tagZipf
	tagInline
	tagSample
)

func rng(seed int64, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), tag))
}

// coldStream is the cold workload's request order: a permutation of the
// prep keys, and for each key the index of its golden-grid design.
type coldStream struct {
	Order  []int
	Design []int
}

func newColdStream(seed int64, keys int) coldStream {
	r := rng(seed, tagCold)
	s := coldStream{Order: r.Perm(keys), Design: make([]int, keys)}
	for i := range s.Design {
		s.Design[i] = r.IntN(4)
	}
	return s
}

// zipfExponent sets how concentrated the interactive stream is:
// popularity falls as 1/(rank+1). Over the 10,188-pair pool about 9% of
// draws fall outside the 4,096 most popular pairs, so several percent
// of requests miss the prediction LRU and p99 lies among the misses.
const zipfExponent = 1.0

// popularity orders the pool by seeded popularity rank. Every group (a
// kernel) is spread evenly over the ranks, and which of its members
// ranks where is seeded, so every seed's cache misses cover the kernels
// in proportion and differ only in which designs miss.
func popularity(seed int64, groupOf []int) []int {
	r := rng(seed, tagZipf)
	var members [][]int
	for i, g := range groupOf {
		for len(members) <= g {
			members = append(members, nil)
		}
		members[g] = append(members[g], i)
	}
	key := make([]float64, len(groupOf))
	for _, m := range members {
		for j, p := range r.Perm(len(m)) {
			key[m[p]] = (float64(j) + r.Float64()) / float64(len(m))
		}
	}
	byRank := make([]int, len(groupOf))
	for i := range byRank {
		byRank[i] = i
	}
	sort.SliceStable(byRank, func(a, b int) bool { return key[byRank[a]] < key[byRank[b]] })
	return byRank
}

// zipfStream draws n pool indices: rank k with probability proportional
// to 1/(k+1)^zipfExponent, mapped to the pool through byRank. The draws
// are stratified (one per equal slice of the distribution, at a seeded
// point within it) and then shuffled, so every stream holds each rank
// band in proportion and only the order and the exact ranks are random.
func zipfStream(seed int64, byRank []int, n int) []int {
	r := rng(seed, tagZipf^0x5eed)
	cdf := make([]float64, len(byRank))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -zipfExponent)
		cdf[k] = total
	}
	draws := make([]int, n)
	for i := range draws {
		u := (float64(i) + r.Float64()) / float64(n)
		k := sort.SearchFloat64s(cdf, u*total)
		draws[i] = byRank[min(k, len(byRank)-1)]
	}
	r.Shuffle(n, func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	return draws
}

// inlineSpec is one generated inline kernel of the bulk stream before
// resolution: a bench.Generate family and size, and a draw that picks
// its design from the resolved kernel's space.
type inlineSpec struct {
	Spec       bench.GenSpec
	DesignDraw uint64
}

// sizeStrata is how many work-item ranges inlineSpecs splits
// 2^10–2^20 into; every family gets one size from each.
const sizeStrata = 16

// inlineSpecs draws sizeStrata kernels per generator family, one in each
// equal slice of log2(work-items) over [10, 20] at a seeded point within
// it (2-D families take the square root per side). Stratifying keeps the
// mix of cheap and costly kernels the same for every seed.
func inlineSpecs(seed int64) []inlineSpec {
	r := rng(seed, tagInline)
	var out []inlineSpec
	for _, fam := range bench.GenFamilies() {
		for s := 0; s < sizeStrata; s++ {
			wi := math.Exp2(10 + 10*(float64(s)+r.Float64())/sizeStrata)
			size := int64(math.Round(wi))
			switch fam {
			case "mm", "stencil", "transpose":
				size = int64(math.Round(math.Sqrt(wi)))
			}
			out = append(out, inlineSpec{Spec: bench.GenSpec{Family: fam, N: size}, DesignDraw: r.Uint64()})
		}
	}
	return out
}

// bulkStream is the spec index of every item of the bulk client's
// batches, in send order: successive seeded permutations of all specs,
// so every full round costs the same.
func bulkStream(seed int64, specs, items int) []int {
	r := rng(seed, tagInline^0xb01c)
	out := make([]int, 0, items)
	for len(out) < items {
		out = append(out, r.Perm(specs)...)
	}
	return out[:items]
}

// streamBytes serializes every stream a seed generates (at fixed
// lengths), for the determinism test.
func streamBytes(seed int64) []byte {
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	cs := newColdStream(seed, 283)
	for i := range cs.Order {
		put(uint64(cs.Order[i]))
		put(uint64(cs.Design[i]))
	}
	c := newCorpus()
	for _, v := range zipfStream(seed, popularity(seed, c.kernelOf()), 4096) {
		put(uint64(v))
	}
	for _, s := range inlineSpecs(seed) {
		b = append(b, s.Spec.Family...)
		put(uint64(s.Spec.N))
		put(s.DesignDraw)
	}
	for _, v := range bulkStream(seed, 64, 512) {
		put(uint64(v))
	}
	return b
}
