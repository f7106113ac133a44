package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so p99 needs 1,000 samples
// and p50 needs 20.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of samples by the
// nearest-rank method, or an error when fewer than minBeyond samples lie
// beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	need := int(math.Ceil(minBeyond * 100 / (100 - q)))
	if n < need {
		return 0, fmt.Errorf("p%g needs %d samples (%d beyond it), have %d", q, need, minBeyond, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// allocBytes returns bytes allocated on the heap since process start,
// across all goroutines.
func allocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcCounters snapshots completed GC cycles and total stop-the-world
// pause time.
func gcCounters() (cycles uint32, pause time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs)
}
