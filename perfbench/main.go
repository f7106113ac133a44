// Command perfbench is FlexCL's benchmark: four seeded workloads that
// time the analytical model end to end (a model-only design-space sweep,
// and cold, warm and mixed prediction traffic against an in-process
// flexcl-serve), check every answer, and in a separate traced run report
// per-layer numbers. See README.md for the workloads, the metrics and
// how to run it.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics untraced, the
// per-layer metrics traced).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric; the same table is registered in
// BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics every untraced run prints. Each workload
// defines its operation (see README.md): a slice of the design-space
// sweep, or one request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_mb", "MiB"},
}

// perLayer lists the metrics every traced run prints, grouped by the
// module whose public functions (or exported counters) they time.
var perLayer = []metricDef{
	{"irgen.compile_ms", "ms"},
	{"bench.config_ms", "ms"},
	{"bench.config_alloc_kb", "KiB"},
	{"bench.cachekey_us", "us"},
	{"interp.profile_ms", "ms"},
	{"interp.profile_alloc_kb", "KiB"},
	{"interp.static_ratio", "ratio"},
	{"trace.classify_ms", "ms"},
	{"trace.classify_alloc_kb", "KiB"},
	{"device.profile_ms", "ms"},
	{"model.analyze_ms", "ms"},
	{"model.predict_us", "us"},
	{"model.predict_alloc_kb", "KiB"},
	{"cdfg.build_us", "us"},
	{"sched.sms_us", "us"},
	{"sched.serial_us", "us"},
	{"dse.explore_ms", "ms"},
	{"dse.search_ms", "ms"},
	{"dse.search_eval_ratio", "ratio"},
	{"dse.prep_computes", "count"},
	{"dse.prep_coalesced", "count"},
	{"dse.pred_hit_ratio", "ratio"},
	{"api.resolve_us", "us"},
	{"api.resolve_inline_ms", "ms"},
	{"serve.handler_us", "us"},
	{"serve.handler_alloc_kb", "KiB"},
	{"serve.rtt_us", "us"},
	{"serve.queue_wait_ms.interactive", "ms"},
	{"serve.queue_wait_ms.bulk", "ms"},
	{"serve.shed", "count"},
	{"serve.source_share.pred", "ratio"},
	{"serve.source_share.prep", "ratio"},
	{"serve.source_share.coalesced", "ratio"},
	{"serve.source_share.miss", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.conns", "count"},
	{"perfbench.prep_self_ms", "ms"},
	{"perfbench.trace_overhead_pct", "%"},
}

// options are the command-line inputs of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Root is the repository checkout (testdata/golden lives there).
	Root string
	// Procs bounds the load generator's goroutines and connections and
	// the sweep's workers.
	Procs int
}

func (o options) duration() time.Duration {
	return time.Duration(o.Seconds * float64(time.Second))
}

// outcome is what a workload measured.
type outcome struct {
	tally   tally
	metrics map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

type workloadFn func(o options, out *outcome) error

var workloads = map[string]workloadFn{
	"sweep":         runSweep,
	"predict-cold":  runCold,
	"predict-warm":  runWarm,
	"predict-mixed": runMixed,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: sweep, predict-cold, predict-warm or predict-mixed")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed; every generated input is a pure function of it")
	flag.Float64Var(&o.Seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.Trace = trace == 1
	// The server logs through slog.Default, as flexcl-serve does; the
	// JSON handler keeps the per-request formatting cost while the
	// lines themselves are dropped.
	slog.SetDefault(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	o.Procs = runtime.NumCPU()
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	o.Root = wd
	fn, ok := workloads[o.Workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", o.Workload))
	}
	out := newOutcome()
	if err := fn(o, out); err != nil {
		fatal(fmt.Errorf("%s: %w", o.Workload, err))
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	res := jsonResult{
		Attempted: out.tally.attempted.Load(),
		Failed:    out.tally.failed.Load(),
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			fatal(fmt.Errorf("%s: metric %s not measured", o.Workload, d.Name))
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	printHuman(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printHuman writes one "name value unit" line per metric before the
// JSON result line.
func printHuman(res jsonResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("attempted %d, failed %d\n", res.Attempted, res.Failed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
