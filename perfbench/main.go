// Command perfbench is the repository's host-time benchmark. It drives one
// workload per invocation from a single process and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (setup_s, qps,
// query_p50_ms, query_p95_ms, heap_peak_mb); with -trace 1 the run
// repeats the timed window with spans, runtime counters and a CPU profile
// and reports the per-layer set instead. LAYERS.md lists every metric,
// the layer it belongs to and the end-to-end metric it should move.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload serve_shuffle --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Each workload builds its state from scratch at least minSetups times
// and until setupBudget of building has been timed (at most maxSetups);
// setup_s is the median, so one slow build does not move it and a cheap
// build is timed often enough to be steady.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 3 * time.Second
)

// moreSetups reports whether another set-up should be timed.
func moreSetups(setups []float64) bool {
	total := 0.0
	for _, s := range setups {
		total += s
	}
	return len(setups) < minSetups || (total < setupBudget.Seconds() && len(setups) < maxSetups)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// runConfig is what every workload receives.
type runConfig struct {
	seed     uint64
	window   time.Duration
	trace    bool
	outDir   string
	workload string
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int
	// problems lists failed correctness conditions that are not per-request
	// failures (probe drift, dropped stream events).
	problems []string
	e2e      metrics
	layer    metrics
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"olap_local":    runOLAP,
	"serve_shuffle": runShuffle,
	"ingest_query":  runIngest,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: olap_local, serve_shuffle or ingest_query")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	outDir = filepath.Join(outDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, outDir: outDir, workload: *name}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	if err := complete(out.e2e, endToEndMetrics, false); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := complete(out.layer, layerMetrics, true); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			os.Exit(1)
		}
	}
	rep := report{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if cfg.trace {
		rep.Metrics = out.layer
	}
	if rep.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operations attempted\n", *name)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// settle collects garbage left by the previous phase so it is not billed
// to the next one.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// latencyMetrics fills the end-to-end query metrics from per-statement
// client latencies. query_p50_ms is the mean over statements of each
// statement's median: a pooled median of a round-robin mix lands on the
// boundary between two statements' modes and jumps between them from
// run to run. query_p95_ms is pooled over every sample, which puts it
// inside the slowest statement's mode, well away from a boundary.
func latencyMetrics(m metrics, byStmt [][]float64) int {
	var p50s, all []float64
	for _, xs := range byStmt {
		if len(xs) > 0 {
			p50s = append(p50s, median(xs))
			all = append(all, xs...)
		}
	}
	m.set("query_p50_ms", mean(p50s), "ms")
	m.set("query_p95_ms", quantile(all, 0.95), "ms")
	return len(all)
}
