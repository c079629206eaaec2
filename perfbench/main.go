// Command perfbench is the repository's benchmark: it runs one seeded
// workload (solve-recursive, solve-aggregates or serve-mixed) for a
// fixed time, checks every answer against oracles that do not share
// the engine's code, and prints its metrics. The last line of standard
// output is one JSON object: end-to-end metrics with -trace 0, per-layer
// metrics with -trace 1. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload solve-recursive --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procs pins both GOMAXPROCS and the engine's Parallelism, so the
// numbers mean the same on every box that has at least two CPUs.
const procs = 2

// config is one run.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	// dir holds the run's scratch files (WAL directories, traces).
	dir string
	// small shrinks every input, for the benchmark's own tests.
	small bool
}

// result is one run's outcome.
type result struct {
	attempted int
	// failed counts operations that failed, were shed, answered wrong
	// or lost an acknowledged write.
	failed int
	// problems describes the first few failures.
	problems []string
	// metrics holds the JSON metrics: end-to-end, or per-layer when
	// traced.
	metrics map[string]float64
	// notes annotate a metric's report line, such as its sample count.
	notes map[string]string
}

func newResult() *result { return &result{metrics: map[string]float64{}, notes: map[string]string{}} }

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(name, text string) { r.notes[name] = text }

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		dir:      filepath.Join(build, "perfbench"),
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) error {
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(w, "env go=%s gomaxprocs=%d parallelism=%d wal_fsync=batch workload=%s seed=%d seconds=%g trace=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), procs, cfg.workload, cfg.seed, cfg.dur.Seconds(), cfg.traced)
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	printResult(w, cfg, res)
	return nil
}

func runWorkload(w io.Writer, cfg config) (*result, error) {
	switch cfg.workload {
	case solveRecursive, solveAggregates:
		return runSolve(w, cfg)
	case serveMixed:
		return runServe(w, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported lists the metrics a run reports: per layer when traced,
// else the workload's end-to-end metrics.
func reported(cfg config) []metricDef {
	switch {
	case cfg.traced:
		return perLayer
	case cfg.workload == serveMixed:
		return serveEndToEnd
	}
	return endToEnd
}

// printResult prints every reported metric with its unit and what it
// measures (per layer: what it should move where), error_rate, the
// first failures, and last the JSON line.
func printResult(w io.Writer, cfg config, res *result) {
	defs := reported(cfg)
	out := map[string]jsonMetric{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(1, "metric %s was not measured", d.name)
			v = 0
		}
		out[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(w, "metric %-16s %-30s %14.4f %-8s %s\n", cfg.workload, name, v, unit, note)
	}
	for _, d := range defs {
		what := d.what
		if cfg.traced {
			what = fmt.Sprintf("moves %s on %s", d.moves, strings.Join(d.on, ", "))
		}
		if n := res.notes[d.name]; n != "" {
			what += "; " + n
		}
		line(d.name, out[d.name].Value, d.unit, what)
	}
	line("error_rate", float64(res.failed)/float64(max(res.attempted, 1)), "fraction",
		"(failed + shed + wrong answers + acked-but-lost) / attempted")
	for _, p := range res.problems {
		fmt.Fprintln(w, "problem:", p)
	}
	js, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, max(res.attempted, 1), res.failed, out})
	fmt.Fprintln(w, string(js))
}
