// Command perfbench is the repository benchmark. It runs one named
// workload per process against the mmdr system, built from generated
// inputs through public entry points only, and prints one JSON result
// object as the last line of standard output.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload batch-exact --seed 3 --seconds 10 --trace 0
//
// Every run generates its inputs from the seed, sets the system up several
// times (setup_s is the median), runs the correctness gates untimed, warms
// up, and then measures one timed window. With --trace 0 the result holds
// the end-to-end metrics (endToEnd in metrics.go); with --trace 1 the run
// repeats the window with spans recorded around every call into a layer,
// sweeps every layer from outside, writes the spans under --trace-dir and
// reports the per-layer metrics (perLayer in metrics.go). The workloads and
// why each exists are in workloads.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// runLimit bounds a whole run: a run that hangs (a server that never
// drains, a lost response) exits non-zero instead of outliving the caller's
// timeout.
const runLimit = 170 * time.Second

func main() {
	timer := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", runLimit)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	timer.Stop()
	os.Exit(code)
}

// options are the parsed command-line settings of one run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", 1, "workload seed: query sample, insert points, delete ids, arrival schedule")
		seconds   = fs.Float64("seconds", 10, "length of the timed window in seconds")
		trace     = fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer mode")
		scaleName = fs.String("scale", "paper", "input scale: paper (n=100k, d=64) or tiny (for tests)")
		traceDir  = fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: sc, traceDir: *traceDir}
	res, err := runWorkload(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
