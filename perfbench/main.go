// Command perfbench is the repository's end-to-end benchmark. One run
// drives one named workload against the public surfaces (faqd over
// HTTP, or faqs.Engine in-process), checks every answer against a
// reference computed with faq.Solve during set-up, and prints the
// workload's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The workloads and metrics are those of BENCHMARK.json; catalog.json
// adds what that file has no room for. With -trace 0 the metrics are
// the end-to-end ones, measured untraced; the end-to-end metrics too
// noisy on a shared host to gate on (catalog.json "reported") appear in
// the report line. With -trace 1 the run serves for half its time and
// then replays the same inputs through each layer's exported functions
// with spans recorded here, printing the per-layer metrics. The line
// before the result is a report: host fingerprint, seed, sample counts,
// set-up times.
//
// Usage (see run.sh, which builds faqd and this command first):
//
//	perfbench -workload serve-http -seed 1 -seconds 10 -trace 0 -faqd path/to/faqd
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

//go:embed catalog.json
var catalogJSON []byte

// errWrongAnswer marks runs in which a checked answer did not match.
var errWrongAnswer = errors.New("wrong answer")

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// options are one run's settings.
type options struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	trace    bool
	faqd     string // faqd binary (HTTP workloads)
	tiny     bool   // self-check sizes
	setups   int    // set-ups timed per run; setup_s is their median
	corrupt  bool   // corrupt one expected answer (self-check of the checker)
}

// run parses args, executes one workload, and writes the report and
// result lines to stdout. It returns the process exit code: 0 for a
// correct run, 1 when an answer was wrong, 2 when the run could not
// complete (no result line is printed then).
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	var bench string
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.StringVar(&bench, "benchmark", "BENCHMARK.json", "the benchmark definition: workloads and metrics")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = serve then replay traced and print the per-layer metrics")
	fs.StringVar(&o.faqd, "faqd", "", "path to the faqd binary (serve-http, view-churn)")
	fs.BoolVar(&o.tiny, "tiny", false, "self-check sizes (seconds-long runs, tiny inputs)")
	fs.BoolVar(&o.corrupt, "corrupt-expected", false, "corrupt one expected answer (the run must then fail)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	o.trace = trace == 1
	o.ctx = context.Background()
	cat, err := loadCatalog(bench)
	if err != nil {
		return 2, err
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return 2, fmt.Errorf("need -seconds > 0")
	}
	o.setups = 3
	if o.trace {
		o.setups = 1 // setup_s is an end-to-end metric; the traced run times one
	}
	res := newResult(o.workload)
	if err := wl(&o, res); err != nil {
		return 2, err
	}
	names := cat.EndToEnd
	if o.trace {
		names = cat.PerLayer
	}
	res.reportMetrics(cat.Reported)
	line, report, err := res.render(names)
	if err != nil {
		return 2, err
	}
	report["workload"] = o.workload
	report["seed"] = o.seed
	report["trace"] = o.trace
	report["seconds"] = o.seconds
	report["host"] = fingerprint()
	rep, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", rep, line)
	if !res.correct {
		return 1, errWrongAnswer
	}
	return 0, nil
}

// workloads maps each workload name to the function that runs it: it
// sets up o.setups times, serves the timed loop (and the traced replay with
// o.trace), and records metrics and answer checks into res.
var workloads = map[string]func(*options, *result) error{
	"serve-http":  runServeHTTP,
	"view-churn":  runViewChurn,
	"solve-large": runSolveLarge,
	"cluster-tcp": runClusterTCP,
}

// servePhase returns how long the served loop runs: all of the run's
// seconds untraced, half of them when the replay follows.
func (o *options) servePhase() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// replayPhase returns the replay's time budget (zero when untraced).
func (o *options) replayPhase() time.Duration {
	if !o.trace {
		return 0
	}
	return time.Duration(o.seconds * float64(time.Second) / 2)
}
