// Command perfbench is hotnoc's end-to-end benchmark. One invocation runs
// one workload in one process and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	perfbench --workload fig1-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 they are the per-layer metrics, measured
// from outside each layer by timing calls into its public functions and
// hooks, and the run's spans are written to --trace-out at exit. The lines
// before the JSON object repeat every figure by name and unit, beside the
// model's error against the paper. Any output that differs from its
// reference makes the run exit with status 1. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// deadline bounds a whole run: the benchmark must exit within 180 s, so a
// wedged workload fails with an error instead of hanging the caller.
const deadline = 170 * time.Second

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is the whole command, taking its arguments and output streams
// so the smoke test can drive it in process. It returns the exit status.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 prints per-layer metrics and writes spans")
	scale := fs.Int("scale", 0, "workload divisor (0 = the workload's own: 1 = paper scale, 4 for serve-warm)")
	traceOut := fs.String("trace-out", "", "span file for --trace 1 (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	if *scale < 0 {
		fmt.Fprintf(stderr, "perfbench: --scale must not be negative\n")
		return 2
	}

	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		scale:    *scale,
	}
	if *trace == 1 {
		e.tr = newTracer(*name, *seed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	r, err := runWorkload(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.rss = maxRSSMB()

	var metrics map[string]metric
	if e.tr == nil {
		metrics = r.endToEnd()
	} else {
		metrics = r.layers
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		}
		lines, err := e.tr.write(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		r.lines = append(r.lines, lines...)
	}
	r.print(stdout, e, metrics)

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if r.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or mismatched their reference\n",
			*name, r.failed, r.attempted)
		return 1
	}
	return 0
}

// metric is one named figure as it appears in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what a workload receives: its seed, the timed-phase length, an
// optional scale override and, in a traced run, the span recorder.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	scale    int
	tr       *tracer
}

// scaleOr returns the --scale override, or def when none was given.
func (e *env) scaleOr(def int) int {
	if e.scale > 0 {
		return e.scale
	}
	return def
}

// check counts one verified operation: a nil error passes, anything else
// is a failure, described on the report so the mismatch is visible.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.report("MISMATCH: " + err.Error())
	}
}

// run is what a workload measured.
type run struct {
	// setups holds the duration of each set-up repetition; setup_s is
	// their median.
	setups []time.Duration
	// requests and firsts hold, per timed request, its latency and the
	// time to its first outcome; points counts the outcomes the timed
	// phase produced in timed.
	requests, firsts []time.Duration
	points           int
	timed            time.Duration
	// attempted and failed count verified operations: every outcome,
	// digest and counter compared against its reference.
	attempted, failed int
	rss               float64
	// plain holds a traced run's untraced twin requests, the baseline
	// of its overhead.
	plain []time.Duration
	// simCycles counts the NoC cycles behind the run's cold work and
	// charCycles those of its orbit characterizations alone.
	simCycles, charCycles int64
	// wire measures the service layers (serve-warm, or a probe).
	wire *wireCounter
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// lines are report lines printed before the result; extra holds
	// workload-specific figures printed beside the end-to-end metrics.
	lines []string
	extra []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

// report queues a line for the human-readable report.
func (r *run) report(line string) { r.lines = append(r.lines, line) }

// note records a workload-specific figure printed beside the metrics.
func (r *run) note(name string, value float64, unit string) {
	r.extra = append(r.extra, namedValue{name, value, unit})
}

// endToEnd derives the end-to-end metrics every workload reports.
func (r *run) endToEnd() map[string]metric {
	secs := r.timed.Seconds()
	return map[string]metric{
		"setup_s":        {median(r.setups).Seconds(), "s"},
		"points_per_s":   {float64(r.points) / secs, "1/s"},
		"request_p50_ms": {ms(median(r.requests)), "ms"},
		"max_rss_mb":     {r.rss, "MB"},
	}
}

// print writes the human-readable report: queued lines, the reported
// metrics, and the workload-specific figures beside them.
func (r *run) print(w io.Writer, e *env, metrics map[string]metric) {
	mode := "untraced"
	if e.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s, timed phase %.3g s\n", e.workload, e.seed, mode, e.seconds.Seconds())
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if len(r.firsts) > 0 {
		fmt.Fprintf(w, "  %-28s %16.6g %s (median of %d requests)\n", "first_outcome_ms", ms(median(r.firsts)), "ms", len(r.firsts))
	}
	for _, x := range r.extra {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", x.name, x.value, x.unit)
	}
	if _, ok := metrics["max_rss_mb"]; !ok {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", "max_rss_mb", r.rss, "MB")
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %16.6g %s (%d of %d)\n", "failed_frac", frac, "1", r.failed, r.attempted)
}

// median returns the middle value of ds (the mean of the two middle ones
// for an even count), or zero for none.
func median(ds []time.Duration) time.Duration {
	return percentile(ds, 0.5)
}

// percentile returns the p-quantile of ds by linear interpolation
// between closest ranks.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupDone records one set-up repetition that began at start.
func (r *run) setupDone(start time.Time) {
	r.setups = append(r.setups, time.Since(start))
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
