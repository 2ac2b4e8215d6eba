// Command perfbench is the end-to-end benchmark of vmwild. It runs one named
// workload at a seed, checks that the workload's outputs are correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs again with the harness
// recording a span around every call it makes into a layer, and the
// metrics are the per-layer breakdown derived from those spans.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload online --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
}

// workloads maps each workload name to its runner. A runner sets up its
// system, measures for o.seconds, checks outputs, and fills r.
var workloads = map[string]func(o options, r *result) error{
	"report": runReport,
	"online": runOnline,
	"reads":  runReads,
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o       options
		seconds int
		trace   int
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: report, online or reads")
	fs.Int64Var(&o.seed, "seed", 20141208, "seed the workload's inputs are generated from")
	fs.IntVar(&seconds, "seconds", 30, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want report, online or reads)", o.workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if _, err := readVMTicks(); err != nil {
		return err
	}

	r := newResult(o.trace)
	if err := runner(o, r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	return finish(o, r, stdout)
}

// finish adds the metrics every workload shares, writes the spans of a
// traced run, and prints the result.
func finish(o options, r *result, stdout io.Writer) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.endToEnd("rss_peak_mb", rss)
	r.show("rss_peak_mb", rss, "MB")
	r.show("failed_frac", r.failedFrac(), fmt.Sprintf("of %d attempted", r.attempted))

	if o.trace && o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
		if err := r.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.spans.len(), path)
	}
	return r.print(stdout)
}

// metric is one printed value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and layerUnits name every metric the harness prints and fix
// its unit; BENCHMARK.json lists the same names (the self-test checks it).
// An end-to-end metric is measured on every workload. A per-layer metric is
// printed on every workload too, as zero where the workload never calls
// that layer.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"rss_peak_mb":     "MB",
	"rate_per_s":      "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
}

var layerUnits = func() map[string]string {
	m := map[string]string{
		// report: per-cell-family sums from ReportOptions.Progress events.
		"workload.generate_s":        "s",
		"analysis.characterize_s":    "s",
		"core.planner_runs_s":        "s",
		"core.sensitivity_s":         "s",
		"experiments.section7_s":     "s",
		"executor.execution_s":       "s",
		"experiments.blades_s":       "s",
		"emulator.verify_s":          "s",
		"experiments.figures_s":      "s",
		"experiments.other_s":        "s",
		"experiments.render_s":       "s",
		"experiments.cell_max_s":     "s",
		"experiments.reconcile_frac": "ratio",
		// online: serving plane and control loop.
		"monitor.flush_ms":                      "ms",
		"monitor.flushes":                       "count",
		"monitor.retries":                       "count",
		"wal.bytes_per_sample":                  "B",
		"controller.fetch_ms":                   "ms",
		"controller.decide_ms":                  "ms",
		"controller.journal_bytes_per_interval": "B",
		"controller.intervals":                  "count",
		"core.migrations":                       "count",
		"core.active_hosts":                     "count",
		"executor.attempts":                     "count",
		// reads (and the replica/query layers wherever they run).
		"replica.publishes":        "count",
		"replica.bytes_per_sample": "B",
		"replica.cache_hit_ratio":  "ratio",
		"replica.cache_lookups":    "count",
		"query.fast_path_frac":     "ratio",
		"query.pipelined":          "count",
		"query.queue_wait_us":      "us",
		// Tracing overhead: the traced run's own primary latency, to set
		// against latency_p50_ms of the untraced run.
		"trace.latency_p50_ms": "ms",
		"trace.spans":          "count",
	}
	// Per-estate planner pipeline of the report's traced run, summed and
	// per estate.
	for _, name := range estateLayerMetrics {
		m[name] = estateLayerUnit(name)
		for _, e := range estateNames {
			m[name+"."+e] = estateLayerUnit(name)
		}
	}
	return m
}()

// result accumulates one run's outcome.
type result struct {
	traced    bool
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	shown     []string
	spans     *tracer
}

func newResult(traced bool) *result {
	r := &result{traced: traced, metrics: make(map[string]metric), spans: newTracer(traced)}
	if traced {
		// Every per-layer metric is printed; a layer the workload never
		// calls reads zero.
		for name, unit := range layerUnits {
			r.metrics[name] = metric{Unit: unit}
		}
	}
	return r
}

// attempt counts one checked operation; a non-nil err marks it failed.
func (r *result) attempt(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// attempts counts n checked operations of which len(failures) failed.
func (r *result) attempts(n int, failures []error) {
	r.attempted += n
	for _, err := range failures {
		r.fail(err)
	}
}

// fail counts a failed check without a new attempt (a gate over the whole
// run, such as a reconciliation).
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *result) failedFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// endToEnd records an end-to-end metric; it is printed only by an untraced
// run.
func (r *result) endToEnd(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		panic("perfbench: undeclared end-to-end metric " + name)
	}
	if !r.traced {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

// layer records a per-layer metric; it is printed only by a traced run.
func (r *result) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	if r.traced {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

// show adds a human-readable line (name, value, unit) printed above the
// JSON result: the workload's own names for what the JSON reports under
// shared names, plus ratios with their bases.
func (r *result) show(name string, v float64, unit string) {
	r.shown = append(r.shown, fmt.Sprintf("%-40s %14.6g %s", name, v, unit))
}

// note adds a human-readable line with a text value.
func (r *result) note(name, text string) {
	r.shown = append(r.shown, fmt.Sprintf("%-40s %14s", name, text))
}

func (r *result) print(w io.Writer) error {
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	var b strings.Builder
	for _, line := range r.shown {
		b.WriteString(line + "\n")
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(&b, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	b.Write(out)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
