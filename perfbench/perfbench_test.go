package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload end to end at a small size and checks
// the harness's contract: one JSON result line, every metric BENCHMARK.json
// names printed with its unit, and failing gates failing the run.

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		seen := make(map[string]bool)
		for _, m := range listed {
			if seen[m.Name] {
				t.Errorf("%s metric %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, harness %q", kind, m.Name, m.Unit, u)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %s is printed but not in BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEndUnits)
	check("per-layer", b.PerLayer, layerUnits)
}

// outcome is the parsed JSON result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSmall runs one workload function and parses the result line the way
// the command prints it.
func runSmall(t *testing.T, traced bool, f func(o options, r *result) error) outcome {
	t.Helper()
	o := options{seed: 7, seconds: time.Second, trace: traced}
	r := newResult(traced)
	if err := f(o, r); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := finish(o, r, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return res
}

// checkMetrics asserts that res carries exactly the metrics BENCHMARK.json
// lists for the mode, each with its unit and a finite value.
func checkMetrics(t *testing.T, res outcome, traced bool) {
	t.Helper()
	b := readBenchmarkFile(t)
	want := b.EndToEnd
	if traced {
		want = b.PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s printed in %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case !traced && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
}

func checkCorrect(t *testing.T, res outcome) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

var (
	smallOnline = onlineSize{servers: 8, backfillHours: planningHours, minIntervals: 12, maxIntervals: 40}
	smallReads  = readsSize{servers: 8, loadHours: planningHours, callers: 4}
)

func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	small := map[string]func(o options, r *result) error{
		"report": runReport,
		"online": func(o options, r *result) error { return runOnlineSized(o, r, smallOnline) },
		"reads":  func(o options, r *result) error { return runReadsSized(o, r, smallReads) },
	}
	for name, f := range small {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := runSmall(t, traced, f)
				checkCorrect(t, res)
				checkMetrics(t, res, traced)
			}
		})
	}
}

func TestOnlineDecisionsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the online workload twice")
	}
	f := func(o options, r *result) error { return runOnlineSized(o, r, smallOnline) }
	a, b := runSmall(t, true, f), runSmall(t, true, f)
	checkCorrect(t, a)
	checkCorrect(t, b)
	for _, name := range []string{"core.migrations", "core.active_hosts", "executor.attempts", "wal.bytes_per_sample"} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v at the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func TestWrongDigestFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two reports")
	}
	wrong := []panelSeed{{7, strings.Repeat("0", 64)}}
	res := runSmall(t, false, func(o options, r *result) error { return runReportWith(o, r, wrong) })
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("wrong digest: correct=%v attempted=%d failed=%d, want every report failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

func TestShortFetchFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the online workload")
	}
	short := smallOnline
	short.backfillHours = planningHours / 2
	res := runSmall(t, false, func(o options, r *result) error { return runOnlineSized(o, r, short) })
	if res.Correct || res.Failed < short.minIntervals {
		t.Fatalf("short fetch: correct=%v attempted=%d failed=%d, want every interval failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

func TestReportRotation(t *testing.T) {
	n := len(reportPanel)
	for i, p := range reportPanel {
		at := reportRotation(p.seed, reportPanel)
		if at(0) != p || at(1) != reportPanel[(i+1)%n] {
			t.Errorf("seed %d starts at %d then %d, want its own entry then the next", p.seed, at(0).seed, at(1).seed)
		}
	}
	for _, seed := range []int64{100, -3, 1 << 40} {
		at := reportRotation(seed, reportPanel)
		seen := make(map[int64]bool)
		for k := 0; k < n; k++ {
			seen[at(k).seed] = true
		}
		if len(seen) != n {
			t.Errorf("seed %d covers %d of %d panel seeds in %d reports", seed, len(seen), n, n)
		}
	}
}

func TestFamilyCoversGrid(t *testing.T) {
	for label, want := range map[string]string{
		"generate/C":              "workload.generate_s",
		"table2":                  "analysis.characterize_s",
		"A/fig1":                  "analysis.characterize_s",
		"D/fig6-resource-ratio":   "analysis.characterize_s",
		"B/run/dynamic":           "core.planner_runs_s",
		"C/sensitivity/bound=0.8": "core.sensitivity_s",
		"A/interval/4h":           "experiments.section7_s",
		"A/predictor/combined":    "experiments.section7_s",
		"A/improved-migration":    "experiments.section7_s",
		"A/execution":             "executor.execution_s",
		"A/failure":               "executor.execution_s",
		"A/blades":                "experiments.blades_s",
		"A/verify-emulator":       "emulator.verify_s",
		"A/fig10-11-utilization":  "experiments.figures_s",
		"B/fig12-active":          "experiments.figures_s",
		"olio":                    "experiments.other_s",
		"migration-model":         "experiments.other_s",
	} {
		if got := family(label); got != want {
			t.Errorf("family(%q) = %s, want %s", label, got, want)
		}
	}
}
