package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"vmwild/internal/core"
	"vmwild/internal/emulator"
	"vmwild/internal/experiments"
	"vmwild/internal/sweep"
	"vmwild/internal/workload"
)

// The report workload is the offline path: the full reproduction grid
// (generate → analyze → size → pack → emulate → render) run sequentially,
// so per-cell times add up to the report's. It touches no socket or disk.
// Each report is checked against a committed SHA-256 digest.

// reportRotation returns the panel entries a run renders, in order: the
// run starts at the benchmark seed's own entry when the panel has one (at
// entry seed mod len otherwise) and walks the panel from there, so every
// run covers several report seeds and per-seed cost differences average
// out inside a run rather than across runs.
func reportRotation(seed int64, panel []panelSeed) func(k int) panelSeed {
	n := int64(len(panel))
	start := (seed%n + n) % n
	for i, p := range panel {
		if p.seed == seed {
			start = int64(i)
		}
	}
	return func(k int) panelSeed { return panel[(start+int64(k))%n] }
}

// family names the per-layer metric a report grid cell counts toward. A
// label is "<estate>/<kind>", "generate/<estate>", or a bare study name.
func family(label string) string {
	estate, kind, _ := strings.Cut(label, "/")
	switch {
	case estate == "generate":
		return "workload.generate_s"
	case label == "table2", kind == "fig1", strings.HasPrefix(kind, "fig2-"), strings.HasPrefix(kind, "fig3-"),
		strings.HasPrefix(kind, "fig4-"), strings.HasPrefix(kind, "fig5-"), strings.HasPrefix(kind, "fig6-"):
		return "analysis.characterize_s"
	case strings.HasPrefix(kind, "run/"):
		return "core.planner_runs_s"
	case strings.HasPrefix(kind, "sensitivity/"):
		return "core.sensitivity_s"
	case strings.HasPrefix(kind, "interval/"), strings.HasPrefix(kind, "predictor/"), kind == "improved-migration":
		return "experiments.section7_s"
	case kind == "execution", kind == "failure":
		return "executor.execution_s"
	case kind == "blades":
		return "experiments.blades_s"
	case kind == "verify-emulator":
		return "emulator.verify_s"
	case strings.HasPrefix(kind, "fig"):
		// Figures 7-12 read the memoized planner runs.
		return "experiments.figures_s"
	default:
		// The olio and migration-model micro-studies, and any cell a
		// later grid adds, so the families always sum to the grid.
		return "experiments.other_s"
	}
}

// cellSpan is one finished grid cell, as its progress event reported it.
type cellSpan struct {
	label      string
	start, end time.Time
}

// reportRun is one timed report.
type reportRun struct {
	start, collected, end time.Time
	cells                 []cellSpan
}

func (run reportRun) total() time.Duration  { return run.end.Sub(run.start) }
func (run reportRun) render() time.Duration { return run.end.Sub(run.collected) }

// renderReport renders the report at cfg and checks its digest. With
// record set it keeps every cell's progress event.
func renderReport(cfg experiments.Config, want string, record bool) (reportRun, *experiments.Results, error) {
	var run reportRun
	opts := experiments.Options{Workers: 1}
	if record {
		opts.Progress = func(ev sweep.Event) {
			end := time.Now()
			run.cells = append(run.cells, cellSpan{ev.Label, end.Add(-ev.Elapsed), end})
		}
	}
	var buf bytes.Buffer
	run.start = time.Now()
	res, err := experiments.Collect(context.Background(), cfg, opts)
	run.collected = time.Now()
	if err == nil {
		err = experiments.Render(&buf, res)
	}
	run.end = time.Now()
	if err != nil {
		return run, nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		return run, nil, fmt.Errorf("report at seed %d: SHA-256 %s, want %s", cfg.Seed, got, want)
	}
	return run, res, nil
}

func runReport(o options, r *result) error { return runReportWith(o, r, reportPanel) }

func runReportWith(o options, r *result, panel []panelSeed) error {
	seedAt := reportRotation(o.seed, panel)
	configAt := func(k int) (experiments.Config, string) {
		cfg := experiments.DefaultConfig()
		cfg.Seed = seedAt(k).seed
		return cfg, seedAt(k).sha256
	}

	// Set-up is one warm-up report: the first report of a process pays
	// heap growth and first-touch page faults that later ones do not.
	cfg, want := configAt(0)
	w := startWindow()
	_, _, err := renderReport(cfg, want, false)
	wall, stolen := w.stop()
	r.attempt(err)
	setupS := seconds(wall - stolen)
	r.endToEnd("setup_s", setupS)
	r.show("setup_s", setupS, "s")

	t := r.spans
	var (
		totals    []float64
		seeds     []string
		runs      []reportRun // traced runs only
		lastRes   *experiments.Results
		stolenAll time.Duration
	)
	phase := startWindow()
	for k := 0; k == 0 || time.Since(phase.start) < o.seconds; k++ {
		cfg, want = configAt(k)
		seeds = append(seeds, strconv.FormatInt(cfg.Seed, 10))
		w := startWindow()
		run, res, err := renderReport(cfg, want, r.traced)
		wall, stolen := w.stop()
		r.attempt(err)
		totals = append(totals, seconds(wall-stolen))
		stolenAll += stolen
		if r.traced {
			runs = append(runs, run)
			lastRes = res
		}
	}
	elapsed, _ := phase.stop()
	elapsed -= stolenAll

	p50 := median(totals)
	tail := tailOf(totals, 0.9)
	r.endToEnd("rate_per_s", float64(len(totals))/seconds(elapsed))
	r.endToEnd("latency_p50_ms", p50*1000)
	r.endToEnd("latency_tail_ms", tail*1000)
	r.show("report_s", p50, fmt.Sprintf("s (median of %d reports)", len(totals)))
	r.show("steal_share", float64(stolenAll)/float64(elapsed+stolenAll), "of the measured phase")
	r.note("report_seeds", strings.Join(seeds, ","))
	if !r.traced {
		return nil
	}

	// Per-layer: each family's median over the run's reports, and the
	// reconciliation of cells plus render against the report's total.
	fams := make(map[string][]float64)
	var cellMax, worstGap float64
	for i, run := range runs {
		id := fmt.Sprintf("report/%d", i)
		parent := t.add("experiments.report", id, -1, run.start, run.end)
		collect := t.add("experiments.collect", id, parent, run.start, run.collected)
		t.add("experiments.render", id, parent, run.collected, run.end)
		sums := map[string]float64{"experiments.render_s": seconds(run.render())}
		covered := run.render()
		for _, c := range run.cells {
			t.add("experiments.cell", c.label, collect, c.start, c.end)
			d := c.end.Sub(c.start)
			sums[family(c.label)] += seconds(d)
			covered += d
			cellMax = max(cellMax, seconds(d))
		}
		for f, v := range sums {
			fams[f] = append(fams[f], v)
		}
		gap := math.Abs(seconds(covered-run.total())) / seconds(run.total())
		worstGap = max(worstGap, gap)
	}
	for f, vs := range fams {
		r.layer(f, median(vs))
	}
	r.layer("experiments.cell_max_s", cellMax)
	r.layer("experiments.reconcile_frac", worstGap)
	if worstGap > 0.05 {
		r.fail(fmt.Errorf("cell families plus render miss report_s by %.1f%% (bar 5%%)", worstGap*100))
	}
	r.layer("trace.latency_p50_ms", p50*1000)

	if lastRes == nil {
		return errors.New("the last report failed; no results to check the estate pipeline against")
	}
	if err := estatePipeline(cfg, lastRes, r); err != nil {
		return err
	}
	r.layer("trace.spans", float64(t.len()))
	return nil
}

// estateNames are the four study data centers in Table 2 order.
var estateNames = []string{"A", "B", "C", "D"}

// estateLayerMetrics are timed per estate around the planner pipeline's
// public calls, and summed over the estates.
var estateLayerMetrics = []string{
	"sizing.dynamic_demands_s",
	"placement.semistatic_s",
	"placement.stochastic_s",
	"placement.dynamic_s",
	"emulator.replay_s",
	"placement.active_hosts",
}

func estateLayerUnit(name string) string {
	if name == "placement.active_hosts" {
		return "count"
	}
	return "s"
}

// estatePipeline re-runs each estate's baseline planning outside the grid,
// timing SizeDynamicDemands, each Planner.Plan and each emulator replay,
// and checks that every plan provisions what the report's Figure 7 says.
func estatePipeline(cfg experiments.Config, res *experiments.Results, r *result) error {
	t := r.spans
	totals := make(map[string]float64)
	for i, p := range workload.Profiles() {
		c, err := experiments.NewContext(p, cfg)
		if err != nil {
			return err
		}
		vals := make(map[string]float64)
		timed := func(name string, f func() error) error {
			s := time.Now()
			err := f()
			e := time.Now()
			t.add(name, p.Name, -1, s, e)
			vals[name] += seconds(e.Sub(s))
			return err
		}
		in := c.Input()
		var demands *core.DemandMatrix
		if err := timed("sizing.dynamic_demands_s", func() (err error) {
			demands, err = core.SizeDynamicDemands(in)
			return err
		}); err != nil {
			return err
		}
		for j, pl := range experiments.Planners() {
			pin := in
			name := "placement.semistatic_s"
			switch pl.(type) {
			case core.Stochastic:
				name = "placement.stochastic_s"
			case core.Dynamic:
				name = "placement.dynamic_s"
				pin.Demands = demands
			}
			var plan *core.Plan
			if err := timed(name, func() (err error) {
				plan, err = pl.Plan(pin)
				return err
			}); err != nil {
				return err
			}
			var replay *emulator.Result
			if err := timed("emulator.replay_s", func() (err error) {
				replay, err = emulator.Run(c.Evaluation, plan.Schedule, c.Evaluation.Servers[0].Series.Len(), c.EmulatorConfig())
				return err
			}); err != nil {
				return err
			}
			vals["placement.active_hosts"] += float64(plan.Provisioned)
			row := res.Costs[i][j]
			r.attempt(func() error {
				if row.Planner != pl.Name() || row.Hosts != plan.Provisioned || row.Migrations != plan.Migrations ||
					row.AvgPowerW != replay.AvgPowerWatts() {
					return fmt.Errorf("estate %s %s: hosts %d, migrations %d, power %v; the report has %d, %d, %v",
						p.Name, pl.Name(), plan.Provisioned, plan.Migrations, replay.AvgPowerWatts(),
						row.Hosts, row.Migrations, row.AvgPowerW)
				}
				return nil
			}())
		}
		for name, v := range vals {
			r.layer(name+"."+p.Name, v)
			totals[name] += v
		}
	}
	for name, v := range totals {
		r.layer(name, v)
	}
	return nil
}
