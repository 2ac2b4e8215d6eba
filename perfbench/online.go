package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vmwild"
)

// The online workload is the paper's monitor → predict → size → place →
// migrate loop over the real serving plane on loopback, with the shipped
// daemon defaults (vmwildd): per-shard WAL with interval fsync and the
// default checkpoint cadence, snapshot replicas on, 30-day retention.
//
// One ReliableSender replays the Banking profile at 50 servers into the
// warehouse; one QueryClient with consistent reads is the
// controller's fetch. Both are closed loops: the next flush or interval
// starts only after the previous one returned.

// onlineSize fixes the workload's scale. The self-test shrinks it.
type onlineSize struct {
	servers int
	// backfillHours is streamed before the first interval; the paper's
	// planning window puts retention at steady state.
	backfillHours int
	// minIntervals is both the floor on intervals per run (ten beyond
	// p90) and the prefix the decision counts are summed over, so the
	// counts repeat exactly at a seed whatever the run length.
	minIntervals int
	maxIntervals int
}

var defaultOnline = onlineSize{servers: 50, backfillHours: vmwild.MonitoringHours, minIntervals: 100, maxIntervals: 1000}

// planningHours is the window every fetch must deliver.
const planningHours = vmwild.MonitoringHours

// onlineSystem is one set-up instance of the loop.
type onlineSystem struct {
	dir string
	fleet
	// backfill holds the pre-generated samples, one 2-hour block each.
	backfill [][]vmwild.MonitorSample

	servingPlane
	wlog    *vmwild.WarehouseLog
	journal *vmwild.ControllerJournal
	ctrl    *vmwild.Controller

	// The fetch closure leaves its timing and result here for the caller.
	fetchStart, fetchEnd time.Time
	fetched              *vmwild.TraceSet

	// ref is the oracle: the same samples ingested in-process into a
	// plain warehouse (no WAL, sockets or replicas), planned by a second
	// controller. Online fetches and decisions must equal its.
	ref     *vmwild.Warehouse
	refCtrl *vmwild.Controller
	refSet  *vmwild.TraceSet
}

// trailing keeps the last n hours of every series (all of them when
// shorter); the gate, not the trim, rejects a short set.
func trailing(set *vmwild.TraceSet, n int) (*vmwild.TraceSet, error) {
	if len(set.Servers) == 0 {
		return set, nil
	}
	total := set.Servers[0].Series.Len()
	return set.SliceAll(max(0, total-n), total)
}

// blockSamples collects the 2-hour block that starts at hour h.
func (s *onlineSystem) blockSamples(h int) ([]vmwild.MonitorSample, error) {
	return s.collect(make([]vmwild.MonitorSample, 0, 2*samplesPerHour*len(s.sources)),
		h*samplesPerHour, (h+2)*samplesPerHour)
}

func setUpOnline(o options, size onlineSize) (*onlineSystem, error) {
	s := &onlineSystem{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.fleet, err = newFleet(size.servers, size.backfillHours+2*size.maxIntervals+2, o.seed); err != nil {
		return nil, err
	}
	for h := 0; h < size.backfillHours; h += 2 {
		block, err := s.blockSamples(h)
		if err != nil {
			return nil, err
		}
		s.backfill = append(s.backfill, block)
	}

	if s.dir, err = os.MkdirTemp("", "perfbench-online-"); err != nil {
		return nil, err
	}
	s.wh = newWarehouse()
	walOpts := vmwild.WALOptions{Sync: vmwild.SyncInterval}
	if s.wlog, err = vmwild.OpenWarehouseLog(s.wh, filepath.Join(s.dir, "warehouse"), 0, walOpts); err != nil {
		return nil, err
	}
	if err := s.start("perfbench-agent", o.seed); err != nil {
		return nil, err
	}
	s.client.Consistent = true
	if s.journal, err = vmwild.OpenControllerJournal(filepath.Join(s.dir, "controller"), walOpts); err != nil {
		return nil, err
	}

	planner := vmwild.PlanInput{Host: vmwild.HS23Elite()}
	if s.ctrl, err = vmwild.NewController(vmwild.ControllerConfig{
		Fetch:    s.fetch,
		Planner:  planner,
		Executor: vmwild.DefaultExecutorConfig(),
		Journal:  s.journal,
	}); err != nil {
		return nil, err
	}
	s.ref = vmwild.NewWarehouse(retention)
	if s.refCtrl, err = vmwild.NewController(vmwild.ControllerConfig{
		Fetch: func() (*vmwild.TraceSet, error) {
			set, err := s.ref.CollectSet(s.set.Name, s.specs, epoch)
			if err == nil {
				set, err = trailing(set, planningHours)
			}
			s.refSet = set
			return set, err
		},
		Planner:  planner,
		Executor: vmwild.DefaultExecutorConfig(),
	}); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// fetch is the controller's monitoring fetch: one pipelined FetchSet with
// consistent reads, trimmed to the planning window.
func (s *onlineSystem) fetch() (*vmwild.TraceSet, error) {
	s.fetchStart = time.Now()
	set, err := s.client.FetchSet(s.set.Name, s.specs, epoch)
	if err == nil {
		set, err = trailing(set, planningHours)
	}
	s.fetchEnd = time.Now()
	s.fetched = set
	return set, err
}

func (s *onlineSystem) close() {
	s.servingPlane.close()
	if s.wlog != nil {
		if err := s.wlog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close warehouse log:", err)
		}
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close controller journal:", err)
		}
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: remove WAL directory:", err)
		}
	}
}

func runOnline(o options, r *result) error { return runOnlineSized(o, r, defaultOnline) }

func runOnlineSized(o options, r *result, size onlineSize) error {
	s, setupS, err := setUpMedian(setups, func() (*onlineSystem, error) { return setUpOnline(o, size) },
		(*onlineSystem).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.endToEnd("setup_s", setupS)
	r.show("setup_s", setupS, "s")
	ctx := context.Background()
	t := r.spans
	var flushMs []float64
	backfill := startWindow()

	// Phase 1: the 30-day backfill, ending with a WAL sync.
	for b, block := range s.backfill {
		for _, smp := range block {
			s.sender.Queue(smp)
		}
		fs := time.Now()
		err := s.sender.Flush(ctx, flushAttempts)
		fe := time.Now()
		t.add("monitor.flush", "backfill/"+strconv.Itoa(b), -1, fs, fe)
		flushMs = append(flushMs, millis(fe.Sub(fs)))
		r.attempt(err)
	}
	ss := time.Now()
	err = s.wlog.Sync()
	t.add("wal.sync", "backfill", -1, ss, time.Now())
	r.attempt(err)
	wall, stolen := backfill.stop()
	backfillS := seconds(wall - stolen)
	acked := s.sender.Counters().Acked
	walBytes := s.wlog.BytesWritten()
	for _, block := range s.backfill {
		s.ref.IngestBatch(block)
	}
	s.backfill = nil

	// Phase 2: 2-hour intervals until the run's time is up.
	var (
		decisions, fetchMs, decideMs []float64
		counts                       struct{ migrations, active, attempts int }
	)
	intervalPhase := startWindow()
	for k := 0; k < size.maxIntervals && (k < size.minIntervals || time.Since(backfill.start) < o.seconds); k++ {
		h := size.backfillHours + 2*k
		block, err := s.blockSamples(h)
		if err != nil {
			return err
		}
		for _, smp := range block {
			s.sender.Queue(smp)
		}
		id := strconv.Itoa(k)
		fs := time.Now()
		err = s.sender.Flush(ctx, flushAttempts)
		fe := time.Now()
		t.add("monitor.flush", "interval/"+id, -1, fs, fe)
		flushMs = append(flushMs, millis(fe.Sub(fs)))
		if err != nil {
			r.attempt(fmt.Errorf("interval %d: flush: %w", k, err))
			continue
		}
		s.ref.IngestBatch(block)

		ds := time.Now()
		tick, err := s.ctrl.RunInterval()
		de := time.Now()
		parent := t.add("controller.run_interval", id, -1, ds, de)
		t.add("controller.fetch", id, parent, s.fetchStart, s.fetchEnd)
		decisions = append(decisions, millis(de.Sub(ds)))
		// The fetch is the decision's child: its span must nest inside,
		// and the rest of the decision is predict, size, place, execute
		// and the journal commit.
		fetch := s.fetchEnd.Sub(s.fetchStart)
		if s.fetchStart.Before(ds) || s.fetchEnd.After(de) {
			r.fail(fmt.Errorf("interval %d: fetch span does not nest inside its decision", k))
		}
		fetchMs = append(fetchMs, millis(fetch))
		decideMs = append(decideMs, millis(de.Sub(ds)-fetch))
		if err != nil {
			r.attempt(fmt.Errorf("interval %d: %w", k, err))
			continue
		}
		r.attempt(s.checkInterval(k, tick, block, size))
		if k < size.minIntervals {
			counts.migrations += tick.Step.Migrations
			counts.active += tick.Step.ActiveHosts
			counts.attempts += tick.Moves.Attempted
		}
		s.fetched = nil
	}
	r.attempt(s.checkLedger())

	// Decisions are too short for the tick-grained steal accounting, so the
	// interval phase's net share scales each.
	f := netFactor(intervalPhase.stop())
	intervals := len(decisions)
	p50, tail := median(decisions)*f, tailOf(decisions, 0.9)*f
	rate := float64(acked) / backfillS
	r.endToEnd("rate_per_s", rate)
	r.endToEnd("latency_p50_ms", p50)
	r.endToEnd("latency_tail_ms", tail)
	r.show("backfill_samples_per_s", rate, fmt.Sprintf("1/s (%d samples in %.3f s net of steal)", acked, backfillS))
	r.show("decision_p50_ms", p50, fmt.Sprintf("ms (%d intervals)", intervals))
	r.show("decision_p90_ms", tail, "ms")
	r.show("steal_share", 1-f, "of the interval phase")

	if !r.traced {
		return nil
	}
	r.layer("monitor.flush_ms", mean(flushMs))
	r.layer("monitor.flushes", float64(len(flushMs)))
	r.layer("monitor.retries", float64(s.sender.Counters().Retries))
	if acked > 0 {
		r.layer("wal.bytes_per_sample", float64(walBytes)/float64(acked))
	}
	r.layer("controller.fetch_ms", mean(fetchMs))
	r.layer("controller.decide_ms", mean(decideMs))
	if intervals > 0 {
		r.layer("controller.journal_bytes_per_interval", float64(s.journal.BytesWritten())/float64(intervals))
	}
	r.layer("controller.intervals", float64(intervals))
	r.layer("core.migrations", float64(counts.migrations))
	r.layer("core.active_hosts", float64(counts.active))
	r.layer("executor.attempts", float64(counts.attempts))
	s.layers(r)
	r.layer("trace.latency_p50_ms", p50)
	r.layer("trace.spans", float64(t.len()))
	return nil
}

// checkInterval gates one interval: the fetched set is the full planning
// window, ends at the interval's last hour, equals the oracle's, and the
// decision equals the oracle controller's on the same data.
func (s *onlineSystem) checkInterval(k int, tick vmwild.ControllerTick, block []vmwild.MonitorSample, size onlineSize) error {
	got := s.fetched
	if got == nil || len(got.Servers) != len(s.set.Servers) {
		return fmt.Errorf("interval %d: fetched set missing servers", k)
	}
	refTick, err := s.refCtrl.RunInterval()
	if err != nil {
		return fmt.Errorf("interval %d: reference: %w", k, err)
	}
	want := s.refSet
	// The last hour of the block, per server, in arrival order.
	n := len(s.sources)
	last := block[len(block)-samplesPerHour*n:]
	for i, st := range got.Servers {
		if st.Series.Len() != planningHours {
			return fmt.Errorf("interval %d: server %s fetched %d hours, want %d", k, st.ID, st.Series.Len(), planningHours)
		}
		w := want.Servers[i]
		if st.ID != w.ID || st.Spec != w.Spec {
			return fmt.Errorf("interval %d: server %d is %s, reference has %s", k, i, st.ID, w.ID)
		}
		for h, u := range st.Series.Samples {
			if u != w.Series.Samples[h] {
				return fmt.Errorf("interval %d: server %s hour %d: fetched %+v, reference %+v", k, st.ID, h, u, w.Series.Samples[h])
			}
		}
		var sumPct, sumMem float64
		cnt := 0
		for j := i; j < len(last); j += n {
			if last[j].Server != st.ID {
				return fmt.Errorf("interval %d: sample order: got %s, want %s", k, last[j].Server, st.ID)
			}
			sumPct += last[j].TotalProcessorPct
			sumMem += last[j].MemCommittedMB
			cnt++
		}
		nn := float64(cnt)
		end := vmwild.Usage{CPU: sumPct / nn / 100 * st.Spec.CPURPE2, Mem: sumMem / nn}
		if got := st.Series.Samples[st.Series.Len()-1]; got != end {
			return fmt.Errorf("interval %d: server %s last hour is %+v, want hour %d's %+v", k, st.ID, got, size.backfillHours+2*k+1, end)
		}
	}
	if tick.Step.ActiveHosts != refTick.Step.ActiveHosts || tick.Step.Migrations != refTick.Step.Migrations ||
		tick.Moves.Attempted != refTick.Moves.Attempted {
		return fmt.Errorf("interval %d: decision (hosts %d, migrations %d, attempts %d) differs from reference (%d, %d, %d)",
			k, tick.Step.ActiveHosts, tick.Step.Migrations, tick.Moves.Attempted,
			refTick.Step.ActiveHosts, refTick.Step.Migrations, refTick.Moves.Attempted)
	}
	return nil
}
