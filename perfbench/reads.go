package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"vmwild"
)

// The reads workload is read-mostly serving: 30 days of Banking history
// loaded in-process at set-up, then 16 closed-loop callers share one
// pipelined QueryClient and ask for 720-hour series windows of servers
// drawn from the seed. Alongside, one ReliableSender adds a monitoring tick
// (one sample per server) every trickleEvery, so replica publishes and
// memo-cache invalidations compete with the reads. No WAL, no planning.

const trickleEvery = 100 * time.Millisecond

// tailWindow is the width p99 is taken over: about 2,000 queries, twenty
// beyond p99, and 15 windows in a 30-second run.
const tailWindow = 2 * time.Second

// readsSize fixes the workload's scale. The self-test shrinks it.
type readsSize struct {
	servers   int
	loadHours int
	callers   int
}

var defaultReads = readsSize{servers: 50, loadHours: vmwild.MonitoringHours, callers: 16}

// readsSystem is one set-up instance.
type readsSystem struct {
	fleet
	servingPlane
}

func setUpReads(o options, size readsSize) (*readsSystem, error) {
	s := &readsSystem{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	trickleHours := int(o.seconds/trickleEvery)/samplesPerHour + 2
	var err error
	if s.fleet, err = newFleet(size.servers, size.loadHours+trickleHours, o.seed); err != nil {
		return nil, err
	}
	s.wh = newWarehouse()
	batch := make([]vmwild.MonitorSample, 0, samplesPerHour*len(s.sources))
	for h := 0; h < size.loadHours; h++ {
		if batch, err = s.collect(batch[:0], h*samplesPerHour, (h+1)*samplesPerHour); err != nil {
			return nil, err
		}
		s.wh.IngestBatch(batch)
	}
	if err := s.start("perfbench-trickle", o.seed); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

func runReads(o options, r *result) error { return runReadsSized(o, r, defaultReads) }

// callerStats is one caller's share of the measured phase.
type callerStats struct {
	latencies []float64       // microseconds
	at        []time.Duration // when each query started, from the phase start
	failures  []error
	ops       int
}

func runReadsSized(o options, r *result, size readsSize) error {
	s, setupS, err := setUpMedian(setups, func() (*readsSystem, error) { return setUpReads(o, size) },
		func(s *readsSystem) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()
	r.endToEnd("setup_s", setupS)
	r.show("setup_s", setupS, "s")
	t := r.spans

	phase := startWindow()
	deadline := phase.start.Add(o.seconds)
	var (
		wg      sync.WaitGroup
		callers = make([]callerStats, size.callers)
		trickle callerStats
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := size.loadHours * samplesPerHour
		tk := time.NewTicker(trickleEvery)
		defer tk.Stop()
		for now := range tk.C {
			if !now.Before(deadline) {
				return
			}
			smps, err := s.collect(nil, next, next+1)
			next++
			if err != nil {
				trickle.ops++
				trickle.failures = append(trickle.failures, err)
				return
			}
			for _, smp := range smps {
				s.sender.Queue(smp)
			}
			fs := time.Now()
			err = s.sender.Flush(context.Background(), flushAttempts)
			fe := time.Now()
			t.add("monitor.flush", "trickle/"+strconv.Itoa(trickle.ops), -1, fs, fe)
			trickle.ops++
			trickle.latencies = append(trickle.latencies, float64(fe.Sub(fs))/float64(time.Microsecond))
			if err != nil {
				trickle.failures = append(trickle.failures, fmt.Errorf("trickle flush: %w", err))
			}
		}
	}()
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &callers[c]
			rng := rand.New(rand.NewSource(o.seed*1000003 + int64(c)))
			for n := 0; time.Now().Before(deadline); n++ {
				srv := s.set.Servers[rng.Intn(len(s.set.Servers))]
				id := srv.ID
				qs := time.Now()
				series, err := s.client.HourlySeriesWindow(id, srv.Spec, epoch, planningHours)
				qe := time.Now()
				t.add("query.series", strconv.Itoa(c)+"/"+strconv.Itoa(n), -1, qs, qe)
				st.ops++
				switch {
				case err != nil:
					st.failures = append(st.failures, fmt.Errorf("query %s: %w", id, err))
				case series.Len() != planningHours:
					st.failures = append(st.failures, fmt.Errorf("query %s: %d hours, want %d", id, series.Len(), planningHours))
				default:
					st.latencies = append(st.latencies, float64(qe.Sub(qs))/float64(time.Microsecond))
					st.at = append(st.at, qs.Sub(phase.start))
				}
			}
		}(c)
	}
	wg.Wait()
	// Queries are too short for the tick-grained steal accounting, so the
	// phase's net share scales each.
	elapsed, stolen := phase.stop()
	f := netFactor(elapsed, stolen)

	var (
		lat []float64
		at  []time.Duration
	)
	for _, st := range append(callers, trickle) {
		r.attempts(st.ops, st.failures)
	}
	for _, st := range callers {
		lat = append(lat, st.latencies...)
		at = append(at, st.at...)
	}
	if trickle.ops == 0 {
		r.fail(fmt.Errorf("the trickle sender never flushed"))
	}
	r.attempt(s.checkLedger())
	s.spotCheck(r)
	if len(lat) == 0 {
		return fmt.Errorf("no query succeeded")
	}

	rate := float64(len(lat)) / seconds(elapsed-stolen)
	p50 := median(lat) * f
	tail := windowTail(at, lat, tailWindow, 0.99) * f
	r.endToEnd("rate_per_s", rate)
	r.endToEnd("latency_p50_ms", p50/1000)
	r.endToEnd("latency_tail_ms", tail/1000)
	r.show("query_per_s", rate, fmt.Sprintf("1/s (%d queries in %.3f s net of steal)", len(lat), seconds(elapsed-stolen)))
	r.show("query_p50_us", p50, "us")
	r.show("query_p99_us", tail, "us")
	r.show("steal_share", 1-f, "of the measured phase")
	if !r.traced {
		return nil
	}
	r.layer("monitor.flush_ms", mean(trickle.latencies)/1000)
	r.layer("monitor.flushes", float64(trickle.ops))
	r.layer("monitor.retries", float64(s.sender.Counters().Retries))
	s.layers(r)
	r.layer("trace.latency_p50_ms", p50/1000)
	r.layer("trace.spans", float64(t.len()))
	return nil
}

// spotCheck compares, at a quiescent point (trickle stopped, replicas
// republished), every server's window over the wire with the warehouse's
// live answer.
func (s *readsSystem) spotCheck(r *result) {
	s.wh.PublishReplicas()
	for _, st := range s.set.Servers {
		id := st.ID
		r.attempt(func() error {
			got, err := s.client.HourlySeriesWindow(id, st.Spec, epoch, planningHours)
			if err != nil {
				return fmt.Errorf("spot check %s: %w", id, err)
			}
			want, err := s.wh.HourlySeriesWindow(id, st.Spec, epoch, planningHours)
			if err != nil {
				return fmt.Errorf("spot check %s: live: %w", id, err)
			}
			if got.Len() != want.Len() {
				return fmt.Errorf("spot check %s: %d hours, live has %d", id, got.Len(), want.Len())
			}
			for h, u := range got.Samples {
				if u != want.Samples[h] {
					return fmt.Errorf("spot check %s hour %d: served %+v, live %+v", id, h, u, want.Samples[h])
				}
			}
			return nil
		}())
	}
}
