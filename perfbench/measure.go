package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (xs is
// not modified). It is the value with at least ceil(q*n) samples at or
// below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailOf returns the q-quantile of xs when at least ten samples lie beyond
// it, and the maximum otherwise.
func tailOf(xs []float64, q float64) float64 {
	if len(xs)-int(math.Ceil(q*float64(len(xs)))) >= 10 {
		return quantile(xs, q)
	}
	return quantile(xs, 1)
}

// windowTail is the median over consecutive windows of the given width of
// each window's q-quantile: a burst of host noise moves the windows it
// hits, not the run's figure. Only windows with at least ten samples beyond
// q count; with none, it is tailOf over all samples. at[i] is when sample
// i started, from the run's start.
func windowTail(at []time.Duration, xs []float64, width time.Duration, q float64) float64 {
	byWindow := make(map[int][]float64)
	for i, x := range xs {
		w := int(at[i] / width)
		byWindow[w] = append(byWindow[w], x)
	}
	var tails []float64
	for _, w := range byWindow {
		if len(w)-int(math.Ceil(q*float64(len(w)))) >= 10 {
			tails = append(tails, quantile(w, q))
		}
	}
	if len(tails) == 0 {
		return tailOf(xs, q)
	}
	return median(tails)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// The recording VM shares its host: at times the hypervisor runs other
// guests on our vCPUs ("steal"), and a 3-second report then takes 5. The
// harness times on a steal-free clock: wall time minus an estimate of how
// long the critical path's vCPU was stolen, read from the VM's own CPU
// accounting in /proc/stat. A critical path that stays runnable on one
// vCPU loses that vCPU's steal; with steal spread evenly over the vCPUs
// that wanted to run, that is the VM's steal over its runnable vCPUs
// (busy plus stolen time over wall time). Work done on a CPU is not
// corrected: a slower host CPU still shows.

// clockTicks is /proc/stat's unit (USER_HZ, 100 on every Linux ABI).
const clockTicks = 100

// vmTicks is the VM-wide CPU accounting, in clock ticks.
type vmTicks struct{ busy, steal int64 }

func readVMTicks() (vmTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmTicks{}, fmt.Errorf("read VM CPU accounting: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return vmTicks{}, fmt.Errorf("read VM CPU accounting: unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return vmTicks{}, fmt.Errorf("read VM CPU accounting: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return vmTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// window is an interval timed on the steal-free clock.
type window struct {
	start time.Time
	ticks vmTicks
	ok    bool
}

func startWindow() window {
	t, err := readVMTicks()
	return window{start: time.Now(), ticks: t, ok: err == nil}
}

// stop returns the window's wall time and the part of it the critical
// path lost to steal.
func (w window) stop() (wall, stolen time.Duration) {
	wall = time.Since(w.start)
	t, err := readVMTicks()
	steal := t.steal - w.ticks.steal
	if !w.ok || err != nil || steal <= 0 || wall <= 0 {
		return wall, 0
	}
	runnable := float64(t.busy-w.ticks.busy+steal) / clockTicks / wall.Seconds()
	stolen = time.Duration(float64(steal) / clockTicks / max(runnable, 1) * float64(time.Second))
	return wall, min(stolen, wall)
}

// netFactor is the share of a window's wall time its critical path ran.
func netFactor(wall, stolen time.Duration) float64 {
	if wall <= 0 {
		return 1
	}
	return float64(wall-stolen) / float64(wall)
}

// setUpMedian runs setup n times and returns the last system with the
// median set-up time. Every system but the last is torn down before the
// next set-up starts, so at most one is alive at a time.
func setUpMedian[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		sys   T
		times []float64
	)
	phase := startWindow()
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(sys)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, seconds(time.Since(start)))
		sys = s
	}
	// One set-up is too short for the tick-grained steal accounting, so the
	// whole phase's net share scales each.
	f := netFactor(phase.stop())
	return sys, median(times) * f, nil
}

// span is one timed call the harness made into a layer. Spans of one unit
// of work share ID: the report cell label, the interval index or the query
// number. Parent is the index of the span that caused this one, -1 for a
// root. Times are nanoseconds since the run's origin.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// add records a finished span and returns its index (-1 when disabled).
func (t *tracer) add(name, id string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name:   name,
		ID:     id,
		Parent: parent,
		Start:  int64(start.Sub(t.origin)),
		End:    int64(end.Sub(t.origin)),
	})
	return len(t.spans) - 1
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
