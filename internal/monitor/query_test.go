package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vmwild/internal/trace"
)

func startQueryServer(t *testing.T, w *Warehouse) (addr string, qs *QueryServer) {
	t.Helper()
	qs = NewQueryServer(w)
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qs.Close() })
	return addr, qs
}

func seedWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := NewWarehouse(0)
	for m := 0; m < 120; m++ {
		ts := epoch.Add(time.Duration(m) * time.Minute)
		w.Ingest(Sample{Server: "a", Timestamp: ts, TotalProcessorPct: 20, MemCommittedMB: 2000})
		w.Ingest(Sample{Server: "b", Timestamp: ts, TotalProcessorPct: 40, MemCommittedMB: 4000})
	}
	return w
}

func TestQueryRoundTrip(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids, err := c.Servers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("servers = %v", ids)
	}

	stat, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stat.Servers != 2 || stat.Samples != 240 {
		t.Errorf("stats = %+v", stat)
	}

	spec := trace.Spec{CPURPE2: 1000, MemMB: 8192}
	series, err := c.HourlySeries("a", spec, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() != 2 {
		t.Fatalf("series length = %d", series.Len())
	}
	// 20% of 1000 RPE2 = 200.
	if math.Abs(series.Samples[0].CPU-200) > 1e-9 || math.Abs(series.Samples[0].Mem-2000) > 1e-9 {
		t.Errorf("hour 0 = %+v", series.Samples[0])
	}

	set, err := c.FetchSet("dc", map[trace.ServerID]trace.Spec{"a": spec, "b": spec}, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Servers) != 2 {
		t.Fatalf("fetched %d servers", len(set.Servers))
	}
	if math.Abs(set.Servers[1].Series.Samples[0].CPU-400) > 1e-9 {
		t.Errorf("server b hour 0 = %+v", set.Servers[1].Series.Samples[0])
	}
}

func TestQueryErrors(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unknown server.
	if _, err := c.HourlySeries("ghost", trace.Spec{CPURPE2: 1, MemMB: 1}, epoch); err == nil {
		t.Error("expected error for unknown server")
	}
	// The connection must survive an error response.
	if _, err := c.Servers(); err != nil {
		t.Errorf("connection unusable after error: %v", err)
	}
	// Missing spec in FetchSet.
	if _, err := c.FetchSet("dc", map[trace.ServerID]trace.Spec{"a": {CPURPE2: 1, MemMB: 1}}, epoch); err == nil {
		t.Error("expected error for missing spec")
	}
}

func TestQueryUnknownOpAndMalformed(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(conn)

	// Unknown op yields ok=false but keeps serving.
	if err := enc.Encode(map[string]string{"op": "nonsense"}); err != nil {
		t.Fatal(err)
	}
	var resp queryResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("unknown op response = %+v", resp)
	}
	// Still serving on the same connection.
	if err := enc.Encode(map[string]string{"op": "servers"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Servers) != 2 {
		t.Errorf("servers after error = %+v", resp)
	}
}

func TestQueryMalformedJSONKeepsConnUsable(t *testing.T) {
	w := seedWarehouse(t)
	addr, _ := startQueryServer(t, w)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The bounded malformed line is answered with an error response and
	// the connection stays usable for well-formed requests.
	dec := json.NewDecoder(conn)
	var resp queryResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("malformed request response = %+v", resp)
	}
	if err := json.NewEncoder(conn).Encode(map[string]string{"op": "servers"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Servers) != 2 {
		t.Errorf("servers after malformed request = %+v", resp)
	}
}

func TestQueryServerCloseUnblocks(t *testing.T) {
	w := seedWarehouse(t)
	qs := NewQueryServer(w)
	if _, err := qs.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- qs.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestQueryClientConcurrentMix drives one QueryClient from 16 goroutines
// with every operation mixed together, replica and consistent series
// side by side, and requires each answer to equal the in-process
// warehouse's, float for float and error text for error text. Run it
// under -race -count=10: response lines are decoded on the calling
// goroutines, so this is where a demultiplexing or buffer-reuse race
// would show.
func TestQueryClientConcurrentMix(t *testing.T) {
	w := NewWarehouse(0)
	defer w.Close()
	rng := rand.New(rand.NewSource(20141208))
	var ids []trace.ServerID
	// 21 days of hourly samples: long enough for the advise op's planner.
	for s := 0; s < 4; s++ {
		id := trace.ServerID(fmt.Sprintf("mix-%d", s))
		ids = append(ids, id)
		for h := 0; h < 21*24; h++ {
			w.Ingest(Sample{Server: id, Timestamp: epoch.Add(time.Duration(h) * time.Hour),
				TotalProcessorPct: 10 + 30*rng.Float64(), MemCommittedMB: 4096 + 1024*rng.Float64()})
		}
	}
	if err := w.EnableReplicas(ReplicaConfig{NoBackground: true}); err != nil {
		t.Fatal(err)
	}
	w.PublishReplicas()
	addr, _ := startQueryServer(t, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := DialQuery(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := trace.Spec{CPURPE2: 2000, MemMB: 16384}
	wantAdvice, err := w.Advise(AdviseRequest{Spec: spec, Epoch: epoch, WindowHours: 14 * 24})
	if err != nil {
		t.Fatal(err)
	}
	sameSeries := func(got []trace.Usage, want *trace.Series) error {
		if len(got) != want.Len() {
			return fmt.Errorf("%d hours, want %d", len(got), want.Len())
		}
		for i, u := range want.Samples {
			if math.Float64bits(got[i].CPU) != math.Float64bits(u.CPU) ||
				math.Float64bits(got[i].Mem) != math.Float64bits(u.Mem) {
				return fmt.Errorf("hour %d = %+v, want %+v", i, got[i], u)
			}
		}
		return nil
	}

	const callers, ops = 16, 24
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for op := 0; op < ops; op++ {
				id := ids[rng.Intn(len(ids))]
				lastHours := []int{0, 24, 720}[rng.Intn(3)]
				var err error
				switch kind := (g + op) % 8; kind {
				case 0, 1: // replica series, the planner's fetch
					want, werr := w.HourlySeriesWindow(id, spec, epoch, lastHours)
					got, gerr := c.HourlySeriesWindow(id, spec, epoch, lastHours)
					if werr != nil || gerr != nil {
						err = fmt.Errorf("series %s: client %v, warehouse %v", id, gerr, werr)
					} else if serr := sameSeries(got.Samples, want); serr != nil {
						err = fmt.Errorf("series %s/%d: %v", id, lastHours, serr)
					}
				case 2: // consistent series, the live-shard branch
					want, werr := w.HourlySeriesWindow(id, spec, epoch, lastHours)
					resp, gerr := c.roundTrip(queryRequest{Op: "series", Consistent: true, Server: id,
						CPURPE2: spec.CPURPE2, MemMB: spec.MemMB, Epoch: epoch, LastHours: lastHours})
					if werr != nil || gerr != nil {
						err = fmt.Errorf("consistent series %s: client %v, warehouse %v", id, gerr, werr)
					} else if serr := sameSeries(resp.Samples, want); serr != nil {
						err = fmt.Errorf("consistent series %s/%d: %v", id, lastHours, serr)
					}
				case 3:
					got, gerr := c.Stats()
					if want := w.Stats(); gerr != nil || got != want {
						err = fmt.Errorf("stats = %+v, %v; want %+v", got, gerr, want)
					}
				case 4:
					got, gerr := c.Servers()
					if want := w.Servers(); gerr != nil || !slices.Equal(got, want) {
						err = fmt.Errorf("servers = %v, %v; want %v", got, gerr, want)
					}
				case 5:
					from := epoch.Add(time.Duration(rng.Intn(400)) * time.Hour).UnixNano()
					to := from + int64(time.Duration(rng.Intn(100))*time.Hour)
					want, werr := w.Range(id, from, to)
					got, gerr := c.Range(id, from, to)
					if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
						err = fmt.Errorf("range %s [%d,%d) = %v, %v; want %v, %v", id, from, to, got, gerr, want, werr)
					}
				case 6:
					if op%3 != 0 { // the advisor plans; keep it to a few calls
						continue
					}
					got, gerr := c.Advise(spec, epoch, 14*24)
					if gerr != nil || !reflect.DeepEqual(got, wantAdvice) {
						err = fmt.Errorf("advise = %+v, %v; want %+v", got, gerr, wantAdvice)
					}
				case 7: // unknown server: the same error text as in-process
					_, werr := w.HourlySeriesWindow("ghost", spec, epoch, 0)
					_, gerr := c.HourlySeries("ghost", spec, epoch)
					if werr == nil || gerr == nil || gerr.Error() != "monitor: query failed: "+werr.Error() {
						err = fmt.Errorf("ghost series: client %v, warehouse %v", gerr, werr)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d op %d: %w", g, op, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// fakeQueryServer accepts one client connection, reads n request lines
// from it (so n calls are pending), writes reply verbatim, and reports
// whether the client then closed the connection.
func fakeQueryServer(t *testing.T, n int, reply func(ids []uint64) []byte) (addr string, clientClosed <-chan error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	closed := make(chan error, 1)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			closed <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		rd := bufio.NewReader(conn)
		var ids []uint64
		for len(ids) < n {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				closed <- err
				return
			}
			var req queryRequest
			if err := json.Unmarshal(line, &req); err != nil {
				closed <- err
				return
			}
			ids = append(ids, req.ID)
		}
		slices.Sort(ids)
		if _, err := conn.Write(reply(ids)); err != nil {
			closed <- err
			return
		}
		// The poisoned client closes its end: the read sees EOF.
		_, err = io.Copy(io.Discard, rd)
		closed <- err
	}()
	return lis.Addr().String(), closed
}

// TestQueryClientPoisonedByBadLine: a response line the client cannot
// trust — undecodable, without a readable id, or two responses merged by
// a corrupted newline — fails every pending call, keeps failing later
// calls with the same error, and closes the connection, as a decode error
// in the reader always did.
func TestQueryClientPoisonedByBadLine(t *testing.T) {
	const pending = 4
	cases := []struct {
		name  string
		reply func(ids []uint64) []byte
	}{
		{"malformed", func(ids []uint64) []byte {
			return fmt.Appendf(nil, `{"id":%d,"ok":true,"servers":["a",]}`+"\n", ids[0])
		}},
		{"truncated series", func(ids []uint64) []byte {
			return fmt.Appendf(nil, `{"id":%d,"ok":true,"samples":[{"cpu":1,"mem":`+"\n", ids[0])
		}},
		{"no id", func([]uint64) []byte {
			return []byte(`{"ok":false,"error":"server under pressure, retry later"}` + "\n")
		}},
		{"merged by corrupted newline", func(ids []uint64) []byte {
			line := fmt.Appendf(nil, `{"id":%d,"ok":true,"servers":["a"]}`+"\n", ids[0])
			line[len(line)-1] ^= 0x80
			return fmt.Appendf(line, `{"id":%d,"ok":true,"samples":[{"cpu":1,"mem":2}]}`+"\n", ids[1])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, closed := fakeQueryServer(t, pending, tc.reply)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c, err := DialQuery(ctx, addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Timeout = 10 * time.Second
			var wg sync.WaitGroup
			errs := make([]error, pending)
			for i := 0; i < pending; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if i%2 == 0 {
						_, errs[i] = c.Servers()
					} else {
						_, errs[i] = c.HourlySeries("a", trace.Spec{CPURPE2: 1, MemMB: 1}, epoch)
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil || !strings.HasPrefix(err.Error(), "monitor: read response: ") {
					t.Errorf("pending call %d: err = %v, want a read-response failure", i, err)
				}
			}
			// Poisoned for good: a later call fails at once, same error.
			if _, err := c.Stats(); err == nil || err.Error() != errs[0].Error() {
				t.Errorf("call after poisoning: err = %v, want %v", err, errs[0])
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("server side: %v, want the client to close cleanly", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("client kept the connection open after poisoning")
			}
		})
	}
}
