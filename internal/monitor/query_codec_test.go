package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vmwild/internal/trace"
)

// The series codec's contract is the wire codec's: the server's encoder
// emits exactly what encoding/json emitted for the same answer, and the
// client's decoder returns exactly what json.Unmarshal returns for any
// line, accept and reject alike.

// querySample is the {"cpu","mem"} object the server used to marshal with
// encoding/json — the oracle shape for appendSeriesBody.
type querySample struct {
	CPU float64 `json:"cpu"`
	Mem float64 `json:"mem"`
}

// marshaledResponse is the response struct the server used to marshal for
// a series answer, samples spliced in as raw JSON.
type marshaledResponse struct {
	ID      uint64          `json:"id,omitempty"`
	OK      bool            `json:"ok"`
	Samples json.RawMessage `json:"samples,omitempty"`
}

// marshaledSeriesLine is a series response line as json.Marshal wrote it.
func marshaledSeriesLine(id uint64, samples []trace.Usage) ([]byte, error) {
	qs := make([]querySample, len(samples))
	for i, u := range samples {
		qs[i] = querySample{CPU: u.CPU, Mem: u.Mem}
	}
	data, err := json.Marshal(qs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(marshaledResponse{ID: id, OK: true, Samples: data})
}

// seriesLine is a series response line as the server now writes it.
func seriesLine(id uint64, samples []trace.Usage) ([]byte, error) {
	body, err := appendSeriesBody(nil, samples)
	if err != nil {
		return nil, err
	}
	line := fmt.Appendf(nil, `{"id":%d,`, id)
	return append(line, body...), nil
}

// edgeFloats are the values where encoding/json's float formatting
// switches form or loses digits.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e20, 1e21, -1e21,
	5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64,
	0.30000000000000004, 1.0 / 3, 123456789.12345678, 9007199254740993,
	12345678901234567890, 0.1, 100, -42.5,
}

func TestSeriesBodyMatchesMarshal(t *testing.T) {
	var cases [][]trace.Usage
	cases = append(cases, nil, []trace.Usage{})
	for _, f := range edgeFloats {
		cases = append(cases, []trace.Usage{{CPU: f, Mem: -f}})
	}
	all := make([]trace.Usage, 0, len(edgeFloats))
	for i, f := range edgeFloats {
		all = append(all, trace.Usage{CPU: f, Mem: edgeFloats[len(edgeFloats)-1-i]})
	}
	cases = append(cases, all)
	rng := rand.New(rand.NewSource(20141208))
	for n := 0; n < 8; n++ {
		s := make([]trace.Usage, 720)
		for i := range s {
			// Mem takes any finite bit pattern, subnormals included.
			mem := math.Float64frombits(rng.Uint64())
			for math.IsNaN(mem) || math.IsInf(mem, 0) {
				mem = math.Float64frombits(rng.Uint64())
			}
			s[i] = trace.Usage{CPU: rng.Float64() * 11900, Mem: mem}
		}
		cases = append(cases, s)
	}
	for _, samples := range cases {
		for _, id := range []uint64{0, 1, math.MaxUint64} {
			want, err := marshaledSeriesLine(id, samples)
			if err != nil {
				t.Fatal(err)
			}
			body, err := appendSeriesBody(nil, samples)
			if err != nil {
				t.Fatal(err)
			}
			// The writer splices `{"id":N,` (or `{` without an id) in front.
			got := []byte{'{'}
			if id > 0 {
				got = fmt.Appendf(nil, `{"id":%d,`, id)
			}
			got = append(got, body...)
			if !bytes.Equal(got, want) {
				t.Fatalf("series line for %v\n got %s\nwant %s", samples, got, want)
			}
			if id == 0 {
				continue
			}
			// And the client parses it back bit for bit, on the fast path.
			resp, ok := parseSeriesResponse(got)
			if !ok || resp.ID != id || !resp.OK || len(resp.Samples) != len(samples) {
				t.Fatalf("parseSeriesResponse(%s) = %+v, %v", got, resp, ok)
			}
			for i := range samples {
				if math.Float64bits(resp.Samples[i].CPU) != math.Float64bits(samples[i].CPU) ||
					math.Float64bits(resp.Samples[i].Mem) != math.Float64bits(samples[i].Mem) {
					t.Fatalf("sample %d: got %+v, want %+v", i, resp.Samples[i], samples[i])
				}
			}
		}
	}
}

func TestSeriesBodyNonFiniteError(t *testing.T) {
	for _, samples := range [][]trace.Usage{
		{{CPU: math.NaN()}},
		{{CPU: 1, Mem: math.Inf(1)}},
		{{CPU: math.Inf(-1), Mem: math.NaN()}},
		{{CPU: 1, Mem: 2}, {CPU: 3, Mem: math.NaN()}},
	} {
		_, wantErr := marshaledSeriesLine(1, samples)
		_, err := appendSeriesBody(nil, samples)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("appendSeriesBody(%v) err = %v; json.Marshal err = %v", samples, err, wantErr)
		}
	}
}

// checkDecodeQueryResponse holds decodeQueryResponse to json.Unmarshal's
// verdict on line: same accept/reject decision, bit-equal values.
func checkDecodeQueryResponse(t *testing.T, line []byte) {
	t.Helper()
	var want clientResponse
	wantErr := json.Unmarshal(line, &want)
	got, gotErr := decodeQueryResponse(line)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decodeQueryResponse(%q) err = %v; json err = %v", line, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeQueryResponse(%q)\n got %+v\nwant %+v", line, got, want)
	}
	for i := range want.Samples {
		if math.Float64bits(got.Samples[i].CPU) != math.Float64bits(want.Samples[i].CPU) ||
			math.Float64bits(got.Samples[i].Mem) != math.Float64bits(want.Samples[i].Mem) {
			t.Fatalf("decodeQueryResponse(%q) sample %d = %+v, want %+v", line, i, got.Samples[i], want.Samples[i])
		}
	}
}

// queryResponseSeeds are the decode differential's fixed inputs, shared
// with the fuzz target's seed set.
var queryResponseSeeds = []string{
	`{"id":1,"ok":true,"samples":[{"cpu":1.5,"mem":2048}]}`,
	`{"id":2,"ok":true,"samples":[]}`,
	`{"id":3,"ok":true,"samples":[{"cpu":-0,"mem":1e-7},{"cpu":1e21,"mem":5e-324}]}`,
	`{"id":18446744073709551615,"ok":true,"samples":[{"cpu":0,"mem":0}]}`,
	`{"id":18446744073709551616,"ok":true,"samples":[]}`,   // id overflow
	`{"id":01,"ok":true,"samples":[]}`,                     // leading zero
	`{"id":0,"ok":true,"samples":[]}`,                      // zero id
	`{"id":1,"ok":true,"samples":[{"cpu":1e999,"mem":0}]}`, // out of range
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2},]}`,    // trailing comma
	`{"id":1,"ok":true,"samples":[{"mem":2,"cpu":1}]}`,     // key order: fallback
	`{"id":1,"ok":true,"samples":[{"CPU":1,"Mem":2}]}`,     // key case: fallback
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2,"x":3}]}`,
	`{"id":1,"ok":true,"samples":null}`,
	`{"id":1, "ok":true,"samples":[{"cpu":1,"mem":2}]}`,
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2}]} `,
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2}]}x`,
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2}]}{"id":2,"ok":true,"samples":[]}`,
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2}]}` + "\v" + `{"id":2,"ok":true,"samples":[]}`,
	`{"id":1,"ok":true,"samples":[{"cpu":01,"mem":2}]}`,
	`{"id":1,"ok":true,"samples":[{"cpu":.5,"mem":2}]}`,
	`{"id":1,"ok":false,"error":"monitor: no samples for ghost"}`,
	`{"id":4,"ok":true,"servers":["a","b"]}`,
	`{"id":5,"ok":true,"stats":{"Servers":2,"Samples":240,"Dropped":0}}`,
	`{"id":6,"ok":true,"points":[{"ts":1338768000000000000,"cpu":20,"mem":2000}]}`,
	`{"id":7,"ok":true,"advice":{"mode":"dynamic","reasons":["x"],"attributes":{},"servers":3,"hours":504}}`,
	`{"ok":false,"error":"server under pressure, retry later"}`,
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2}]`,
	`{"id":1,"ok":true,"samples":[{"cpu":1,"mem":2}`,
	`{"id":1`,
	``,
	`null`,
	`not json`,
}

func TestDecodeQueryResponseDifferential(t *testing.T) {
	for _, line := range queryResponseSeeds {
		checkDecodeQueryResponse(t, []byte(line))
	}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 200; n++ {
		s := make([]trace.Usage, rng.Intn(40))
		for i := range s {
			s[i] = trace.Usage{CPU: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)), Mem: rng.Float64() * 131072}
		}
		line, err := seriesLine(uint64(n+1), s)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseSeriesResponse(line); !ok {
			t.Fatalf("fast path bailed on the server's own shape: %s", line)
		}
		checkDecodeQueryResponse(t, line)
	}
}

// FuzzDecodeQueryResponse holds the client's response decoder to
// json.Unmarshal's judgment on arbitrary bytes: same accept/reject
// decision, bit-equal decoded values.
func FuzzDecodeQueryResponse(f *testing.F) {
	for _, line := range queryResponseSeeds {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeQueryResponse(t, line)
	})
}
