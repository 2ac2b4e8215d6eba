package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// The wire codec's contract is behavioral identity with encoding/json:
// the fast encoder must emit json.Marshal's exact bytes or bail, and the
// fast decoder must accept exactly what json.Unmarshal accepts, with the
// same resulting Sample. These tests (and FuzzDecodeSample) enforce that
// differentially.

func wireSample(i int) Sample {
	r := rand.New(rand.NewSource(int64(i)))
	return Sample{
		Server:            trace.ServerID(fmt.Sprintf("srv-%03d", i)),
		Timestamp:         time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 37 * time.Second),
		TotalProcessorPct: r.Float64() * 100,
		PrivilegedPct:     r.Float64() * 50,
		UserPct:           r.Float64() * 50,
		ProcQueueLength:   float64(r.Intn(20)),
		PagesPerSec:       r.Float64() * 1e4,
		MemCommittedMB:    r.Float64() * 32768,
		MemCommittedPct:   r.Float64() * 100,
		DASDFreePct:       r.Float64() * 100,
		TCPConns:          float64(r.Intn(65536)),
		TCPConnsV6:        float64(r.Intn(65536)),
	}
}

func TestAppendSampleJSONMatchesMarshal(t *testing.T) {
	cases := []Sample{
		{},
		{Server: "a", Timestamp: time.Date(2012, 6, 4, 12, 34, 56, 0, time.UTC)},
		{Server: "b", Timestamp: time.Date(2012, 6, 4, 12, 34, 56, 789000000, time.UTC), TotalProcessorPct: 42.5},
		{Server: "c", Timestamp: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC)},
		{Server: "edge", TotalProcessorPct: math.Copysign(0, -1), MemCommittedMB: 1e21,
			PagesPerSec: 1e-7, TCPConns: 1e-6, TCPConnsV6: math.MaxFloat64, ProcQueueLength: 5e-324},
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, wireSample(i))
	}
	// One shared cache across all cases: hits (values repeat across the
	// random samples) must stay byte-identical to cold formatting.
	fc := new(floatCache)
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // second pass reads the memo
			cached, err := appendSampleWire(nil, &s, fc)
			if err != nil || !bytes.Equal(cached, want) {
				t.Fatalf("cached appendSampleWire(%+v) pass %d = %q, %v; want %q", s, pass, cached, err, want)
			}
		}
		got, ok := appendSampleJSON(nil, &s, nil)
		if s.Timestamp.IsZero() || s.Timestamp.Year() < 1 {
			// Pre-year-1 timestamps may take either path; just require
			// the fallback wrapper to agree with Marshal.
			got2, err := appendSampleWire(nil, &s, nil)
			if err != nil || !bytes.Equal(got2, want) {
				t.Fatalf("appendSampleWire(%+v) = %q, %v; want %q", s, got2, err, want)
			}
			continue
		}
		if !ok {
			t.Fatalf("fast encoder bailed on plain sample %+v", s)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendSampleJSON(%+v)\n got %q\nwant %q", s, got, want)
		}
	}
}

func TestAppendSampleWireFallbacks(t *testing.T) {
	// Escaping, HTML-escaping, and huge years must defer to json.Marshal.
	for _, s := range []Sample{
		{Server: `q"uote`, Timestamp: time.Unix(0, 0).UTC()},
		{Server: "a<b&c>", Timestamp: time.Unix(0, 0).UTC()},
		{Server: "καλημέρα", Timestamp: time.Unix(0, 0).UTC()},
		{Server: "tab\tchar", Timestamp: time.Unix(0, 0).UTC()},
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := appendSampleJSON(nil, &s, nil); ok {
			t.Fatalf("fast encoder should have bailed on %+v", s)
		}
		got, err := appendSampleWire(nil, &s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fallback mismatch for %+v:\n got %q\nwant %q", s, got, want)
		}
	}
	// Non-finite floats are unencodable on both paths.
	bad := Sample{Server: "nan", Timestamp: time.Unix(0, 0).UTC(), PagesPerSec: math.NaN()}
	if _, err := appendSampleWire(nil, &bad, nil); err == nil {
		t.Fatal("expected an error for a NaN field")
	}
}

func TestDecodeSampleDifferential(t *testing.T) {
	lines := []string{
		`{"server":"a","ts":"2012-06-04T00:00:00Z","cpuTotalPct":42.5,"cpuPrivPct":0,"cpuUserPct":0,"procQueue":0,"pagesPerSec":0,"memMB":2048,"memPct":0,"dasdFreePct":0,"tcpConns":0,"tcpConnsV6":0}`,
		`{}`,
		`{"server":"x"}`,
		`{"memMB":1e3,"cpuTotalPct":1.5e-3,"procQueue":-0}`,
		`{"ts":"2012-02-29T23:59:59.999999999Z"}`,
		`{"ts":"2013-02-29T00:00:00Z"}`,         // invalid leap day: error both ways
		`{"ts":"2012-06-04T00:00:00+02:00"}`,    // offset: fallback accepts
		`{"ts":"2012-06-04T24:00:00Z"}`,         // hour 24: error both ways
		`{"ts":"2012-06-04T23:59:60Z"}`,         // leap second: time.Parse rules
		`{ "server" : "spaced" , "memMB" : 1 }`, // whitespace: fallback
		`{"server":"esc\"aped"}`,                // escapes: fallback
		`{"unknownKey":1,"server":"u"}`,         // unknown keys: fallback
		`{"server":"dup","server":"dup2"}`,      // duplicates: last wins
		`{"memMB":01}`,                          // bad number grammar
		`{"memMB":1e999}`,                       // out of range
		`{"server":"a"} trailing`,               // trailing garbage
		`[{"server":"a"}]`,                      // wrong shape
		`{"server":5}`,                          // wrong type
		`not json`,
		`{"ts":"2012-06-04T00:00:00.5Z","server":"frac"}`,
	}
	for i := 0; i < 100; i++ {
		s := wireSample(i)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	intern := make(map[string]trace.ServerID)
	for _, line := range lines {
		checkDecodeBatch(t, []byte(line), intern)
	}
}

// checkDecodeBatch wraps one sample line as a one-element envelope array,
// [line], and holds decodeBatch to json.Unmarshal into []Sample: equal
// values, or both fail.
func checkDecodeBatch(t *testing.T, line []byte, intern map[string]trace.ServerID) {
	t.Helper()
	array := append(append([]byte{'['}, line...), ']')
	var want []Sample
	wantErr := json.Unmarshal(array, &want)
	got, gotErr := decodeBatch(array, nil, intern)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decodeBatch(%q) err = %v; json err = %v", array, gotErr, wantErr)
	}
	if wantErr == nil && !slices.Equal(got, want) {
		t.Fatalf("decodeBatch(%q)\n got %+v\nwant %+v", array, got, want)
	}
}

func TestBatchFrameRoundTrip(t *testing.T) {
	var samples []Sample
	for i := 0; i < 300; i++ {
		samples = append(samples, wireSample(i))
	}
	samples = append(samples, Sample{Server: "needs<escape>", Timestamp: time.Unix(99, 0).UTC()})
	frame, err := appendSampleArray(nil, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	intern := make(map[string]trace.ServerID)
	got, err := decodeBatch(frame, nil, intern)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i] != samples[i] {
			t.Fatalf("sample %d mismatch:\n got %+v\nwant %+v", i, got[i], samples[i])
		}
	}
	// Empty frame and malformed frames.
	if out, err := decodeBatch([]byte("[]"), nil, intern); err != nil || len(out) != 0 {
		t.Fatalf("empty frame: %v, %v", out, err)
	}
	for _, bad := range []string{`[`, `[{]`, `[{}` + `,]`, `[{}]x`} {
		if _, err := decodeBatch([]byte(bad), nil, intern); err == nil {
			t.Fatalf("decodeBatch(%q) accepted garbage", bad)
		}
	}
}

// FuzzDecodeSample holds the fast decoder to json.Unmarshal's judgment on
// arbitrary bytes wrapped as a sample array: same accept/reject decision,
// same decoded samples.
func FuzzDecodeSample(f *testing.F) {
	f.Add([]byte(`{"server":"a","ts":"2012-06-04T00:00:00Z","cpuTotalPct":42.5,"memMB":2048}`))
	f.Add([]byte(`{"server":"a","ts":"2012-06-04T00:00:00.123456789Z"}`))
	f.Add([]byte(`{"server":"\u0041","ts":"2012-06-04T00:00:00+07:00"}`))
	f.Add([]byte(`{"memMB":1.5e3,"tcpConns":-0,"pagesPerSec":0.0001}`))
	f.Add([]byte(`{"ts":"2013-02-29T12:00:00Z"}`))
	f.Add([]byte(`{"server":"dup","server":"b","memMB":1,"memMB":2}`))
	f.Add([]byte(`[{"server":"a"},{"server":"b"}]`))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeBatch(t, line, make(map[string]trace.ServerID))
	})
}

// TestEncodeSamplesMatchesEncoder: the checkpoint/snapshot writer emits
// exactly json.Encoder's bytes, fallback shapes included, so the restore
// format and the WAL's bytes per sample cannot move.
func TestEncodeSamplesMatchesEncoder(t *testing.T) {
	samples := []Sample{
		{},
		{Server: `q"uote`, Timestamp: time.Unix(0, 0).UTC()},
		{Server: "a<b&c>", Timestamp: time.Unix(0, 0).UTC(), MemCommittedMB: 1e21},
		{Server: "καλημέρα", Timestamp: time.Date(2012, 6, 4, 0, 0, 0, 5, time.UTC)},
		{Server: "edge", Timestamp: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
			TotalProcessorPct: math.Copysign(0, -1), PagesPerSec: 5e-324, TCPConnsV6: math.MaxFloat64},
	}
	for i := 0; i < 300; i++ {
		samples = append(samples, wireSample(i%40)) // repeats exercise the float memo
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := encodeSamples(&got, samples); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("encodeSamples differs from json.Encoder:\n got %q\nwant %q", got.Bytes(), want.Bytes())
	}

	// Samples json.Encoder refuses — a non-finite value, a year past
	// 9999 — fail with its error text.
	for _, bad := range []Sample{
		{Server: "nan", Timestamp: time.Unix(0, 0).UTC(), PagesPerSec: math.NaN()},
		{Server: "far-future", Timestamp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		wantErr := json.NewEncoder(io.Discard).Encode(bad)
		err := encodeSamples(io.Discard, append(samples[:3:3], bad))
		if wantErr == nil || err == nil || err.Error() != "monitor: snapshot: "+wantErr.Error() {
			t.Fatalf("encodeSamples(%+v) err = %v; json.Encoder err = %v", bad, err, wantErr)
		}
	}
}
