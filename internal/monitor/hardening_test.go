package monitor

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// The hardening contract shared by the warehouse and query server: read
// deadlines sever silent peers, oversized lines end the connection, and
// malformed content inside a well-formed frame leaves the connection
// usable.

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectClosed reads until the server severs the connection or the local
// deadline expires.
func expectClosed(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			if err == io.EOF || strings.Contains(err.Error(), "reset") {
				return
			}
			t.Fatalf("%s: expected server to close the connection, read failed locally: %v", what, err)
		}
	}
}

func TestWarehouseReadTimeoutSeversSilentConn(t *testing.T) {
	w := NewWarehouse(0)
	w.ReadTimeout = 50 * time.Millisecond
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	// Say nothing; the warehouse must hang up rather than pin the handler.
	expectClosed(t, conn, "silent ingestion conn")
}

func TestWarehouseOversizedLineClosesConn(t *testing.T) {
	w := NewWarehouse(0)
	w.MaxLineBytes = 256
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	if _, err := conn.Write([]byte(strings.Repeat("x", 4096) + "\n")); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "oversized line")
}

// TestWarehouseMalformedLineKeepsConnUsable: invalid samples inside a
// valid envelope are acked (a retry could never fix them) and counted as
// dropped, and the connection keeps serving envelopes. Only a line that is
// not an envelope at all costs the connection (see
// TestWarehouseRejectsGarbageOverTCP).
func TestWarehouseMalformedLineKeepsConnUsable(t *testing.T) {
	w := NewWarehouse(0)
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	conn := dialT(t, addr)
	br := bufio.NewReader(conn)
	good := Sample{Server: "s", Timestamp: epoch, TotalProcessorPct: 10, MemCommittedMB: 1}
	invalid := []Sample{{Server: "", Timestamp: epoch}, {Server: "s", Timestamp: epoch, TotalProcessorPct: 101}}
	batch := append([]Sample{good}, invalid...)
	if ack := sendEnvelope(t, conn, br, "agent-1", 1, batch); ack != (ackResult{seq: 1, ok: 3}) {
		t.Fatalf("ack = %+v, want all 3 acked", ack)
	}
	if got, dropped := w.SampleCount("s"), w.Dropped(); got != 1 || dropped != 2 {
		t.Fatalf("samples=%d dropped=%d; want 1 stored and 2 dropped", got, dropped)
	}
	good.Timestamp = good.Timestamp.Add(time.Minute)
	if ack := sendEnvelope(t, conn, br, "agent-1", 2, []Sample{good}); ack != (ackResult{seq: 2, ok: 1}) {
		t.Fatalf("second ack on the same connection = %+v", ack)
	}
	if got := w.SampleCount("s"); got != 2 {
		t.Fatalf("samples = %d, want 2", got)
	}
	if m := w.Metrics(); m.CorruptFrames != 0 {
		t.Fatalf("CorruptFrames = %d, want 0", m.CorruptFrames)
	}
}

func TestQueryReadTimeoutSeversSilentConn(t *testing.T) {
	w := seedWarehouse(t)
	qs := NewQueryServer(w)
	qs.ReadTimeout = 50 * time.Millisecond
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qs.Close() })

	conn := dialT(t, addr)
	expectClosed(t, conn, "silent query conn")
}

func TestQueryOversizedLineClosesConn(t *testing.T) {
	w := seedWarehouse(t)
	qs := NewQueryServer(w)
	qs.MaxLineBytes = 128
	addr, err := qs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qs.Close() })

	conn := dialT(t, addr)
	if _, err := conn.Write([]byte(strings.Repeat("y", 2048) + "\n")); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "oversized query line")
}
