package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"vmwild"
)

func TestHealthEndpointsGateOnRecovery(t *testing.T) {
	h, err := startHealth("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get("http://" + h.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Alive from the first moment, not ready until recovery finishes.
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during recovery = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during recovery = %d, want 503", got)
	}
	if got := get("/varz"); got != http.StatusServiceUnavailable {
		t.Errorf("/varz before the servers exist = %d, want 503", got)
	}
	h.setReady(map[string]any{"walReplayed": 7})
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz after recovery = %d, want 200", got)
	}
}

func TestVarzServesWarehouseMetrics(t *testing.T) {
	h, err := startHealth("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	w := vmwild.NewWarehouse(0)
	w.MaxConns = 64
	qs := vmwild.NewQueryServer(w)
	h.setVarz(func() any {
		return map[string]any{"warehouse": w.Metrics(), "query": qs.Metrics()}
	})
	resp, err := http.Get("http://" + h.Addr() + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/varz = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Warehouse vmwild.WarehouseMetrics `json:"warehouse"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Warehouse.MaxConns != 64 {
		t.Fatalf("/varz warehouse.maxConns = %d, want 64", body.Warehouse.MaxConns)
	}
}

func TestServeRejectsFaultProfileWithoutDurablePath(t *testing.T) {
	err := serve(serveConfig{faultProfile: "flaky"})
	if err == nil || !strings.Contains(err.Error(), "requires -wal-dir") {
		t.Fatalf("err = %v, want missing-durable-path error", err)
	}
}

func TestServeRejectsBadFaultProfile(t *testing.T) {
	err := serve(serveConfig{faultProfile: "explode", walDir: "wal"})
	if err == nil || !strings.Contains(err.Error(), "unknown fault profile") {
		t.Fatalf("err = %v, want unknown-profile error", err)
	}
}

// TestReadyzReportsStorageDegraded: once the degraded check flips,
// /readyz turns 503 while /healthz stays 200 — the daemon is alive, just
// refusing ingest.
func TestReadyzReportsStorageDegraded(t *testing.T) {
	h, err := startHealth("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.setReady(nil)
	degraded := false
	h.setDegraded(func() bool { return degraded })
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get("http://" + h.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz healthy = %d, want 200", got)
	}
	degraded = true
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz degraded = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz degraded = %d, want 200 (liveness is not readiness)", got)
	}
}
