package spectrumd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorcal/internal/stream"
)

// toneIQ builds one deterministic tone frame for the wire tests.
func toneIQ(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		ph := 2 * math.Pi * 5 * float64(i) / float64(n)
		out[i] = complex(0.5*math.Cos(ph), 0.5*math.Sin(ph))
	}
	return out
}

// TestDaemonMountsStreamRoutes pins the full mount: the streaming routes
// carve out of /api/ without shadowing the trust API, frames flow
// through to the occupancy grid, and the daemon stays ready.
func TestDaemonMountsStreamRoutes(t *testing.T) {
	d, _ := newTestDaemon(t, time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Config{Stream: true, StreamFFT: 128, StreamBand: "500e6:700e6"})
	defer d.Shutdown()
	sv := d.stream
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// The trust API still answers on /api/.
	resp, err := http.Post(srv.URL+"/api/register", "application/json",
		bytes.NewReader([]byte(`{"id":"node-1","operator":"op"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trust register through combined mux: %d", resp.StatusCode)
	}

	// Stream frames land in the grid.
	iq := stream.EncodeIQ(toneIQ(128))
	var frames []map[string]interface{}
	for i := 0; i < 5; i++ {
		frames = append(frames, map[string]interface{}{
			"sensor": fmt.Sprintf("s-%d", i), "center_hz": 600e6,
			"sample_rate": 2.4e6, "iq_b64": iq,
		})
	}
	body, _ := json.Marshal(map[string]interface{}{"frames": frames})
	resp, err = http.Post(srv.URL+"/api/stream/frames", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream frames: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := sv.Sessions().Get("s-0"); s != nil && s.Stats().Frames > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frames never folded")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err = http.Get(srv.URL + "/api/occupancy")
	if err != nil {
		t.Fatal(err)
	}
	var occ stream.BandOccupancy
	if err := json.NewDecoder(resp.Body).Decode(&occ); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(occ.Slots) == 0 {
		t.Fatal("occupancy empty after folded frames")
	}

	// Streaming frames leaves the daemon ready.
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after streamed frames: %d", resp.StatusCode)
	}
}

func TestParseBand(t *testing.T) {
	lo, hi, err := parseBand("470e6:698e6")
	if err != nil || lo != 470e6 || hi != 698e6 {
		t.Fatalf("parseBand: %v %v %v", lo, hi, err)
	}
	for _, bad := range []string{"", "470e6", "698e6:470e6", "x:y"} {
		if _, _, err := parseBand(bad); err == nil {
			t.Fatalf("parseBand(%q) accepted", bad)
		}
	}
}
