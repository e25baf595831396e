package main

import (
	"encoding/json"
	"testing"
)

// The smoke tests run every workload for a second, gates included, and
// one full traced run, so the harness is exercised by go test (and by
// the race detector) without waiting for a real measurement.

func useTempScratch(t *testing.T) {
	t.Helper()
	old := outRoot
	outRoot = t.TempDir()
	t.Cleanup(func() { outRoot = old })
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a second")
	}
	useTempScratch(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// backlog_close runs whole jobs; its side-run size keeps one job short.
			env := &runEnv{workload: w.name, seed: 5, seconds: 1, setups: 2, mini: w.name == "backlog_close"}
			r, err := w.run(env)
			if err != nil {
				t.Fatal(err)
			}
			r.Metrics.set("peak_rss_mb", peakRSSMB(), "MB")
			line, err := resultOf(r, endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			for name, v := range line.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %g: an end-to-end metric is never zero", name, v.Value)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload and three side runs")
	}
	useTempScratch(t)
	w, _ := findWorkload("ingest_ring3")
	r, err := runOne(w, 5, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	line, err := resultOf(r, perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(line.Metrics), len(perLayer))
	}
	own := []string{"replica.forward_roundtrip_us", "replica.merge_close_ms_p50", "trust.harden_self_us", "http.roundtrip_self_us", "store.fsync_ms_p50"}
	for _, name := range own {
		if m := r.Metrics[name]; m.Source != "" || m.Value <= 0 {
			t.Errorf("%s = %g from %q: the ring's own traced window should produce it", name, m.Value, m.Source)
		}
	}
	if m := r.Metrics["stream.accept_to_fold_ms_p50"]; m.Source != "stream_frames" || m.Value <= 0 {
		t.Errorf("stream.accept_to_fold_ms_p50 = %g from %q: want the stream side run's value, marked", m.Value, m.Source)
	}
	if f := r.Metrics["replica.forwarded_fraction"].Value; f < 0.5 || f > 0.8 {
		t.Errorf("forwarded fraction %g, want about two thirds", f)
	}
	if c := r.Metrics["trace.coverage_pct"].Value; c < 90 {
		t.Errorf("spans cover %g%% of request time", c)
	}
}
