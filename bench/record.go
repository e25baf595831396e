package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// schemaVersion changes whenever a metric is added, removed or redefined,
// or a workload's sizes change. compare refuses records that disagree.
const schemaVersion = 1

// metricDef declares one metric. BENCHMARK.json carries the same names,
// units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the fleet backend sees. Every workload
// reports every one of them; the README says what each means on each.
// The bounds are what this shared two-core box supports: ten runs of one
// binary spread by 3–12 % in a quiet quarter of an hour and by up to 21 %
// across a steal spell (README, "Measured spread"), and the benchmark is
// accepted only while they stay inside.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"accepted_per_s", "items/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"ack_p99_ms", "ms", "lower", 0.25},
	{"result_lag_p50_ms", "ms", "lower", 0.25},
	{"result_lag_p99_ms", "ms", "lower", 0.25},
	{"cpu_s_per_mitem", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the cost ledger of the traced run, layer by layer.
var perLayer = []metricDef{
	{Name: "generator.encode_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "generator.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "generator.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "generator.stall_slices", Unit: "count", Better: "lower"},
	{Name: "generator.stolen_slices", Unit: "count", Better: "lower"},
	{Name: "generator.host_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "http.roundtrip_self_us", Unit: "us", Better: "lower"},
	{Name: "http.bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "http.conns_opened", Unit: "count", Better: "lower"},
	{Name: "trust.harden_self_us", Unit: "us", Better: "lower"},
	{Name: "trust.handler_us_per_req", Unit: "us", Better: "lower"},
	{Name: "trust.handler_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "trust.submit_batch_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "trust.decode_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "trust.submit_batch_allocs_per_item", Unit: "count", Better: "lower"},
	{Name: "trust.handler_allocs_per_item", Unit: "count", Better: "lower"},
	{Name: "trust.rejected", Unit: "count", Better: "lower"},
	{Name: "trust.duplicates", Unit: "count", Better: "lower"},
	{Name: "obs.middleware_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "obs.start_remote_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "trust.close.passes", Unit: "count", Better: "lower"},
	{Name: "trust.close.drain_pending_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trust.close.close_drained_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trust.close.pass_ms_last", Unit: "ms", Better: "lower"},
	{Name: "trust.close.epochs_per_pass", Unit: "count", Better: "lower"},
	{Name: "trust.close.us_per_epoch_reading", Unit: "us", Better: "lower"},
	{Name: "trust.close.anomalies", Unit: "count", Better: "lower"},
	{Name: "trust.close.allocs_per_epoch_reading", Unit: "count", Better: "lower"},
	{Name: "store.append_scores_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.fsync_count", Unit: "count", Better: "lower"},
	{Name: "store.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "store.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.entry_handler_us_per_req", Unit: "us", Better: "lower"},
	{Name: "replica.forward_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "replica.forwarded_fraction", Unit: "ratio", Better: "lower"},
	{Name: "replica.forward_bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "replica.merge_close_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "replica.drain_roundtrip_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "replica.install_roundtrip_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "replica.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.ingest_call_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.accept_to_fold_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stream.shed", Unit: "count", Better: "lower"},
	{Name: "stream.engine_ns_per_frame_b64", Unit: "ns", Better: "lower"},
	{Name: "stream.engine_ns_per_frame_b1", Unit: "ns", Better: "lower"},
	{Name: "stream.serial_reference_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "stream.fold_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "stream.session_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "dsp.fft_batch_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "process.allocs_per_item", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "process.heap_inuse_mb_end", Unit: "MB", Better: "lower"},
	{Name: "process.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_recorded", Unit: "count", Better: "higher"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
}

// metric is one reported value with the evidence behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many timed operations the value rests on, Pct the
	// percentile actually reported where the name asks for one the
	// sample cannot support.
	Samples int     `json:"samples,omitempty"`
	Pct     float64 `json:"pct,omitempty"`
	// Source names the short side run a per-layer value came from when
	// the layer is not on this workload's path; empty means this
	// workload's own traced window.
	Source string `json:"source,omitempty"`
}

type metricSet map[string]metric

func (s metricSet) set(name string, v float64, unit string) {
	s[name] = metric{Value: v, Unit: unit}
}

func (s metricSet) setQ(name string, q quantileStat, scale float64, unit string) {
	if q.samples == 0 {
		return
	}
	s[name] = metric{Value: q.value * scale, Unit: unit, Samples: q.samples, Pct: q.pct}
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// record is one workload's run.
type record struct {
	Workload  string             `json:"workload"`
	Sizes     map[string]float64 `json:"sizes"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Accepted  int64              `json:"accepted"`
	Failed    int64              `json:"failed"`
	Metrics   metricSet          `json:"metrics"`
	// StolenShare is the share of the run's slices (jobs, on
	// backlog_close) of which the hypervisor took more than stolenAbove.
	StolenShare float64 `json:"stolen_share"`
	// Counts repeat exactly across runs of one seed where the workload
	// is deterministic (backlog_close); elsewhere they are informative.
	Counts map[string]string `json:"counts,omitempty"`
}

func newRecord(workload string) *record {
	return &record{Workload: workload, Sizes: map[string]float64{}, Metrics: metricSet{}, Counts: map[string]string{}}
}

func (r *record) failedFraction() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// document is what the benchmark writes: one record per workload run,
// with everything needed to decide whether two documents are comparable.
type document struct {
	Schema    int       `json:"schema"`
	Host      hostInfo  `json:"host"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     int       `json:"trace"`
	Workloads []*record `json:"workloads"`
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func writeDocument(path string, d *document) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// resultLine is the last line of a single-workload run: exactly the
// declared metrics of the mode, by name, with their units.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf selects the declared metrics from a record. A declared metric
// the run did not produce is an error: the contract is every name, every
// time.
func resultOf(r *record, defs []metricDef) (*resultLine, error) {
	out := &resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	var missing []string
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s reported in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		out.Metrics[d.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload %s did not produce %v", r.Workload, missing)
	}
	return out, nil
}
