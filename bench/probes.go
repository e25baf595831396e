package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"sensorcal/internal/dsp"
	"sensorcal/internal/obs"
	"sensorcal/internal/replica"
	"sensorcal/internal/stream"
	"sensorcal/internal/trust"
)

// Isolated probes: single-threaded timings of one public call each, a
// fixed number of times, on inputs built beforehand from the seed so the
// generator's own allocations stay out. They run in every traced run;
// they describe the code, not the workload, and give each layer a price
// that does not depend on what else the box was doing.

// probe times fn over iters calls and returns ns and mallocs per call.
func probe(iters int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

const (
	probeRequests = 400 // ingest-shaped requests per probe
	probeFrames   = 4096
)

func runProbes(seed uint64, ms metricSet) error {
	probeObs(seed, ms) // first: the trust probe subtracts the middleware
	if err := probeTrust(seed, ms); err != nil {
		return fmt.Errorf("trust probes: %w", err)
	}
	if err := probeRing(seed, ms); err != nil {
		return fmt.Errorf("replica probe: %w", err)
	}
	if err := probeStream(seed, ms); err != nil {
		return fmt.Errorf("stream probes: %w", err)
	}
	return nil
}

// probeTrust prices the collector's ingest: the whole handler on pre-built
// bodies through a ResponseRecorder, and SubmitBatch alone on the same
// readings pre-decoded. Decode is what is left of the handler after
// SubmitBatch and the middleware.
func probeTrust(seed uint64, ms metricSet) error {
	f := newFleet(seed, ingestHoods, ingestPerHood, ingestSignals)
	plan := newIngestPlanner(f, 0)
	base := time.Now().UTC()
	build := func(offset time.Duration) ([][]trust.Reading, [][]byte, int) {
		var batches [][]trust.Reading
		var bodies [][]byte
		items := 0
		for i := 0; i < probeRequests; i++ {
			// 2 ms apart: more than a ten-round batch spans, so no two
			// requests ever share an idempotency key.
			rs := plan.fill(nil, plan.next(), base.Add(offset+time.Duration(i)*2*time.Millisecond), ingestEpoch)
			batches = append(batches, rs)
			bodies = append(bodies, appendBatch(nil, rs))
			items += len(rs)
		}
		return batches, bodies, items
	}
	newCol := func() *trust.Collector {
		reg := obs.NewRegistry()
		c := trust.NewShardedCollector(shippedStripes).Instrument(reg)
		c.EpochWindow = ingestEpoch
		c.Obs = reg
		c.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
		for _, id := range f.nodes {
			if err := c.Ledger.Register(trust.Node{ID: id, Registered: base}); err != nil {
				panic(err) // the fleet's ids are unique by construction
			}
		}
		return c
	}

	batches, _, items := build(0)
	col := newCol()
	var outs []trust.SubmitOutcome
	var bad int
	ns, allocs := probe(len(batches), func(i int) {
		outs = col.SubmitBatch(batches[i], outs)
		for k := range outs {
			if outs[k].Err != nil || outs[k].Duplicate {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("SubmitBatch refused %d readings", bad)
	}
	perReq := float64(items) / float64(len(batches))
	submitNs := ns / perReq
	ms.set("trust.submit_batch_ns_per_item", submitNs, "ns")
	ms.set("trust.submit_batch_allocs_per_item", allocs/perReq, "count")

	_, bodies, items := build(time.Hour)
	h := newCol().Handler(time.Now)
	reqs := make([]*http.Request, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/api/readings", bytes.NewReader(b))
		reqs[i].Header.Set("Content-Type", "application/json")
	}
	bad = 0
	ns, allocs = probe(len(reqs), func(i int) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i])
		if w.Code != http.StatusAccepted {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("handler refused %d requests", bad)
	}
	perReq = float64(items) / float64(len(reqs))
	handlerNs := ns / perReq
	ms.set("trust.handler_ns_per_item", handlerNs, "ns")
	ms.set("trust.handler_allocs_per_item", allocs/perReq, "count")
	if mw, ok := ms["obs.middleware_ns_per_req"]; ok {
		ms.set("trust.decode_ns_per_item", handlerNs-submitNs-mw.Value/perReq, "ns")
	}
	return nil
}

// probeObs prices the observability layer alone: the RED middleware
// around a handler that does nothing, and the per-reading remote span a
// sampled traceparent costs at the shipped -trace-sample 1.
func probeObs(seed uint64, ms metricSet) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)
	tr.SetSampleRatio(shippedTraceSample)
	tr.Instrument(reg)
	h := obs.NewMiddleware("trust", reg, tr).WrapHandler("/api/readings",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusAccepted) }))
	r := mix(seed, 0x0b5)
	const n = 4000
	reqs := make([]*http.Request, n)
	parents := make([]string, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/api/readings", nil)
		reqs[i].Header.Set("Traceparent", traceParent(&r))
		parents[i] = traceParent(&r)
	}
	ns, _ := probe(n, func(i int) { h.ServeHTTP(httptest.NewRecorder(), reqs[i]) })
	rec, _ := probe(n, func(i int) { httptest.NewRecorder() })
	ms.set("obs.middleware_ns_per_req", ns-rec, "ns")
	ns, _ = probe(n, func(i int) {
		if sc, ok := obs.ParseTraceParent(parents[i]); ok {
			if span := tr.StartRemote(sc, "trust.ingest"); span != nil {
				span.SetAttr("node", "node-0000")
				span.SetAttr("signal", "tv-473MHz")
				span.End()
			}
		}
	})
	ms.set("obs.start_remote_ns_per_item", ns, "ns")
}

// probeRing prices the ownership lookup every reading entering a ring
// member pays.
func probeRing(seed uint64, ms metricSet) error {
	ring, err := replica.NewRing([]replica.Member{{ID: "r1", URL: "http://a"}, {ID: "r2", URL: "http://b"}, {ID: "r3", URL: "http://c"}}, 0)
	if err != nil {
		return err
	}
	f := newFleet(seed, ingestHoods, ingestPerHood, ingestSignals)
	owners := map[string]int{}
	ns, _ := probe(100_000, func(i int) { owners[ring.Owner(string(f.nodes[i%len(f.nodes)])).ID]++ })
	if len(owners) != 3 {
		return fmt.Errorf("ring placed the fleet on %d of 3 members", len(owners))
	}
	ms.set("replica.ring_owner_ns", ns, "ns")
	return nil
}

// probeStream prices the stream side's stages one at a time: the shared
// engine at batch 64 and batch 1, the unshared serial reference it
// replaced (the single-threaded baseline), the grid fold, the session
// lookup, and the batched FFT underneath.
func probeStream(seed uint64, ms metricSet) error {
	sensors := newSensors(seed, 512, streamFFT)
	eng, err := stream.NewEngine(streamFFT, nil)
	if err != nil {
		return err
	}
	jobs := make([]stream.Job, 64)
	for i := range jobs {
		jobs[i] = stream.Job{IQ: sensors[i].iq, SampleRate: streamSampleRate, Bins: make([]float64, streamFFT)}
	}
	var perr error
	note := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	ns, _ := probe(probeFrames/64, func(i int) {
		for k := range jobs {
			jobs[k].IQ = sensors[(i*64+k)%len(sensors)].iq
		}
		note(eng.Process(jobs))
	})
	ms.set("stream.engine_ns_per_frame_b64", ns/64, "ns")
	ns, _ = probe(probeFrames, func(i int) {
		jobs[0].IQ = sensors[i%len(sensors)].iq
		note(eng.Process(jobs[:1]))
	})
	ms.set("stream.engine_ns_per_frame_b1", ns, "ns")
	ns, _ = probe(probeFrames, func(i int) {
		_, err := stream.SerialReference(sensors[i%len(sensors)].iq, streamSampleRate, streamFFT, nil)
		note(err)
	})
	ms.set("stream.serial_reference_ns_per_frame", ns, "ns")

	grid, err := stream.NewGrid(stream.GridConfig{LowHz: streamBandLo, HighHz: streamBandHi})
	if err != nil {
		return err
	}
	at := time.Now()
	ns, _ = probe(probeFrames, func(i int) {
		_, err := grid.Fold(jobs[i%64].Bins, sensors[i%len(sensors)].centerHz, streamSampleRate, at)
		note(err)
	})
	ms.set("stream.fold_ns_per_frame", ns, "ns")

	table := stream.NewSessionTable(16384, 0)
	for i := range sensors {
		_, err := table.Acquire(sensors[i].id, at)
		note(err)
	}
	ns, _ = probe(100_000, func(i int) {
		_, err := table.Acquire(sensors[i%len(sensors)].id, at)
		note(err)
	})
	ms.set("stream.session_acquire_ns", ns, "ns")

	frames := make([][]complex128, 64)
	for i := range frames {
		frames[i] = append([]complex128(nil), sensors[i].iq...)
	}
	ns, _ = probe(probeFrames/64, func(int) { note(dsp.FFTBatch(frames)) })
	ms.set("dsp.fft_batch_ns_per_frame", ns/64, "ns")
	return perr
}
