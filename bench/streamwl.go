package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/stream"
)

// stream_frames: ten thousand sensors stream 256-sample IQ frames into
// the shared service through Service.Ingest. Half the run is a paced open
// loop at a fixed offered load, which prices batching in latency; half is
// a closed loop with a bounded number of frames in flight, which prices
// it in capacity.

const (
	streamSensors    = 10_000
	streamFFT        = 256
	streamClients    = 2
	streamPacedRate  = 16_000 // frames/s over all clients
	streamTick       = time.Millisecond
	streamInFlight   = 256    // per client, closed loop
	streamWarmup     = 20_000 // frames, part of set-up
	streamTraceEvery = 16     // one frame in this many carries spans
	streamSlice      = 200 * time.Millisecond
)

// frameToken is one frame in flight. Its done method is bound once, so
// sending a frame allocates nothing. The client writes due, sent and root
// before Ingest and the dispatcher reads them in Done; ret is the only
// field both may touch at once, because a frame can be folded before
// Ingest has returned to its caller.
type frameToken struct {
	ph     *streamPhase
	client int
	due    time.Time    // paced: when the frame should have been sent
	sent   time.Time    // when Ingest was called
	root   spanRef      // traced frames only
	ret    atomic.Int64 // traced frames: when Ingest returned, recorder ns
	done   func()
}

// streamPhase is one phase's bookkeeping. Done callbacks all run on the
// service's dispatcher goroutine, so folded samples need no lock; the
// phase is read only after every token has come home.
type streamPhase struct {
	w        *window
	rec      *recorder
	paced    bool
	free     []chan *frameToken // per client
	ack      []sample           // Ingest called → Done
	lag      []sample           // paced: due → Done
	perSlice []int64            // folded frames by slice
	folded   atomic.Int64

	late     []sample // paced: due → actually sent
	callNs   int64    // time inside Ingest
	calls    int64
	shed     map[string]int64
	attempts int64
	accepted int64
}

func newStreamPhase(w *window, rec *recorder, paced bool, tokens, expect int) *streamPhase {
	ph := &streamPhase{w: w, rec: rec, paced: paced, shed: map[string]int64{}}
	ph.perSlice = make([]int64, w.slices()+2)
	ph.ack = make([]sample, 0, expect)
	if paced {
		ph.lag = make([]sample, 0, expect)
	}
	for c := 0; c < streamClients; c++ {
		ch := make(chan *frameToken, tokens) // every token of the client fits: returning one never blocks
		for i := 0; i < tokens; i++ {
			t := &frameToken{ph: ph, client: c}
			t.done = t.onDone
			ch <- t
		}
		ph.free = append(ph.free, ch)
	}
	return ph
}

func (t *frameToken) onDone() {
	now := time.Now()
	ph := t.ph
	at := int64(now.Sub(ph.w.t0))
	ph.ack = append(ph.ack, sample{at: at, dur: int64(now.Sub(t.sent))})
	if ph.paced {
		ph.lag = append(ph.lag, sample{at: at, dur: int64(now.Sub(t.due))})
	}
	if k := ph.w.sliceOf(now); k >= 0 && k < len(ph.perSlice) {
		ph.perSlice[k]++
	}
	if t.root.id != 0 {
		r := ph.rec
		end := r.at(now)
		ret := t.ret.Load()
		if ret == 0 || ret > end {
			ret = end // folded before Ingest returned
		}
		r.add(span{ID: r.newID(), Parent: t.root.id, Name: spAcceptToFold, Req: t.root.req, Start: ret, End: end})
		r.add(span{ID: t.root.id, Name: spRequest, Req: t.root.req, Start: r.at(t.sent), End: end})
		t.root = spanRef{}
	}
	ph.folded.Add(1)
	ph.free[t.client] <- t
}

func shedKind(err error) string {
	switch {
	case errors.Is(err, stream.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, stream.ErrDegraded):
		return "degraded"
	case errors.Is(err, stream.ErrSessionLimit):
		return "session_limit"
	case errors.Is(err, stream.ErrOutOfBand):
		return "out_of_band"
	}
	return "malformed"
}

// streamClient sends its share of the fleet's frames, sensor after sensor.
type streamClient struct {
	id      int
	svc     *stream.Service
	sensors []sensor
	next    int
	seq     int64

	late     []sample
	callNs   int64
	calls    int64
	attempts int64
	accepted int64
	shed     map[string]int64
}

func (c *streamClient) countShed(kind string) {
	if c.shed == nil {
		c.shed = map[string]int64{}
	}
	c.shed[kind]++
}

// send ingests the client's next frame with token t. A shed frame's token
// goes straight back. Once Ingest has accepted the frame the token
// belongs to the dispatcher, so nothing but ret is touched after it.
func (c *streamClient) send(ph *streamPhase, t *frameToken) {
	s := &c.sensors[c.next]
	c.next++
	if c.next == len(c.sensors) {
		c.next = 0
	}
	c.seq++
	sent := time.Now()
	t.sent = sent
	var root spanRef
	if c.seq%streamTraceEvery == 0 && ph.w.traced(sent) {
		root = spanRef{req: ph.rec.newReq(), id: ph.rec.newID()}
		t.ret.Store(0)
	}
	t.root = root
	c.attempts++
	err := c.svc.Ingest(stream.IngestFrame{
		Sensor: s.id, CenterHz: s.centerHz, SampleRate: streamSampleRate, IQ: s.iq, Done: t.done,
	})
	ret := time.Now()
	c.callNs += int64(ret.Sub(sent))
	c.calls++
	if err != nil {
		c.countShed(shedKind(err))
		t.root = spanRef{}
		ph.free[c.id] <- t
		return
	}
	c.accepted++
	if root.id != 0 {
		r := ph.rec
		t.ret.Store(r.at(ret))
		r.add(span{ID: r.newID(), Parent: root.id, Name: spIngestCall, Req: root.req, Start: r.at(sent), End: r.at(ret)})
	}
}

// runPaced is the open loop: every tick each client sends its share of
// the offered load, however the service is doing. A frame's latency runs
// from when it was due, so a stall is charged to every frame it delayed.
func (c *streamClient) runPaced(ph *streamPhase, perTick int) {
	w := ph.w
	ticks := int(w.dur / streamTick)
	for i := 0; i < ticks; i++ {
		due := w.t0.Add(time.Duration(i) * streamTick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		for k := 0; k < perTick; k++ {
			var t *frameToken
			select {
			case t = <-ph.free[c.id]:
			default:
				// Every token is in flight: the service is further behind
				// than its own queue is deep. Count the frame as shed.
				c.attempts++
				c.countShed("generator_tokens")
				continue
			}
			t.due = due
			now := time.Now()
			c.late = append(c.late, sample{at: int64(now.Sub(w.t0)), dur: int64(now.Sub(due))})
			c.send(ph, t)
		}
	}
}

// runClosed is the closed loop: a client sends whenever one of its
// tokens is free, so at most streamInFlight of its frames are in flight.
func (c *streamClient) runClosed(ph *streamPhase) {
	deadline := ph.w.deadline()
	for time.Now().Before(deadline) {
		t := <-ph.free[c.id]
		c.send(ph, t)
	}
}

// drain waits until every accepted frame of the phase has been folded.
func (ph *streamPhase) drain(accepted int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for ph.folded.Load() < accepted {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d accepted frames folded after 10 s", ph.folded.Load(), accepted)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

type streamRig struct {
	svc     *stream.Service
	clients []*streamClient
}

func newStreamRig(sensors []sensor) (*streamRig, error) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)
	tr.SetSampleRatio(shippedTraceSample)
	tr.Instrument(reg)
	svc, err := stream.NewService(shippedStreamConfig(reg, tr))
	if err != nil {
		return nil, err
	}
	rig := &streamRig{svc: svc}
	for _, s := range sensors {
		if _, err := svc.Register(s.id); err != nil {
			svc.Close()
			return nil, err
		}
	}
	share := len(sensors) / streamClients
	for c := 0; c < streamClients; c++ {
		rig.clients = append(rig.clients, &streamClient{id: c, svc: svc, sensors: sensors[c*share : (c+1)*share]})
	}
	return rig, nil
}

// runPhase runs one phase on every client and returns it drained.
func (rig *streamRig) runPhase(w *window, rec *recorder, paced bool, stopAfter int64) (*streamPhase, error) {
	tokens, expect := streamInFlight, int(stopAfter)*streamClients
	switch {
	case paced:
		tokens = 8192 // the service's queue sheds before the generator runs dry
		expect = int(w.dur.Seconds() * streamPacedRate)
	case stopAfter == 0:
		expect = int(w.dur.Seconds() * 100_000)
	}
	ph := newStreamPhase(w, rec, paced, tokens, expect)
	for _, c := range rig.clients {
		c.late, c.callNs, c.calls, c.attempts, c.accepted, c.shed = nil, 0, 0, 0, 0, nil
	}
	var wg sync.WaitGroup
	for _, c := range rig.clients {
		wg.Add(1)
		go func(c *streamClient) {
			defer wg.Done()
			switch {
			case stopAfter > 0:
				for c.attempts < stopAfter {
					c.send(ph, <-ph.free[c.id])
				}
			case paced:
				c.runPaced(ph, streamPacedRate/streamClients/int(time.Second/streamTick))
			default:
				c.runClosed(ph)
			}
		}(c)
	}
	wg.Wait()
	for _, c := range rig.clients {
		ph.late = append(ph.late, c.late...)
		ph.callNs += c.callNs
		ph.calls += c.calls
		ph.attempts += c.attempts
		ph.accepted += c.accepted
		for k, v := range c.shed {
			ph.shed[k] += v
		}
	}
	return ph, ph.drain(ph.accepted)
}

func runStream(env *runEnv) (*record, error) {
	r := newRecord(env.workload)
	r.Sizes = map[string]float64{
		"sensors": streamSensors, "fft": streamFFT, "clients": streamClients, "paced_frames_per_s": streamPacedRate,
		"tick_ms": float64(streamTick / time.Millisecond), "closed_in_flight_per_client": streamInFlight,
		"queue": 8192, "max_batch": 64, "linger_ms": 2, "warmup_frames": streamWarmup, "seconds": env.seconds,
	}
	sensors := newSensors(env.seed, streamSensors, streamFFT)
	if !env.mini {
		if err := gateEngine(sensors, streamFFT); err != nil {
			return nil, fmt.Errorf("engine equivalence gate: %w", err)
		}
	}

	var rig *streamRig
	var setups []float64
	for i := 0; i < env.setups; i++ {
		if rig != nil {
			// A discarded set-up is the harness's garbage, not the system's
			// peak_rss_mb: collect it before the next one is built.
			rig.svc.Close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if rig, err = newStreamRig(sensors); err != nil {
			return nil, err
		}
		warm := newWindow(time.Now(), 3600, time.Hour, nil)
		ph, err := rig.runPhase(warm, nil, false, streamWarmup/streamClients)
		if err != nil {
			rig.svc.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if ph.accepted != ph.attempts {
			rig.svc.Close()
			return nil, fmt.Errorf("warm-up: %d of %d frames accepted", ph.accepted, ph.attempts)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.svc.Close()
	r.Metrics.set("setup_s", median(setups), "s")

	// Phase A, paced open loop; phase B, closed loop. The offered load is
	// under a third of capacity and the queue holds half a second of it,
	// so the paced half sheds only when the host stalls for longer than
	// that (one half in forty did, here). Such a half is the host's, not
	// the service's: it is run again, and only a third shedding half in a
	// row fails the run.
	half := env.seconds / 2
	var (
		wA       *window
		phA      *streamPhase
		stolenA  []float64
		repeated int64 // frames accepted in a discarded half; the sessions folded them
	)
	for attempt := 0; ; attempt++ {
		wA = newWindow(time.Now(), half, streamSlice, env.rec)
		samplerA := startSliceSampler(wA)
		var err error
		if phA, err = rig.runPhase(wA, env.rec, true, 0); err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
		stolenA, _ = samplerA.wait()
		if phA.accepted == phA.attempts || attempt == 2 {
			break
		}
		fmt.Fprintf(logOut, "bench: paced half shed %v during a host stall; repeating it\n", phA.shed)
		repeated += phA.accepted
	}
	keepA, nStolenA := cleanSlices(stolenA)
	runtime.GC() // the closed loop starts from a collected heap, whatever the paced half left
	before := snapshotProc()
	wB := newWindow(time.Now(), half, streamSlice, env.rec)
	samplerB := startSliceSampler(wB)
	speedB := startSpeedProbe(wB)
	phB, err := rig.runPhase(wB, env.rec, false, 0)
	after := snapshotProc()
	stolenB, cpuB := samplerB.wait()
	keepB, nStolenB := cleanSlices(stolenB)
	slow := speedB.slowdown(wB, keepB)
	if err != nil {
		return nil, fmt.Errorf("closed-loop phase: %w", err)
	}

	r.Attempted = phA.attempts + phB.attempts
	r.Accepted = phA.accepted + phB.accepted
	r.Failed = r.Attempted - r.Accepted
	// Rates and latencies come from the slices the hypervisor left alone;
	// the books above count everything. The closed loop's rate and CPU
	// cost are reported at nominal host speed (see hostspeed.go).
	ms := r.Metrics
	rate, cpuPerItem := sliceRates(wB, keepB, phB.perSlice, cpuB)
	ms.set("accepted_per_s", rate*slow, "items/s")
	ms.set("cpu_s_per_mitem", cpuPerItem*1e6/slow, "s")
	r.Counts["host_slowdown"] = fmt.Sprintf("%.3f", slow)
	r.Counts["raw_accepted_per_s"] = fmt.Sprintf("%.0f", rate)
	r.Counts["raw_cpu_s_per_mitem"] = fmt.Sprintf("%.2f", cpuPerItem*1e6)
	// Both latencies are the paced half's: at a fixed offered load they
	// price the dispatcher; in the closed loop latency is only in-flight
	// frames over throughput, and is kept as a count.
	ackA := inSlices(phA.ack, int64(wA.slice), keepA)
	ms.setQ("ack_p50_ms", sliceQuantile(ackA, int64(wA.slice), 50), 1e-6, "ms")
	ms.setQ("ack_p99_ms", sliceQuantile(ackA, int64(wA.slice), 99), 1e-6, "ms")
	closed := sliceQuantile(inSlices(phB.ack, int64(wB.slice), keepB), int64(wB.slice), 50)
	r.Counts["closed_loop_latency_p50_ms"] = fmt.Sprintf("%.3f", closed.value/1e6)
	lagA := inSlices(phA.lag, int64(wA.slice), keepA)
	lag99 := sliceQuantile(lagA, int64(wA.slice), 99)
	ms.setQ("result_lag_p50_ms", sliceQuantile(lagA, int64(wA.slice), 50), 1e-6, "ms")
	ms.setQ("result_lag_p99_ms", lag99, 1e-6, "ms")
	r.Counts["stolen_slices"] = fmt.Sprintf("paced %d of %d, closed %d of %d", nStolenA, len(keepA), nStolenB, len(keepB))
	r.StolenShare = float64(nStolenA+nStolenB) / float64(len(keepA)+len(keepB))
	var shed int64
	for k, v := range phA.shed {
		r.Counts["paced_shed_"+k] = fmt.Sprint(v)
		shed += v
	}
	for k, v := range phB.shed {
		r.Counts["closed_shed_"+k] = fmt.Sprint(v)
		shed += v
	}
	r.Counts["paced_frames"] = fmt.Sprint(phA.accepted)
	r.Counts["paced_frames_repeated"] = fmt.Sprint(repeated)

	// After timing: every accepted frame was folded into its session, and
	// the tones the sensors carry show in the occupancy surface.
	if r.Failed != 0 {
		return nil, fmt.Errorf("%d of %d frames not accepted: paced %v, closed %v", r.Failed, r.Attempted, phA.shed, phB.shed)
	}
	if err := checkStream(rig, sensors, r.Accepted+repeated+int64(streamWarmup)); err != nil {
		return nil, err
	}
	r.Correct = true
	if env.rec == nil {
		return r, nil
	}

	// Traced run: the per-layer ledger.
	sum := summarize(env.rec.all())
	ceiling := streamCeiling(sensors)
	ms.set("generator.encode_ns_per_item", 1e9*streamClients/ceiling, "ns")
	ms.set("generator.cpu_share", rate/ceiling, "ratio")
	if calls := phA.calls + phB.calls; calls > 0 {
		ms.set("stream.ingest_call_ns", float64(phA.callNs+phB.callNs)/float64(calls), "ns")
	}
	ms.setQ("generator.late_p99_ms", sliceQuantile(inSlices(phA.late, int64(wA.slice), keepA), int64(wA.slice), 99), 1e-6, "ms")
	ms.set("generator.stall_slices", float64(stallSlices(lag99.perSlice)), "count")
	ms.set("generator.stolen_slices", float64(nStolenA+nStolenB), "count")
	ms.set("generator.host_slowdown", slow, "ratio")
	ms.set("stream.accept_to_fold_ms_p50", median(sum.get(spAcceptToFold).durs)/1e6, "ms")
	ms.set("stream.shed", float64(shed), "count")
	ms.set("stream.allocs_per_frame", float64(after.mem.Mallocs-before.mem.Mallocs-uint64(len(speedB.bursts))*burstAllocs)/float64(phB.accepted), "count")
	processMetrics(ms, before, after, phB.accepted, len(speedB.bursts))
	traceLedger(ms, wB, keepB, phB.perSlice, sum)
	return r, nil
}

// checkStream verifies the service's books against the generator's.
func checkStream(rig *streamRig, sensors []sensor, accepted int64) error {
	var folded uint64
	for i := range sensors {
		sess := rig.svc.Sessions().Get(sensors[i].id)
		if sess == nil {
			return fmt.Errorf("sensor %s has no session", sensors[i].id)
		}
		folded += sess.Stats().Frames
	}
	if int64(folded) != accepted {
		return fmt.Errorf("sessions folded %d frames, generator had %d accepted", folded, accepted)
	}
	for i := 0; i < len(sensors); i += len(sensors) / 64 {
		s := &sensors[i]
		occ, err := rig.svc.Grid().Query(s.toneHz-0.5e6, s.toneHz+0.5e6)
		if err != nil {
			return err
		}
		seen := false
		for _, slot := range occ.Slots {
			for _, v := range slot.Occupancy {
				if v > 0 {
					seen = true
				}
			}
		}
		if !seen {
			return fmt.Errorf("tone of %s at %.3f MHz is not in the occupancy surface", s.id, s.toneHz/1e6)
		}
	}
	return nil
}

// streamCeiling is one client's send loop with the service taken out:
// pick the sensor, build the frame, take the timestamps, pass a token
// through its channel. What is left is the generator, in frames/s over
// all clients.
func streamCeiling(sensors []sensor) float64 {
	free := make(chan *frameToken, 1)
	free <- &frameToken{}
	var sink stream.IngestFrame
	start := time.Now()
	end := start.Add(100 * time.Millisecond)
	frames := 0
	for time.Now().Before(end) {
		for k := 0; k < 256; k++ {
			t := <-free
			s := &sensors[frames%len(sensors)]
			t.sent = time.Now()
			sink = stream.IngestFrame{Sensor: s.id, CenterHz: s.centerHz, SampleRate: streamSampleRate, IQ: s.iq, Done: t.done}
			t.due = time.Now()
			free <- t
			frames++
		}
	}
	_ = sink
	return float64(frames) * streamClients / time.Since(start).Seconds()
}
