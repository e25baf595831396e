package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/trust"
)

// The two closed-loop ingest workloads: the same traffic into one
// collector (ingest_http) or into a three-member ring entered round-robin
// (ingest_ring3).

const (
	ingestHoods       = 64
	ingestPerHood     = 4
	ingestSignals     = 6
	ingestClients     = 2
	ingestEpoch       = time.Second
	ingestWarmup      = 1000 // requests per client, part of set-up
	calibrationDur    = 250 * time.Millisecond
	calibrationRounds = 4
)

// window is the timed part of a run, cut into slices. In a traced run
// even slices are traced and odd ones are not, so tracing overhead is
// measured between neighbours on one system rather than between two runs.
type window struct {
	t0    time.Time
	dur   time.Duration
	slice time.Duration
	rec   *recorder
}

// newWindow cuts seconds into slices of the given length, or into four
// when the window is shorter than four of them. The ingest workloads use
// the epoch, so every slice holds one close pass at the same offset; the
// stream workload, which has no such rhythm, uses shorter slices so that
// one stall is one slice in a hundred.
func newWindow(t0 time.Time, seconds float64, slice time.Duration, rec *recorder) *window {
	dur := time.Duration(seconds * float64(time.Second))
	if dur/4 < slice {
		slice = dur / 4
	}
	return &window{t0: t0, dur: dur, slice: slice, rec: rec}
}

func (w *window) sliceOf(t time.Time) int { return int(t.Sub(w.t0) / w.slice) }
func (w *window) slices() int             { return int((w.dur + w.slice - 1) / w.slice) }
func (w *window) deadline() time.Time     { return w.t0.Add(w.dur) }

func (w *window) traced(t time.Time) bool {
	return w != nil && w.rec != nil && !t.Before(w.t0) && w.sliceOf(t)%2 == 0
}

// parseBatchResponse reads the three counters of the collector's 202
// body, {"accepted":n,"duplicates":n,"rejected":n,...}, without a JSON
// decoder per response.
func parseBatchResponse(b []byte) (accepted, duplicates, rejected int, ok bool) {
	field := func(name string) (int, bool) {
		i := bytes.Index(b, []byte(`"`+name+`":`))
		if i < 0 {
			return 0, false
		}
		i += len(name) + 3
		n, digits := 0, 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			n = n*10 + int(b[i]-'0')
			digits++
		}
		return n, digits > 0
	}
	var ok1, ok2, ok3 bool
	accepted, ok1 = field("accepted")
	duplicates, ok2 = field("duplicates")
	rejected, ok3 = field("rejected")
	return accepted, duplicates, rejected, ok1 && ok2 && ok3
}

// ingestClient is one closed-loop client: build a node's batch, POST it,
// decode the 202, repeat.
type ingestClient struct {
	id    int
	plan  *ingestPlanner
	ids   rng // the drain span's traceparent, as obs.Inject sends it
	hc    *http.Client
	urls  []string
	entry int
	rec   *recorder
	doID  int32 // the open http.client_do span of a traced request

	rs   []trust.Reading
	body []byte
	resp [512]byte

	acks       []sample
	perSlice   []int64 // accepted items by slice of completion
	attempted  int64
	accepted   int64
	rejected   int64
	duplicates int64
	requests   int64
	bodyBytes  int64
	encodeNs   int64
	firstErr   error
}

func (c *ingestClient) reset(slices int) {
	c.acks = make([]sample, 0, slices*(1<<14))
	c.perSlice = make([]int64, slices+2)
	c.attempted, c.accepted, c.rejected, c.duplicates = 0, 0, 0, 0
	c.requests, c.bodyBytes, c.encodeNs = 0, 0, 0
	c.firstErr = nil
}

// once sends one request. w is nil during warm-up and calibration.
func (c *ingestClient) once(w *window) {
	tEnc := time.Now()
	traced := w.traced(tEnc)
	plan := c.plan.next()
	c.rs = c.plan.fill(c.rs, plan, tEnc.UTC(), ingestEpoch)
	c.body = appendBatch(c.body[:0], c.rs)
	tSend := time.Now()

	ctx := context.Background()
	var root spanRef
	if traced {
		root = spanRef{req: c.rec.newReq(), id: c.rec.newID()}
		c.doID = c.rec.newID()
		ctx = context.WithValue(ctx, spanCtxKey{}, spanRef{req: root.req, id: c.doID})
	}
	url := c.urls[c.entry]
	c.entry = (c.entry + 1) % len(c.urls)
	items := int64(len(c.rs))
	c.attempted += items
	c.requests++
	c.bodyBytes += int64(len(c.body))
	c.encodeNs += int64(tSend.Sub(tEnc))

	accepted, err := c.post(ctx, url)
	tAck := time.Now()
	if traced {
		// Client.Do outside RoundTrip is net/http's client code: it gets its
		// own span so the request's time is accounted for, and counts as
		// http with the round trip.
		c.rec.add(span{ID: c.doID, Parent: root.id, Name: spClientDo, Req: root.req, Start: c.rec.at(tSend), End: c.rec.at(tAck)})
	}
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
	c.accepted += int64(accepted)
	if traced {
		c.rec.add(span{ID: c.rec.newID(), Parent: root.id, Name: spEncode, Req: root.req, Start: c.rec.at(tEnc), End: c.rec.at(tSend)})
		c.rec.add(span{ID: root.id, Name: spRequest, Req: root.req, Start: c.rec.at(tEnc), End: c.rec.at(tAck)})
	}
	if w != nil {
		c.acks = append(c.acks, sample{at: int64(tAck.Sub(w.t0)), dur: int64(tAck.Sub(tSend))})
		if k := w.sliceOf(tAck); k >= 0 && k < len(c.perSlice) {
			c.perSlice[k] += int64(accepted)
		}
	}
}

func (c *ingestClient) post(ctx context.Context, url string) (accepted int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(c.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", traceParent(&c.ids))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	n, rerr := io.ReadFull(resp.Body, c.resp[:])
	resp.Body.Close()
	if rerr != nil && rerr != io.ErrUnexpectedEOF && rerr != io.EOF {
		return 0, rerr
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(c.resp[:n]))
	}
	acc, dup, rej, ok := parseBatchResponse(c.resp[:n])
	if !ok {
		return 0, fmt.Errorf("POST %s: unreadable 202 body %q", url, c.resp[:n])
	}
	c.duplicates += int64(dup)
	c.rejected += int64(rej)
	return acc, nil
}

// ingestRig is the clients of one set-up.
type ingestRig struct {
	clients []*ingestClient
	tr      *http.Transport
	dials   atomic.Int64
}

func newIngestRig(f *fleet, urls []string, rec *recorder) *ingestRig {
	rig := &ingestRig{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	rig.tr = &http.Transport{
		MaxIdleConnsPerHost: ingestClients,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			rig.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	var rt http.RoundTripper = rig.tr
	if rec != nil {
		rt = &transportTap{rec: rec, next: rig.tr}
	}
	hc := &http.Client{Transport: rt, Timeout: 10 * time.Second}
	for i := 0; i < ingestClients; i++ {
		c := &ingestClient{
			id: i, plan: newIngestPlanner(f, i), ids: mix(f.seed, 0x1d5, uint64(i)),
			hc: hc, rec: rec, entry: i % len(urls),
		}
		for _, u := range urls {
			c.urls = append(c.urls, u+"/api/readings")
		}
		rig.clients = append(rig.clients, c)
	}
	return rig
}

// run drives every client until stop says so for that client.
func (rig *ingestRig) run(w *window, stop func(c *ingestClient) bool) {
	var wg sync.WaitGroup
	for _, c := range rig.clients {
		wg.Add(1)
		go func(c *ingestClient) {
			defer wg.Done()
			for !stop(c) {
				c.once(w)
			}
		}(c)
	}
	wg.Wait()
}

func (rig *ingestRig) warmup() error {
	for _, c := range rig.clients {
		c.reset(0)
	}
	rig.run(nil, func(c *ingestClient) bool { return c.requests >= ingestWarmup || c.firstErr != nil })
	for _, c := range rig.clients {
		if c.firstErr != nil {
			return fmt.Errorf("warm-up: %w", c.firstErr)
		}
		if c.accepted != c.attempted {
			return fmt.Errorf("warm-up: %d of %d readings accepted", c.accepted, c.attempted)
		}
	}
	return nil
}

func (rig *ingestRig) close() { rig.tr.CloseIdleConnections() }

// ingestTotals is what the clients of one timed window did, summed.
type ingestTotals struct {
	acks       []sample
	perSlice   []int64 // accepted items by slice of completion
	attempted  int64
	accepted   int64
	requests   int64
	bodyBytes  int64
	encodeNs   int64
	rejected   int64
	duplicates int64
}

func (rig *ingestRig) totals(w *window) ingestTotals {
	t := ingestTotals{perSlice: make([]int64, w.slices()+2)}
	for _, c := range rig.clients {
		if c.firstErr != nil {
			fmt.Fprintf(logOut, "bench: client %d: first error: %v\n", c.id, c.firstErr)
		}
		t.acks = append(t.acks, c.acks...)
		for k, v := range c.perSlice {
			t.perSlice[k] += v
		}
		t.attempted += c.attempted
		t.accepted += c.accepted
		t.requests += c.requests
		t.bodyBytes += c.bodyBytes
		t.encodeNs += c.encodeNs
		t.rejected += c.rejected
		t.duplicates += c.duplicates
	}
	return t
}

// generatorCeiling runs the clients against a handler that reads the body
// and answers a canned 202: the rate the generator and loopback HTTP reach
// with no collector behind them.
func generatorCeiling(f *fleet) (itemsPerS float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	canned := []byte(`{"accepted":0,"duplicates":0,"rejected":0}` + "\n")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		w.Write(canned)
	})}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed at shutdown
	defer srv.Close()
	rig := newIngestRig(f, []string{"http://" + ln.Addr().String()}, nil)
	defer rig.close()
	// The ceiling is a capability: the best of a few short rounds, so a
	// stall of the host during one of them does not lower it.
	for round := 0; round < calibrationRounds; round++ {
		for _, c := range rig.clients {
			c.reset(0)
		}
		start := time.Now()
		end := start.Add(calibrationDur)
		rig.run(nil, func(c *ingestClient) bool { return time.Now().After(end) || c.firstErr != nil })
		elapsed := time.Since(start).Seconds()
		var items int64
		for _, c := range rig.clients {
			if c.firstErr != nil {
				return 0, fmt.Errorf("calibration: %w", c.firstErr)
			}
			items += c.attempted
		}
		itemsPerS = math.Max(itemsPerS, float64(items)/elapsed)
	}
	return itemsPerS, nil
}

// nextBoundary sleeps until the next epoch boundary and returns it, so
// every slice of the window holds exactly one close pass at the same
// offset.
func nextBoundary(epoch time.Duration) time.Time {
	t := time.Now().Truncate(epoch).Add(epoch)
	time.Sleep(time.Until(t))
	return t
}

func runIngest(env *runEnv, members int) (*record, error) {
	r := newRecord(env.workload)
	r.Sizes = map[string]float64{
		"members": float64(members), "nodes": ingestHoods * ingestPerHood, "neighbourhoods": ingestHoods,
		"signals_per_neighbourhood": ingestSignals, "clients": ingestClients,
		"epoch_ms": float64(ingestEpoch / time.Millisecond), "small_batch": ingestSignals,
		"large_batch": 10 * ingestSignals, "large_share": 0.25, "warmup_requests": ingestClients * ingestWarmup,
		"ingest_stripes": shippedStripes,
	}
	f := newFleet(env.seed, ingestHoods, ingestPerHood, ingestSignals)
	if members > 1 && !env.mini {
		if err := gateRingEquivalence(env.seed); err != nil {
			return nil, fmt.Errorf("ring equivalence gate: %w", err)
		}
	}

	// Set-up, several times over; the last one is measured.
	var (
		cl     *cluster
		rig    *ingestRig
		setups []float64
	)
	for i := 0; i < env.setups; i++ {
		if cl != nil {
			// A discarded set-up is the harness's garbage, not the system's
			// peak_rss_mb: collect it before the next one is built.
			rig.close()
			cl.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if cl, err = newCluster(members, f, ingestEpoch, env.rec, true); err != nil {
			return nil, err
		}
		urls := make([]string, len(cl.members))
		for k, m := range cl.members {
			urls[k] = m.url
		}
		rig = newIngestRig(f, urls, env.rec)
		if err := rig.warmup(); err != nil {
			rig.close()
			cl.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		rig.close()
		cl.close()
	}()
	r.Metrics.set("setup_s", median(setups), "s")

	var ceiling float64
	if env.rec != nil && !env.mini {
		var err error
		if ceiling, err = generatorCeiling(f); err != nil {
			return nil, err
		}
	}

	// The timed window.
	w := newWindow(nextBoundary(ingestEpoch), env.seconds, ingestEpoch, env.rec)
	for _, m := range cl.members {
		m.win.Store(w)
	}
	for _, c := range rig.clients {
		c.reset(w.slices())
	}
	fs0 := make([]fsCounts, len(cl.members))
	for i, m := range cl.members {
		fs0[i] = m.fs.counts()
	}
	sampler := startSliceSampler(w)
	speed := startSpeedProbe(w)
	before := snapshotProc()
	deadline := w.deadline()
	rig.run(w, func(c *ingestClient) bool { return !time.Now().Before(deadline) })
	after := snapshotProc()
	cl.stopClosers()
	stolen, sliceCPU := sampler.wait()
	keep, nStolen := cleanSlices(stolen)
	slow := speed.slowdown(w, keep)

	tot := rig.totals(w)
	r.Attempted, r.Accepted = tot.attempted, tot.accepted
	r.Failed = r.Attempted - r.Accepted
	r.Sizes["seconds"] = env.seconds

	// Rates and latencies come from the slices the hypervisor left alone,
	// and the CPU-bound ones are reported at nominal host speed (see
	// hostspeed.go); the books above count everything, and the raw values
	// stay in the record.
	rate, cpuPerItem := sliceRates(w, keep, tot.perSlice, sliceCPU)
	r.Metrics.set("accepted_per_s", rate*slow, "items/s")
	r.Metrics.set("cpu_s_per_mitem", cpuPerItem*1e6/slow, "s")
	acks := inSlices(tot.acks, int64(w.slice), keep)
	ack50 := sliceQuantile(acks, int64(w.slice), 50)
	ack99 := sliceQuantile(acks, int64(w.slice), 99)
	r.Metrics.setQ("ack_p50_ms", ack50, 1e-6/slow, "ms")
	r.Metrics.setQ("ack_p99_ms", ack99, 1e-6/slow, "ms")
	r.Counts["host_slowdown"] = fmt.Sprintf("%.3f", slow)
	r.Counts["raw_accepted_per_s"] = fmt.Sprintf("%.0f", rate)
	r.Counts["raw_cpu_s_per_mitem"] = fmt.Sprintf("%.2f", cpuPerItem*1e6)
	r.Counts["raw_ack_p50_ms"] = fmt.Sprintf("%.4f", ack50.value/1e6)
	r.Counts["raw_ack_p99_ms"] = fmt.Sprintf("%.4f", ack99.value/1e6)
	coord := cl.coord
	lags := coord.lagsWithin(w)
	if kept := inSlices(lags, int64(w.slice), keep); len(kept) > 0 {
		lags = kept // a window so short that its only pass was stolen keeps that pass
	}
	r.Metrics.setQ("result_lag_p50_ms", sliceQuantile(lags, int64(w.slice), 50), 1e-6, "ms")
	r.Metrics.setQ("result_lag_p99_ms", sliceQuantile(lags, int64(w.slice), 99), 1e-6, "ms")
	r.Counts["requests"] = fmt.Sprint(tot.requests)
	r.Counts["stolen_slices"] = fmt.Sprintf("%d of %d", nStolen, len(keep))
	r.StolenShare = float64(nStolen) / float64(len(keep))
	r.Counts["rejected"] = fmt.Sprint(tot.rejected)
	r.Counts["duplicates"] = fmt.Sprint(tot.duplicates)

	// After timing: flush what is pending, then check the books.
	passes := coord.passesWithin(w)
	if err := checkIngest(r, cl, tot.rejected, tot.duplicates, env.rec != nil); err != nil {
		return nil, err
	}
	r.Correct = true
	if env.rec == nil {
		return r, nil
	}

	// Traced run: the per-layer ledger.
	ms := r.Metrics
	if ceiling > 0 {
		ms.set("generator.cpu_share", rate/ceiling, "ratio")
	}
	ms.set("generator.stall_slices", float64(stallSlices(ack99.perSlice)), "count")
	ms.set("generator.stolen_slices", float64(nStolen), "count")
	ms.set("generator.host_slowdown", slow, "ratio")
	ms.set("http.conns_opened", float64(rig.dials.Load()), "count")
	sum := summarize(env.rec.all())
	ingestLedger(ms, cl, tot, sum)
	closeLedger(ms, passes, coord.anomalyCount())
	storeLedger(ms, cl.members, fs0, coord.appendsWithin(w), r.Accepted)
	processMetrics(ms, before, after, r.Accepted, len(speed.bursts))
	traceLedger(ms, w, keep, tot.perSlice, sum)
	return r, nil
}

// ingestLedger fills the generator's, http's, trust ingest's and the
// ring's entries from the clients' totals and the traced slices' spans.
func ingestLedger(ms metricSet, cl *cluster, tot ingestTotals, sum *spanSummary) {
	if tot.attempted > 0 {
		ms.set("generator.encode_ns_per_item", float64(tot.encodeNs)/float64(tot.attempted), "ns")
		ms.set("http.bytes_per_item", float64(tot.bodyBytes)/float64(tot.attempted), "B")
	}
	ms.set("trust.rejected", float64(tot.rejected), "count")
	ms.set("trust.duplicates", float64(tot.duplicates), "count")
	ms.set("http.roundtrip_self_us", (sum.get(spClientDo).meanSelf()+sum.get(spRoundtrip).meanSelf())/1e3, "us")
	ms.set("trust.harden_self_us", sum.get(spHarden).meanSelf()/1e3, "us")
	if len(cl.members) == 1 {
		ms.set("trust.handler_us_per_req", sum.get(spHandler).meanDur()/1e3, "us")
		ms.set("trust.close.drain_pending_ms_p50", median(sum.get(spDrainPending).durs)/1e6, "ms")
		ms.set("trust.close.close_drained_self_ms_p50", median(sum.get(spCloseDrained).selfs)/1e6, "ms")
		return
	}
	// On the ring the handler's figure is the owner's side; the entry
	// member's is the ring's own.
	ms.set("trust.handler_us_per_req", sum.get(spOwnerHandler).meanDur()/1e3, "us")
	ms.set("replica.entry_handler_us_per_req", sum.get(spHandler).meanDur()/1e3, "us")
	ms.set("replica.forward_roundtrip_us", sum.get(spForward).meanDur()/1e3, "us")
	var forwards, forwardBytes int64
	for _, m := range cl.members {
		forwards += m.peer.forwards.Load()
		forwardBytes += m.peer.forwardBytes.Load()
	}
	// The peer taps count from set-up on; warm-up traffic has the same
	// shape, so the ratios hold.
	ms.set("replica.forwarded_fraction", float64(forwards)/float64(tot.requests+ingestClients*ingestWarmup), "ratio")
	if forwards > 0 && tot.attempted > 0 {
		// A forward carries one client request's readings to one owner.
		itemsPerRequest := float64(tot.attempted) / float64(tot.requests)
		ms.set("replica.forward_bytes_per_item", float64(forwardBytes)/float64(forwards)/itemsPerRequest, "B")
	}
	ms.set("replica.merge_close_ms_p50", median(sum.get(spMergeClose).durs)/1e6, "ms")
	ms.set("replica.drain_roundtrip_ms_p50", median(sum.get(spDrainRoundtrip).durs)/1e6, "ms")
	ms.set("replica.install_roundtrip_ms_p50", median(sum.get(spInstallRoundtrip).durs)/1e6, "ms")
	ms.set("trust.close.close_drained_self_ms_p50", median(sum.get(spMergeClose).selfs)/1e6, "ms")
}

// closeLedger fills trust.close.* from the passes observed in the window.
func closeLedger(ms metricSet, passes []closePass, anomalies int64) {
	ms.set("trust.close.passes", float64(len(passes)), "count")
	ms.set("trust.close.anomalies", float64(anomalies), "count")
	if len(passes) == 0 {
		return
	}
	ms.set("trust.close.pass_ms_last", float64(passes[len(passes)-1].dur)/1e6, "ms")
	var tracedPasses, epochs, readings int
	var durNs int64
	for _, p := range passes {
		if p.traced && p.readings > 0 {
			tracedPasses++
			epochs += p.epochs
			readings += p.readings
			durNs += int64(p.dur)
		}
	}
	if tracedPasses > 0 {
		ms.set("trust.close.epochs_per_pass", float64(epochs)/float64(tracedPasses), "count")
		ms.set("trust.close.us_per_epoch_reading", float64(durNs)/1e3/float64(readings), "us")
	}
}

// storeLedger fills store.* from the filesystem and store taps.
func storeLedger(ms metricSet, members []*member, fs0 []fsCounts, appends []sample, items int64) {
	var syncs []float64
	var bytes int64
	for i, m := range members {
		syncs = append(syncs, m.fs.syncsSince(fs0[i].syncs)...)
		bytes += m.fs.counts().bytes - fs0[i].bytes
	}
	ms.set("store.fsync_count", float64(len(syncs)), "count")
	if len(syncs) > 0 {
		ms.set("store.fsync_ms_p50", median(syncs)/1e6, "ms")
	}
	if len(appends) > 0 {
		ms.set("store.append_scores_ms_p50", median(durationsOf(appends))/1e6, "ms")
	}
	if items > 0 {
		ms.set("store.bytes_per_item", float64(bytes)/float64(items), "B")
	}
}

// traceLedger fills trace.*: what tracing cost and how much of request
// time the spans explain. Overhead compares each traced slice with the
// mean of its two untraced neighbours, which cancels the drift of a
// system that slows as its history grows, and takes the median.
func traceLedger(ms metricSet, w *window, keep []bool, perSlice []int64, sum *spanSummary) {
	var loss []float64
	for k := 2; k+1 < w.slices(); k += 2 {
		if !keep[k-1] || !keep[k] || !keep[k+1] {
			continue
		}
		if plain := float64(perSlice[k-1]+perSlice[k+1]) / 2; plain > 0 {
			loss = append(loss, 100*(1-float64(perSlice[k])/plain))
		}
	}
	if len(loss) > 0 {
		ms.set("trace.overhead_pct", median(loss), "%")
	}
	ms.set("trace.spans_recorded", float64(sum.total), "count")
	ms.set("trace.coverage_pct", 100*sum.coverage, "%")
}

// sliceRates gives items per second and CPU seconds per item over the
// kept slices.
func sliceRates(w *window, keep []bool, items []int64, cpu []float64) (perS, cpuPerItem float64) {
	var n, cpuS float64
	var slices int
	for k, ok := range keep {
		if ok {
			n += float64(items[k])
			cpuS += cpu[k]
			slices++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return n / (float64(slices) * w.slice.Seconds()), cpuS / n
}

func (m *member) lagsWithin(w *window) []sample {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	var out []sample
	for _, s := range m.lagNs {
		at := s.at - w.t0.UnixNano()
		if at >= 0 && at <= int64(w.dur)+int64(w.slice) {
			out = append(out, sample{at: at, dur: s.dur})
		}
	}
	return out
}

func (m *member) passesWithin(w *window) []closePass {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	var out []closePass
	for _, p := range m.passes {
		if !p.start.Before(w.t0) && p.start.Before(w.deadline()) {
			out = append(out, p)
		}
	}
	return out
}

func (m *member) appendsWithin(w *window) []sample {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	var out []sample
	for _, s := range m.st.appends {
		if s.at >= w.t0.UnixNano() && s.at <= w.deadline().UnixNano() {
			out = append(out, s)
		}
	}
	return out
}

func (m *member) anomalyCount() int64 {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	return m.anomalies
}

// sortedScores lists a ledger's (node, score) pairs by node.
func sortedScores(l *trust.Ledger) []trust.ScoreUpdate {
	nodes := l.Nodes()
	out := make([]trust.ScoreUpdate, len(nodes))
	for i, n := range nodes {
		out[i] = trust.ScoreUpdate{Node: n.ID, Score: l.Trust(n.ID)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
