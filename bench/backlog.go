package main

import (
	"fmt"
	"runtime"
	"time"

	"sensorcal/internal/trust"
)

// backlog_close: a deterministic, single-threaded batch job with no HTTP
// and no timers. One dense metro replays windows of spooled evidence,
// every (node, signal) pair once per window, through SubmitBatch and
// closes each window as it completes. The job repeats on a fresh
// collector until the run's seconds are used; metrics are medians over
// jobs, and every job's set-up is one sample of setup_s.
//
// The sizes are what a 20-s run affords. A close pass costs nodes² ×
// history once the correlation check starts at 8 epochs, so 128 nodes
// over 20 windows is a job of about three seconds here (256 nodes over 24
// windows is about a minute and a half). Twenty windows put the median
// pass among those that run the full consensus pipeline.

const (
	backlogNodes       = 128
	backlogSignals     = 8
	backlogWindows     = 20
	backlogBatch       = 64
	backlogFabricators = 3 // of each kind
	suspectBelow       = 0.35
)

type backlogJob struct {
	setupS     float64
	wallS      float64 // steal taken out
	stolenS    float64
	cpuS       float64
	readings   int64
	accepted   int64
	submits    []sample // one per window: first batch sent → last batch returned
	closes     []sample // close passes
	passes     []closePass
	encodeNs   int64
	anomalies  int64
	epochs     int64
	digest     string
	fsyncs     int
	walBytes   int64
	appends    []sample
	syncNs     []float64
	recoverMs  float64
	compactMs  float64
	passAllocs uint64
	before     procSnapshot
	after      procSnapshot
}

// backlogBase is the start of the first replayed window.
var backlogBase = time.Unix(1_700_000_000, 0).UTC()

// setUpBacklog is a job's set-up: its spooled evidence in memory (the
// generator stands in for the spool reader) and a fresh collector with
// the fleet enrolled and snapshotted. The evidence is most of it: the
// collector alone is three fsyncs, 4 ms whose median moves by 40 % with
// the disk's mood from one minute to the next, which no bound on setup_s
// survives.
func setUpBacklog(f *fleet, rec *recorder) (windows [][]trust.Reading, cl *cluster, seconds float64, err error) {
	start := time.Now()
	windows = make([][]trust.Reading, backlogWindows)
	for w := range windows {
		windows[w] = backlogWindow(f, backlogBase, w, ingestEpoch)
	}
	if cl, err = newCluster(1, f, ingestEpoch, rec, false); err != nil {
		return nil, nil, 0, err
	}
	return windows, cl, time.Since(start).Seconds(), nil
}

// runBacklogJob sets a job up, replays its windows and checks the
// outcome. traced says whether this job records spans.
func runBacklogJob(env *runEnv, f *fleet, inflators, flatliners []int, traced bool) (*backlogJob, error) {
	job := &backlogJob{}
	runtime.GC() // every job starts from a collected heap, not from its predecessor's garbage
	windows, cl, setupS, err := setUpBacklog(f, env.rec)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	m := cl.coord
	job.setupS = setupS
	if traced {
		// One window covering the whole job, all of it traced.
		m.win.Store(&window{t0: time.Now(), dur: time.Hour, slice: time.Hour, rec: env.rec})
	}
	rec := env.rec
	fs0 := m.fs.counts()
	var outs []trust.SubmitOutcome

	job.before = snapshotProc()
	steal0, total0 := hostJiffies()
	t0 := time.Now()
	for w, readings := range windows {
		tWindow := time.Now()
		for lo := 0; lo < len(readings); lo += backlogBatch {
			hi := lo + backlogBatch
			if hi > len(readings) {
				hi = len(readings)
			}
			tEnc := time.Now()
			batch := readings[lo:hi]
			tSend := time.Now()
			outs = m.col.SubmitBatch(batch, outs)
			tAck := time.Now()
			job.encodeNs += int64(tSend.Sub(tEnc))
			job.readings += int64(len(batch))
			for i := range outs {
				if outs[i].Err == nil && !outs[i].Duplicate {
					job.accepted++
				}
			}
			if traced {
				root := spanRef{req: rec.newReq(), id: rec.newID()}
				rec.add(span{ID: rec.newID(), Parent: root.id, Name: spEncode, Req: root.req, Start: rec.at(tEnc), End: rec.at(tSend)})
				rec.add(span{ID: rec.newID(), Parent: root.id, Name: spSubmitBatch, Req: root.req, Start: rec.at(tSend), End: rec.at(tAck)})
				rec.add(span{ID: root.id, Name: spRequest, Req: root.req, Start: rec.at(tEnc), End: rec.at(tAck)})
			}
		}
		// The replayer's acknowledgment is per window: a window's evidence
		// is in once its last batch has returned.
		tIn := time.Now()
		job.submits = append(job.submits, sample{at: int64(tIn.Sub(t0)), dur: int64(tIn.Sub(tWindow))})
		bound := backlogBase.Add(time.Duration(w+1) * ingestEpoch)
		tClose := time.Now()
		m.closePass(bound, bound)
		tDone := time.Now()
		job.closes = append(job.closes, sample{at: int64(tDone.Sub(t0)), dur: int64(tDone.Sub(tClose))})
	}
	job.wallS = time.Since(t0).Seconds()
	// One busy thread: every second the hypervisor stole was stolen from
	// it. The job's rate is over the time it was allowed to run.
	if steal1, total1 := hostJiffies(); total1 > total0 {
		job.stolenS = (steal1 - steal0) / (total1 - total0) * float64(runtime.NumCPU()) * job.wallS
		job.wallS -= job.stolenS
	}
	job.after = snapshotProc()
	job.cpuS = job.after.cpu - job.before.cpu

	job.passes = append(job.passes, m.passes...)
	for _, p := range m.passes {
		job.passAllocs += p.mallocs
	}
	job.anomalies = m.anomalies
	job.digest = scoreDigest(m.col.Ledger)
	job.appends = append(job.appends, m.st.appends...)
	job.syncNs = m.fs.syncsSince(fs0.syncs)
	job.fsyncs = len(job.syncNs)
	job.walBytes = m.fs.counts().bytes - fs0.bytes
	for _, sigs := range f.signals {
		for _, sig := range sigs {
			job.epochs += int64(len(m.col.History(sig)))
		}
	}

	// The outcome: everything accepted, fabricators suspect, nobody else.
	if job.accepted != job.readings {
		return nil, fmt.Errorf("%d of %d readings accepted", job.accepted, job.readings)
	}
	if pending := m.col.PendingEpochs(); pending != 0 {
		return nil, fmt.Errorf("%d epochs still pending after the last close", pending)
	}
	fab := map[int]bool{}
	for _, i := range append(append([]int(nil), inflators...), flatliners...) {
		fab[i] = true
		if s := m.col.Ledger.Trust(f.nodes[i]); float64(s) >= suspectBelow {
			return nil, fmt.Errorf("fabricator %s ended at trust %.3f, not below %.2f", f.nodes[i], float64(s), suspectBelow)
		}
	}
	for i, id := range f.nodes {
		if s := m.col.Ledger.Trust(id); !fab[i] && float64(s) < suspectBelow {
			return nil, fmt.Errorf("honest node %s ended suspect at trust %.3f", id, float64(s))
		}
	}
	if job.recoverMs, job.compactMs, err = m.verifyDurable(); err != nil {
		return nil, err
	}
	return job, nil
}

// runBacklogJobs repeats the job until the run's seconds are used and
// checks that every job repeats the first one's exact counts.
func runBacklogJobs(env *runEnv, f *fleet, inflators, flatliners []int) ([]*backlogJob, error) {
	var jobs []*backlogJob
	deadline := time.Now().Add(time.Duration(env.seconds * float64(time.Second)))
	for len(jobs) == 0 || time.Now().Before(deadline) {
		traced := env.rec != nil && len(jobs)%2 == 0
		job, err := runBacklogJob(env, f, inflators, flatliners, traced)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", len(jobs), err)
		}
		if len(jobs) > 0 {
			if j0 := jobs[0]; j0.digest != job.digest || j0.anomalies != job.anomalies || j0.fsyncs != job.fsyncs {
				return nil, fmt.Errorf("job %d did not repeat job 0: digest %s vs %s, anomalies %d vs %d, fsyncs %d vs %d",
					len(jobs), job.digest, j0.digest, job.anomalies, j0.anomalies, job.fsyncs, j0.fsyncs)
			}
		}
		jobs = append(jobs, job)
		if env.mini {
			break
		}
	}
	return jobs, nil
}

func runBacklog(env *runEnv) (*record, error) {
	r := newRecord(env.workload)
	nodes := backlogNodes
	if env.mini {
		// A side run only has to exercise the close path for another
		// workload's ledger: a quarter of the metro costs a sixteenth.
		nodes = backlogNodes / 4
	}
	r.Sizes = map[string]float64{
		"nodes": float64(nodes), "signals": backlogSignals, "windows": backlogWindows, "batch": backlogBatch,
		"inflators": backlogFabricators, "flatliners": backlogFabricators, "epoch_ms": float64(ingestEpoch / time.Millisecond),
		"ingest_stripes": shippedStripes, "seconds": env.seconds,
	}
	f := newFleet(env.seed, 1, nodes, backlogSignals)
	inflators, flatliners := f.injectFabricators(backlogFabricators)

	// A run holds only a handful of jobs: as many set-ups again ahead of
	// them steady the median.
	var setups []float64
	for i := 0; i < 2*(env.setups-1); i++ {
		_, cl, seconds, err := setUpBacklog(f, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds)
		cl.close()
	}

	// Jobs until the seconds are used, with the speed probe beside them
	// (see hostspeed.go). In a traced run even jobs are traced and odd
	// ones are not.
	span := newWindow(time.Now(), 3600, time.Hour, nil)
	speed := startSpeedProbe(span)
	jobs, err := runBacklogJobs(env, f, inflators, flatliners)
	slow := speed.slowdown(span, []bool{true})
	if err != nil {
		return nil, err
	}

	per := func(fn func(*backlogJob) float64) []float64 {
		out := make([]float64, len(jobs))
		for i, j := range jobs {
			out[i] = fn(j)
		}
		return out
	}
	var cpu float64
	for _, j := range jobs {
		r.Attempted += j.readings
		r.Accepted += j.accepted
		cpu += j.cpuS
	}
	r.Failed = r.Attempted - r.Accepted
	ms := r.Metrics
	ms.set("setup_s", median(append(setups, per(func(j *backlogJob) float64 { return j.setupS })...)), "s")
	// One busy thread and a little fsync: every figure but set-up is CPU
	// time, and is reported at nominal host speed.
	rate := median(per(func(j *backlogJob) float64 { return float64(j.accepted) / j.wallS }))
	cpuPerMItem := cpu / (float64(r.Accepted) / 1e6)
	ms.set("accepted_per_s", rate*slow, "items/s")
	ms.set("cpu_s_per_mitem", cpuPerMItem/slow, "s")
	r.Counts["host_slowdown"] = fmt.Sprintf("%.3f", slow)
	r.Counts["raw_accepted_per_s"] = fmt.Sprintf("%.0f", rate)
	r.Counts["raw_cpu_s_per_mitem"] = fmt.Sprintf("%.2f", cpuPerMItem)
	jobQ := func(name string, pick func(*backlogJob) []sample, want float64) {
		var vals []float64
		q := quantileStat{pct: want}
		for _, j := range jobs {
			jq := sliceQuantile(pick(j), int64(time.Hour), want)
			vals = append(vals, jq.value)
			q.samples += jq.samples
			if jq.pct < q.pct {
				q.pct = jq.pct
			}
		}
		q.value = median(vals)
		ms.setQ(name, q, 1e-6/slow, "ms")
		r.Counts["raw_"+name] = fmt.Sprintf("%.4f", q.value/1e6)
	}
	jobQ("ack_p50_ms", func(j *backlogJob) []sample { return j.submits }, 50)
	jobQ("ack_p99_ms", func(j *backlogJob) []sample { return j.submits }, 99)
	jobQ("result_lag_p50_ms", func(j *backlogJob) []sample { return j.closes }, 50)
	jobQ("result_lag_p99_ms", func(j *backlogJob) []sample { return j.closes }, 99)

	first := jobs[0]
	r.Counts["jobs"] = fmt.Sprint(len(jobs))
	stolenJobs := 0
	for _, j := range jobs {
		if j.stolenS > stolenAbove*(j.wallS+j.stolenS) {
			stolenJobs++
		}
	}
	r.Counts["stolen_jobs"] = fmt.Sprint(stolenJobs)
	r.StolenShare = float64(stolenJobs) / float64(len(jobs))
	r.Counts["readings_per_job"] = fmt.Sprint(first.readings)
	r.Counts["epochs_closed_per_job"] = fmt.Sprint(first.epochs)
	r.Counts["anomalies_per_job"] = fmt.Sprint(first.anomalies)
	r.Counts["score_digest"] = first.digest
	r.Counts["fsyncs_per_job"] = fmt.Sprint(first.fsyncs)
	r.Correct = true
	if env.rec == nil {
		return r, nil
	}

	// Traced run: the per-layer ledger, from the traced jobs.
	var tracedJobs, plainJobs []*backlogJob
	for i, j := range jobs {
		if i%2 == 0 {
			tracedJobs = append(tracedJobs, j)
		} else {
			plainJobs = append(plainJobs, j)
		}
	}
	var encodeNs, readings, passReadings, walBytes int64
	var passAllocs uint64
	var passes []closePass
	var appends []sample
	var syncNs []float64
	for _, j := range tracedJobs {
		encodeNs += j.encodeNs
		readings += j.readings
		walBytes += j.walBytes
		passAllocs += j.passAllocs
		passes = append(passes, j.passes...)
		appends = append(appends, j.appends...)
		syncNs = append(syncNs, j.syncNs...)
		for _, p := range j.passes {
			passReadings += int64(p.readings)
		}
	}
	ms.set("generator.encode_ns_per_item", float64(encodeNs)/float64(readings), "ns")
	ms.set("generator.cpu_share", 0, "ratio") // batches are pre-built: the generator is a slice expression
	ms.set("generator.stall_slices", 0, "count")
	ms.set("generator.stolen_slices", float64(stolenJobs), "count")
	ms.set("generator.host_slowdown", slow, "ratio")
	ms.set("trust.rejected", 0, "count")
	ms.set("trust.duplicates", 0, "count")
	sum := summarize(env.rec.all())
	ms.set("trust.close.drain_pending_ms_p50", median(sum.get(spDrainPending).durs)/1e6, "ms")
	ms.set("trust.close.close_drained_self_ms_p50", median(sum.get(spCloseDrained).selfs)/1e6, "ms")
	closeLedger(ms, passes, first.anomalies)
	ms.set("trust.close.passes", float64(len(first.passes)), "count")
	if passReadings > 0 {
		ms.set("trust.close.allocs_per_epoch_reading", float64(passAllocs)/float64(passReadings), "count")
	}
	ms.set("store.fsync_count", float64(first.fsyncs), "count")
	ms.set("store.fsync_ms_p50", median(syncNs)/1e6, "ms")
	ms.set("store.append_scores_ms_p50", median(durationsOf(appends))/1e6, "ms")
	ms.set("store.bytes_per_item", float64(walBytes)/float64(readings), "B")
	ms.set("store.recover_ms", median(per(func(j *backlogJob) float64 { return j.recoverMs })), "ms")
	ms.set("store.compact_ms", median(per(func(j *backlogJob) float64 { return j.compactMs })), "ms")
	firstBursts := 0
	for _, b := range speed.bursts {
		if at := span.t0.Add(time.Duration(b.at)); at.After(first.before.at) && at.Before(first.after.at) {
			firstBursts++
		}
	}
	processMetrics(ms, first.before, first.after, first.accepted, firstBursts)
	rateOf := func(js []*backlogJob) float64 {
		var v []float64
		for _, j := range js {
			v = append(v, float64(j.accepted)/j.wallS)
		}
		return median(v)
	}
	if p := rateOf(plainJobs); p > 0 {
		ms.set("trace.overhead_pct", 100*(p-rateOf(tracedJobs))/p, "%")
	}
	ms.set("trace.spans_recorded", float64(sum.total), "count")
	ms.set("trace.coverage_pct", 100*sum.coverage, "%")
	return r, nil
}
