package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"time"

	"sensorcal/internal/store"
	"sensorcal/internal/stream"
	"sensorcal/internal/trust"
)

// Correctness gates. A failed gate is an error: the run exits non-zero
// and prints no metrics, because a number from a system that gave wrong
// answers describes nothing.

// gateRingEquivalence replays a small deterministic workload into a
// single collector and, over HTTP with the entry member rotating, into a
// three-member ring, closes both at the same cutoffs, and demands
// byte-identical /api/fleet bodies, equal anomaly lists and equal closed
// history on every member.
func gateRingEquivalence(seed uint64) error {
	const hoods, perHood, signals, windows = 3, 4, 3, 10
	f := newFleet(seed^0xe9, hoods, perHood, signals)
	f.injectFabricators(1)
	base := time.Unix(1_700_000_000, 0).UTC()

	single, err := newCluster(1, f, ingestEpoch, nil, false)
	if err != nil {
		return err
	}
	defer single.close()
	if err := single.members[0].listen(); err != nil {
		return err
	}
	single.members[0].serve()
	ring, err := newCluster(3, f, ingestEpoch, nil, false)
	if err != nil {
		return err
	}
	defer ring.close()

	post := func(url string, rs []trust.Reading) error {
		resp, err := http.Post(url+"/api/readings", "application/json", bytes.NewReader(appendBatch(nil, rs)))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		acc, _, _, ok := parseBatchResponse(body)
		if resp.StatusCode != http.StatusAccepted || !ok || acc != len(rs) {
			return fmt.Errorf("POST %s: status %d, body %s", url, resp.StatusCode, bytes.TrimSpace(body))
		}
		return nil
	}
	var anomaliesSingle, anomaliesRing []trust.Anomaly
	entry := 0
	for w := 0; w < windows; w++ {
		r := mix(seed, 0xe9, uint64(w))
		at := base.Add(time.Duration(w) * ingestEpoch)
		for n := range f.nodes {
			rs := make([]trust.Reading, 0, signals)
			for s, sig := range f.signals[f.hoodOf[n]] {
				rd := trust.Reading{Node: f.nodes[n], SignalID: sig, PowerDBm: f.powerDBm(n, s, int64(w), r.float()), At: at}
				rd.Key = trust.ReadingKey(rd)
				rs = append(rs, rd)
			}
			if err := post(single.members[0].url, rs); err != nil {
				return err
			}
			if err := post(ring.members[entry%3].url, rs); err != nil {
				return err
			}
			entry++
		}
		cutoff := at.Add(ingestEpoch)
		anomaliesSingle = append(anomaliesSingle, single.coord.col.CloseEpochs(cutoff)...)
		anomaliesRing = append(anomaliesRing, ring.coord.node.MergeClose(cutoff)...)
	}
	if !reflect.DeepEqual(anomaliesSingle, anomaliesRing) {
		return fmt.Errorf("anomalies differ: single %d, ring %d", len(anomaliesSingle), len(anomaliesRing))
	}
	want, err := fetch(single.members[0].url + "/api/fleet")
	if err != nil {
		return err
	}
	for _, m := range ring.members {
		got, err := fetch(m.url + "/api/fleet")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("/api/fleet on %s differs from the single collector's", m.id)
		}
		for _, sigs := range f.signals {
			for _, sig := range sigs {
				if !reflect.DeepEqual(m.col.History(sig), single.coord.col.History(sig)) {
					return fmt.Errorf("history of %s on %s differs from the single collector's", sig, m.id)
				}
			}
		}
	}
	return nil
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// checkIngest runs after the timed window of an ingest workload, with the
// closers stopped: every attempted reading was accepted and none was
// rejected or taken for a duplicate; after one last close of everything
// pending, ring members serve byte-identical fleets; and a fresh ledger
// recovered from each WAL directory holds the live ledger's scores. It
// stops the servers. In a traced run it also times the recovery and one
// compaction for the store layer.
func checkIngest(r *record, cl *cluster, rejected, duplicates int64, traced bool) error {
	cutoff := time.Now().Add(2 * ingestEpoch)
	if cl.coord.node != nil {
		cl.coord.node.MergeClose(cutoff)
	} else {
		cl.coord.col.CloseEpochs(cutoff)
	}
	var fleetErr error
	if len(cl.members) > 1 {
		want, err := fetch(cl.members[0].url + "/api/fleet")
		if err != nil {
			return err
		}
		for _, m := range cl.members[1:] {
			got, err := fetch(m.url + "/api/fleet")
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				fleetErr = fmt.Errorf("/api/fleet on %s differs from %s after the final merge close", m.id, cl.members[0].id)
			}
		}
	}
	cl.stop()
	if fleetErr != nil {
		return fleetErr
	}
	if r.Failed != 0 || rejected != 0 || duplicates != 0 {
		return fmt.Errorf("%d of %d readings not accepted (%d rejected, %d duplicates)", r.Failed, r.Attempted, rejected, duplicates)
	}
	for _, m := range cl.members {
		recoverMs, compactMs, err := m.verifyDurable()
		if err != nil {
			return fmt.Errorf("member %s: %w", m.id, err)
		}
		if traced && m == cl.coord {
			r.Metrics.set("store.recover_ms", recoverMs, "ms")
			r.Metrics.set("store.compact_ms", compactMs, "ms")
		}
	}
	return nil
}

// verifyDurable closes the member's WAL, reopens its directory the way a
// restarted daemon would, and checks that the recovered ledger holds the
// same nodes and scores as the live one: what was acknowledged is what
// would survive. It returns how long recovery and one compaction took.
func (m *member) verifyDurable() (recoverMs, compactMs float64, err error) {
	if err := m.tlog.Close(); err != nil {
		return 0, 0, err
	}
	m.tlog = nil
	start := time.Now()
	tl, err := store.OpenTrustLog(m.dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer tl.Close()
	fresh := trust.NewLedger()
	if _, err := tl.Recover(fresh, time.Now()); err != nil {
		return 0, 0, err
	}
	recoverMs = float64(time.Since(start)) / 1e6
	live, got := sortedScores(m.col.Ledger), sortedScores(fresh)
	if !reflect.DeepEqual(live, got) {
		return 0, 0, fmt.Errorf("ledger recovered from the WAL differs from the live ledger (%d vs %d nodes)", len(got), len(live))
	}
	start = time.Now()
	if err := tl.Compact(fresh, time.Now()); err != nil {
		return 0, 0, err
	}
	compactMs = float64(time.Since(start)) / 1e6
	return recoverMs, compactMs, nil
}

// scoreDigest is a SHA-256 over the sorted (node, score) list, scores by
// their exact bits: an exact-repeat count for deterministic workloads.
func scoreDigest(l *trust.Ledger) string {
	h := sha256.New()
	for _, u := range sortedScores(l) {
		fmt.Fprintf(h, "%s %016x\n", u.Node, math.Float64bits(float64(u.Score)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gateEngine checks that the shared batched engine is bit-identical to
// the per-sensor serial reference at batch sizes 1, 8 and 64.
func gateEngine(sensors []sensor, fft int) error {
	eng, err := stream.NewEngine(fft, nil)
	if err != nil {
		return err
	}
	for _, batch := range []int{1, 8, 64} {
		jobs := make([]stream.Job, batch)
		for i := range jobs {
			jobs[i] = stream.Job{IQ: sensors[i%len(sensors)].iq, SampleRate: streamSampleRate, Bins: make([]float64, fft)}
		}
		if err := eng.Process(jobs); err != nil {
			return err
		}
		for i := range jobs {
			want, err := stream.SerialReference(jobs[i].IQ, streamSampleRate, fft, nil)
			if err != nil {
				return err
			}
			for k := range want {
				if math.Float64bits(want[k]) != math.Float64bits(jobs[i].Bins[k]) {
					return fmt.Errorf("engine at batch %d, frame %d, bin %d: %v, serial reference %v", batch, i, k, jobs[i].Bins[k], want[k])
				}
			}
		}
	}
	return nil
}
