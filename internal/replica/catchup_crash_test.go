package replica

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/resilience/chaos"
	"sensorcal/internal/store"
	"sensorcal/internal/store/wal"
	"sensorcal/internal/trust"
)

// TestCatchupPowerCut drives the crash-matrix property through the
// catch-up path: a joining replica whose power dies mid-copy must
// reboot into a state that is a valid prefix of the peer's — every
// recovered node exists on the peer with a score the peer's log could
// have given it (acked ⊆ recovered ⊆ attempted) — and a retry after
// reboot converges exactly.
func TestCatchupPowerCut(t *testing.T) {
	// A live peer with real durable state: enrollments, a close pass
	// worth of scores, history.
	peerLog, err := store.OpenTrustLog(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer peerLog.Close()
	peerCol := newTestCollector()
	peerCol.Store = peerLog
	const fleet = 20
	for ni := 0; ni < fleet; ni++ {
		err := peerCol.ApplyRegister(trust.Node{
			ID: trust.NodeID(fmt.Sprintf("node-%d", ni)), Operator: "op",
			Hardware: "rtl-sdr-v3", Registered: testEpoch,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for ni := 0; ni < fleet; ni++ {
		power := -60.0
		if ni == 7 {
			power = -10 // flagrant upper-bound violation: scores move
		}
		err := peerCol.Submit(trust.Reading{
			Node: trust.NodeID(fmt.Sprintf("node-%d", ni)), SignalID: "tv-521MHz",
			PowerDBm: power, At: testEpoch,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if anoms := peerCol.CloseEpochs(testEpoch.Add(5 * time.Minute)); len(anoms) == 0 {
		t.Fatal("peer close produced no anomalies; scores never moved")
	}
	peerNode, err := New(Config{
		Self:      "r1",
		Members:   []Member{{ID: "r1"}, {ID: "r2"}},
		Collector: peerCol,
		Secret:    testRingSecret,
		Log:       peerLog,
		Registry:  obs.NewRegistry(),
		Now:       frozenNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerSrv := httptest.NewServer(peerNode.Handler())
	defer peerSrv.Close()
	peerLedger := peerCol.Ledger

	joinDir := t.TempDir()
	newJoiner := func(fs wal.FS) (*Node, *store.TrustLog) {
		log, err := store.OpenTrustLog(joinDir, wal.Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		col := newTestCollector()
		col.Store = log
		node, err := New(Config{
			Self:      "r2",
			Members:   []Member{{ID: "r1", URL: peerSrv.URL}, {ID: "r2"}},
			Collector: col,
			Secret:    testRingSecret,
			Log:       log,
			Registry:  obs.NewRegistry(),
			Client:    &http.Client{Timeout: 5 * time.Second},
			Now:       frozenNow,
		})
		if err != nil {
			t.Fatal(err)
		}
		return node, log
	}

	// Crash cycles: arm ever-larger byte budgets so the cut lands at
	// different depths of the copy — mid-registration replay, mid-score
	// batch. After each cut, reboot (reopen with the real filesystem) and
	// check the recovered prefix is valid.
	for cycle, budget := range []int64{1, 200, 900, 2500} {
		fs := chaos.NewPowerCutFS(wal.OS{}, int64(cycle)*7919+1)
		joiner, log := newJoiner(fs)
		fs.ArmCrash(budget)
		reached, cerr := joiner.CatchUp()
		log.Close()
		if !reached {
			t.Fatalf("cycle %d: peer unreachable", cycle)
		}
		if cerr == nil && budget < 900 {
			t.Fatalf("cycle %d: catch-up survived a %d-byte power budget", cycle, budget)
		}
		// Reboot: what the disk really holds.
		rebootLog, err := store.OpenTrustLog(joinDir, wal.Options{})
		if err != nil {
			t.Fatalf("cycle %d: reopening after power cut: %v", cycle, err)
		}
		recovered := trust.NewLedger()
		if _, err := rebootLog.Recover(recovered, testEpoch); err != nil {
			t.Fatalf("cycle %d: recovering after power cut: %v", cycle, err)
		}
		rebootLog.Close()
		for _, n := range recovered.Nodes() {
			pn, ok := peerLedger.Node(n.ID)
			if !ok {
				t.Fatalf("cycle %d: recovered node %s the peer never had", cycle, n.ID)
			}
			if !n.Registered.Equal(pn.Registered) {
				t.Fatalf("cycle %d: node %s registered stamp drifted", cycle, n.ID)
			}
			got := recovered.Trust(n.ID)
			if got != recovered.Initial && got != peerLedger.Trust(n.ID) {
				t.Fatalf("cycle %d: node %s recovered score %v is neither initial %v nor peer %v",
					cycle, n.ID, got, recovered.Initial, peerLedger.Trust(n.ID))
			}
		}
	}

	// Final cycle: healthy power. The retry must converge byte-exactly
	// (replaying the partial prefix already on disk is idempotent).
	joiner, log := newJoiner(wal.OS{})
	defer log.Close()
	reached, err := joiner.CatchUp()
	if !reached || err != nil {
		t.Fatalf("final catch-up: reached=%v err=%v", reached, err)
	}
	if got, want := len(joiner.col.Ledger.Nodes()), fleet; got != want {
		t.Fatalf("joiner recovered %d nodes, want %d", got, want)
	}
	for _, n := range peerLedger.Nodes() {
		if got, want := joiner.col.Ledger.Trust(n.ID), peerLedger.Trust(n.ID); got != want {
			t.Fatalf("node %s: joiner score %v, peer %v", n.ID, got, want)
		}
	}
	// And the durable copy survives its own reboot.
	log.Close()
	rebootLog, err := store.OpenTrustLog(joinDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rebootLog.Close()
	final := trust.NewLedger()
	if _, err := rebootLog.Recover(final, testEpoch); err != nil {
		t.Fatal(err)
	}
	for _, n := range peerLedger.Nodes() {
		if got, want := final.Trust(n.ID), peerLedger.Trust(n.ID); got != want {
			t.Fatalf("after reboot, node %s score %v, want %v", n.ID, got, want)
		}
	}
}
