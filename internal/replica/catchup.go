package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/store"
	"sensorcal/internal/trust"
)

// Snapshot catch-up. A joining (or power-cycled) replica bootstraps by
// streaming a live peer's durable state: the peer's newest ledger
// snapshot, then every WAL record past it (sealed segments before the
// active tail — replay order), then the closed-epoch history, which is
// recomputed state the WAL does not carry. The stream is JSONL so the
// peer never buffers its whole state and the joiner applies records as
// they arrive.
//
// The joiner applies every record through its own collector and durable
// log: registrations via the idempotent ApplyRegister (which appends to
// the joiner's WAL), scores via SetScore plus an error-checked append.
// Nothing is acknowledged anywhere that did not reach the joiner's own
// log first, so the crash-matrix invariant — acked ⊆ recovered — holds
// across a power cut in the middle of catch-up: the partial prefix is
// durable, the rest is refetched on the next attempt, and replay is
// idempotent by construction (absolute scores, idempotent enrollments).

// catchupLine is one JSONL element of /replica/catchup: the durable
// log's record kinds plus "history" lines for recomputed close state.
type catchupLine struct {
	store.CatchupRecord
	Signal string        `json:"signal,omitempty"`
	Epochs []trust.Epoch `json:"epochs,omitempty"`
}

// serveCatchup streams this replica's state to a joining peer.
func (n *Node) serveCatchup(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	if n.log != nil {
		if _, err := n.log.StreamState(func(rec store.CatchupRecord) error {
			return enc.Encode(catchupLine{CatchupRecord: rec})
		}); err != nil {
			// Headers are gone; truncating the stream makes the joiner's
			// decode fail and the attempt retry elsewhere.
			return
		}
	} else {
		// No durable log (in-memory deployment): synthesize a snapshot
		// from the live ledger so catch-up still works.
		var buf bytes.Buffer
		if err := n.col.Ledger.Save(&buf, n.now()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := enc.Encode(catchupLine{CatchupRecord: store.CatchupRecord{Kind: "snapshot", Ledger: buf.Bytes()}}); err != nil {
			return
		}
	}
	for _, sig := range n.col.HistorySignals() {
		line := catchupLine{CatchupRecord: store.CatchupRecord{Kind: "history"}, Signal: sig, Epochs: n.col.History(sig)}
		if err := enc.Encode(line); err != nil {
			return
		}
	}
}

// CatchUp bootstraps this replica from the first live peer, in ring
// order. It clears the "replica" readiness probe while running and
// restores it only on success, so a load balancer never routes to a
// half-copied replica. reached reports whether any peer answered at
// all: false means the whole ring looks cold (first boot) and the
// caller may MarkReady without a copy. A ring of one has no peer to
// copy: it is caught up as it stands, and readiness never drops.
func (n *Node) CatchUp() (reached bool, err error) {
	if n.ring.Len() == 1 {
		return true, nil
	}
	_, span := obs.StartSpan(obs.WithTracer(context.Background(), n.resolveTracer()), "replica.catchup")
	defer span.End()
	n.caughtUp.Store(false)
	n.health.SetReady("replica", false)
	var lastErr error
	for _, peer := range n.peers() {
		got, records, perr := n.catchUpFrom(peer)
		if !got {
			lastErr = perr
			continue
		}
		reached = true
		if perr != nil {
			n.m.catchupFailures.Inc()
			span.SetAttr("error_"+peer.ID, perr.Error())
			lastErr = perr
			continue
		}
		span.SetAttr("peer", peer.ID)
		span.SetAttr("records", strconv.Itoa(records))
		n.MarkReady()
		return true, nil
	}
	if lastErr != nil {
		span.SetError(lastErr)
	}
	return reached, lastErr
}

// catchUpFrom copies one peer's state. got reports whether the peer
// answered the request (distinguishing "unreachable, try the next"
// from "reachable but the copy failed").
func (n *Node) catchUpFrom(peer Member) (got bool, records int, err error) {
	req, err := n.newPeerRequest(http.MethodGet, peer.URL+"/replica/catchup", nil)
	if err != nil {
		return false, 0, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return true, 0, fmt.Errorf("peer returned %d", resp.StatusCode)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(resp.Body, 32<<10))
	for {
		var line catchupLine
		if derr := dec.Decode(&line); errors.Is(derr, io.EOF) {
			break
		} else if derr != nil {
			return true, records, fmt.Errorf("decoding catch-up stream: %w", derr)
		}
		if aerr := n.applyCatchup(line); aerr != nil {
			return true, records, fmt.Errorf("applying %s record: %w", line.Kind, aerr)
		}
		records++
		n.m.catchupRecords.Inc()
	}
	return true, records, nil
}

// applyCatchup applies one stream record through this replica's own
// collector and durable log. Unknown kinds are skipped — the same
// forward-compatibility rule the WAL's Recover applies.
func (n *Node) applyCatchup(line catchupLine) error {
	switch line.Kind {
	case "snapshot":
		tmp := trust.NewLedger()
		if err := tmp.LoadAt(bytes.NewReader(line.Ledger), n.now()); err != nil {
			return err
		}
		nodes := tmp.Nodes()
		updates := make([]trust.ScoreUpdate, 0, len(nodes))
		for _, node := range nodes {
			if err := n.col.ApplyRegister(node); err != nil {
				return err
			}
			updates = append(updates, trust.ScoreUpdate{Node: node.ID, Score: tmp.Trust(node.ID)})
		}
		return n.installScores(n.now(), updates)
	case "reg":
		if line.Node == nil || line.Node.ID == "" {
			return fmt.Errorf("registration record without a node")
		}
		return n.col.ApplyRegister(*line.Node)
	case "scores":
		return n.installScores(line.At, line.Scores)
	case "history":
		if line.Signal == "" {
			return fmt.Errorf("history record without a signal")
		}
		n.col.InstallHistory(line.Signal, line.Epochs)
		return nil
	}
	return nil
}

// installScores sets absolute scores and appends them to this
// replica's own durable log, error-checked: a failed append fails the
// catch-up rather than leaving the joiner claiming state its disk
// never saw.
func (n *Node) installScores(at time.Time, updates []trust.ScoreUpdate) error {
	for _, u := range updates {
		n.col.Ledger.SetScore(u.Node, u.Score)
	}
	if n.col.Store != nil && len(updates) > 0 {
		return n.col.Store.AppendScores(at, updates)
	}
	return nil
}
