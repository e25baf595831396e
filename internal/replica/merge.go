package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/trust"
)

// Merge close. An epoch groups readings of one signal across many
// nodes, and ring ownership scatters those nodes across replicas — so
// epoch close is the one operation that must see the union. The
// coordinator (lexically smallest member ID, no election) drains every
// replica's matured pending epochs, merges them per (signal, window),
// runs the one close pipeline over the merged list, and broadcasts the
// result for followers to install. The pipeline is the same code path a
// single collector runs (trust.CloseEpochs = DrainPending +
// CloseDrained), so the fleet view is byte-identical by construction.
//
// Failure model:
//   - A peer unreachable at drain time keeps its pending epochs; they
//     mature into the next pass. A drain that fails mid-response is the
//     same story: the peer restages what it drained (serveDrain), and
//     the coordinator — whose decode necessarily failed against the
//     declared Content-Length — merges none of it. Its share of a
//     window closes later than the rest — late, not lost.
//   - A follower unreachable at install time misses the history append
//     and score update; its /api/trust answers lag until the next
//     successful install or its own catch-up. The coordinator's own
//     state (and its durable log) already has the close.
//   - A dead coordinator means no merges at all until it returns —
//     pending epochs accumulate but nothing is lost. Replacing the
//     coordinator is a ring-membership change, which is an operator
//     action (roll the -ring flag), not an election.
//   - A follower shutting down gracefully hands its pending epochs to
//     the coordinator (FlushPending → /replica/handoff), which restages
//     them and closes them in its next pass. Only when the coordinator
//     is also unreachable at that moment does the follower's trailing
//     window die with its process. Agents' spools re-submit only what
//     was never acknowledged, so acked readings in it are lost (ROADMAP
//     item 13).

// MergeClose runs one coordinator close pass over the whole ring:
// drain self and every peer, merge, close, broadcast the install. Only
// the coordinator's epoch loop should schedule it — two concurrent
// mergers would race their history appends into different orders.
func (n *Node) MergeClose(cutoff time.Time) []trust.Anomaly {
	n.closeMu.Lock()
	defer n.closeMu.Unlock()
	_, span := obs.StartSpan(obs.WithTracer(context.Background(), n.resolveTracer()), "replica.merge_close")
	defer span.End()
	drains := [][]trust.Epoch{n.col.DrainPending(cutoff)}
	for _, peer := range n.peers() {
		epochs, err := n.drainPeer(peer, cutoff)
		if err != nil {
			n.m.drainPeerErrors.Inc()
			span.SetAttr("drain_error_"+peer.ID, err.Error())
			continue
		}
		drains = append(drains, epochs)
	}
	merged := trust.MergeDrained(drains...)
	anomalies, updates := n.col.CloseDrained(cutoff, merged)
	n.m.mergeCloses.Inc()
	n.m.mergeEpochs.Add(float64(len(merged)))
	span.SetAttr("epochs", strconv.Itoa(len(merged)))
	span.SetAttr("anomalies", strconv.Itoa(len(anomalies)))
	if len(merged) > 0 || len(updates) > 0 {
		n.broadcastInstall(cutoff, merged, updates)
	}
	return anomalies
}

// drainPeer asks one peer for its matured pending epochs.
func (n *Node) drainPeer(peer Member, cutoff time.Time) ([]trust.Epoch, error) {
	body, err := json.Marshal(drainRequest{Cutoff: cutoff})
	if err != nil {
		return nil, err
	}
	req, err := n.newPeerRequest(http.MethodPost, peer.URL+"/replica/drain", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("peer returned %d", resp.StatusCode)
	}
	var out drainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Epochs, nil
}

// broadcastInstall sends the close result to every peer. Errors are
// counted, not retried: the next pass's install carries newer absolute
// scores, and a restarted peer catches up from the durable log.
func (n *Node) broadcastInstall(at time.Time, epochs []trust.Epoch, updates []trust.ScoreUpdate) {
	peers := n.peers()
	if len(peers) == 0 {
		return
	}
	body, err := json.Marshal(installRequest{At: at, Epochs: epochs, Updates: updates})
	if err != nil {
		return
	}
	for _, peer := range peers {
		req, err := n.newPeerRequest(http.MethodPost, peer.URL+"/replica/install", bytes.NewReader(body))
		if err != nil {
			n.m.installPeerErrors.Inc()
			continue
		}
		resp, err := n.client.Do(req)
		if err != nil {
			n.m.installPeerErrors.Inc()
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			n.m.installPeerErrors.Inc()
		}
	}
}

// FlushPending is a follower's graceful-shutdown path: drain this
// replica's pending epochs — including the still-maturing trailing
// window, per the caller's cutoff — and hand them to the coordinator,
// whose next merge pass closes them. In-memory pending state dies with
// the process, so without the handoff a follower restart silently loses
// every acked reading in the trailing window; the coordinator flushes
// at shutdown for exactly this reason. On any failure the epochs are
// restaged locally (so a caller that is NOT exiting loses nothing) and
// the error reports what a real exit would lose.
func (n *Node) FlushPending(cutoff time.Time) error {
	if n.IsCoordinator() {
		// The coordinator's own shutdown path is MergeClose — on a ring of
		// one, the whole of it.
		return nil
	}
	epochs := n.col.DrainPending(cutoff)
	if len(epochs) == 0 {
		return nil
	}
	coord := n.ring.Coordinator()
	fail := func(err error) error {
		n.col.RestagePending(epochs)
		n.m.handoffErrors.Inc()
		return fmt.Errorf("handing %d pending epochs to coordinator %s: %w", len(epochs), coord.ID, err)
	}
	body, err := json.Marshal(handoffRequest{From: n.self.ID, Epochs: epochs})
	if err != nil {
		return fail(err)
	}
	req, err := n.newPeerRequest(http.MethodPost, coord.URL+"/replica/handoff", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("coordinator returned %d", resp.StatusCode))
	}
	return nil
}
