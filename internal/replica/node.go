package replica

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/store"
	"sensorcal/internal/trust"
)

// ForwardHeader marks a submission already routed by a peer replica. A
// receiver seeing it applies the batch locally and never re-forwards, so
// a stale ring on one member degrades to one extra hop instead of a
// forwarding loop. It is honored only alongside a valid RingAuthHeader:
// an agent (or attacker) forging it is routed normally.
const ForwardHeader = "X-Sensorcal-Forwarded"

// RingAuthHeader carries the ring's shared secret on every peer-to-peer
// request. The /replica/* protocol can set absolute trust scores and
// hand over pending evidence — precisely the levers a sensor fabricator
// wants — so every peer route rejects requests whose credential does
// not match, and the forward fast-path above requires it too.
const RingAuthHeader = "X-Sensorcal-Ring-Auth"

// DefaultBroadcastTimeout bounds one best-effort replication fan-out
// (registration broadcasts): peers are tried concurrently, so a dead
// peer delays /api/register by at most this, not per-peer serially.
const DefaultBroadcastTimeout = 2 * time.Second

// Config wires one replica of the collector ring.
type Config struct {
	// Self is this replica's member ID; it must appear in Members.
	Self string
	// Members is the full ring membership, including Self.
	Members []Member
	// VNodes is the per-member virtual-node count (≤ 0 means
	// DefaultVirtualNodes). Every member must be configured identically.
	VNodes int
	// Collector is this replica's trust collector.
	Collector *trust.Collector
	// Secret is the ring's shared peer credential: it authenticates every
	// /replica/* request and outbound peer call. Every member must be
	// configured with the same value. It is required when the ring has a
	// peer; without one every /replica/* request is refused.
	Secret string
	// BroadcastTimeout bounds one best-effort replication fan-out (≤ 0
	// means DefaultBroadcastTimeout).
	BroadcastTimeout time.Duration
	// Log is the replica's durable trust log; nil means in-memory only
	// (catch-up then synthesizes a snapshot from the live ledger).
	Log *store.TrustLog
	// Client is the peer-to-peer HTTP client; nil means a 10 s-timeout
	// default.
	Client *http.Client
	// Registry receives replica metrics; nil means the process default.
	Registry *obs.Registry
	// Tracer records replica spans; nil means the process default.
	Tracer *obs.Tracer
	// Health, when non-nil, gets a "replica" readiness probe that
	// CatchUp flips: a joining replica fails readiness until it has
	// copied a live peer's state.
	Health *obs.Health
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

// Node is one member of the multi-replica collector tier. It owns a
// slice of the fleet's node IDs (by consistent hash), proxies misrouted
// submissions to their owner, participates in coordinator-driven merge
// closes, and can bootstrap itself from a live peer. A ring of one owns
// the whole fleet and coordinates itself: it is the single collector.
type Node struct {
	self   Member
	ring   *Ring
	col    *trust.Collector
	log    *store.TrustLog
	secret string
	client *http.Client
	bcast  *http.Client // short-timeout client for best-effort fan-outs
	reg    *obs.Registry
	tracer *obs.Tracer
	health *obs.Health
	now    func() time.Time
	m      *metrics

	// closeMu single-flights merge closes, the same discipline the
	// single-daemon epoch loop gives CloseEpochs.
	closeMu  sync.Mutex
	caughtUp atomic.Bool
}

// New builds a replica node. The ring is computed locally from the
// member list — every member configured with the same list computes the
// same placement, so there is no join protocol to run.
func New(cfg Config) (*Node, error) {
	ring, err := NewRing(cfg.Members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	self, ok := ring.Member(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("replica: self %q is not a ring member", cfg.Self)
	}
	if cfg.Collector == nil {
		return nil, fmt.Errorf("replica: config needs a collector")
	}
	if cfg.Secret == "" && ring.Len() > 1 {
		// Refusing to run open is deliberate: /replica/install sets
		// absolute trust scores, which is the exact capability the threat
		// model defends against handing to the network.
		return nil, fmt.Errorf("replica: a ring with peers needs a ring secret (every member the same)")
	}
	n := &Node{
		self:   self,
		ring:   ring,
		col:    cfg.Collector,
		log:    cfg.Log,
		secret: cfg.Secret,
		client: cfg.Client,
		reg:    cfg.Registry,
		tracer: cfg.Tracer,
		health: cfg.Health,
		now:    cfg.Now,
		m:      newMetrics(cfg.Registry),
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 10 * time.Second}
	}
	bt := cfg.BroadcastTimeout
	if bt <= 0 {
		bt = DefaultBroadcastTimeout
	}
	n.bcast = &http.Client{Transport: n.client.Transport, Timeout: bt}
	if n.now == nil {
		n.now = time.Now
	}
	n.caughtUp.Store(true)
	n.health.SetReady("replica", true)
	return n, nil
}

// Ring exposes the node's ring (read-only by construction).
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's member identity.
func (n *Node) Self() Member { return n.self }

// IsCoordinator reports whether this node is the merge-close
// coordinator (the lexically smallest member ID).
func (n *Node) IsCoordinator() bool { return n.ring.Coordinator().ID == n.self.ID }

// CaughtUp reports whether the replica is serving (true from New;
// cleared and restored around CatchUp).
func (n *Node) CaughtUp() bool { return n.caughtUp.Load() }

// MarkReady declares the replica caught up without a peer copy — the
// cold-start path when a whole ring boots at once and no peer has state
// to offer.
func (n *Node) MarkReady() {
	n.caughtUp.Store(true)
	n.health.SetReady("replica", true)
}

// peers returns every member except self, in ring (ID-sorted) order.
func (n *Node) peers() []Member {
	var out []Member
	for _, m := range n.ring.Members() {
		if m.ID != n.self.ID {
			out = append(out, m)
		}
	}
	return out
}

func (n *Node) resolveTracer() *obs.Tracer {
	if n.tracer != nil {
		return n.tracer
	}
	return obs.DefaultTracer()
}

// authorized reports whether a request carries the ring credential; a
// member configured without one authorizes nothing. Constant-time
// comparison: the credential gates score installs, so it must not be
// oracle-guessable byte by byte.
func (n *Node) authorized(r *http.Request) bool {
	got := r.Header.Get(RingAuthHeader)
	return n.secret != "" && subtle.ConstantTimeCompare([]byte(got), []byte(n.secret)) == 1
}

// newPeerRequest builds an outbound peer request with the ring
// credential attached.
func (n *Node) newPeerRequest(method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(RingAuthHeader, n.secret)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

type ringResponse struct {
	Self         string   `json:"self"`
	Coordinator  string   `json:"coordinator"`
	VirtualNodes int      `json:"virtual_nodes"`
	Members      []Member `json:"members"`
	Ready        bool     `json:"ready"`
}

type drainRequest struct {
	Cutoff time.Time `json:"cutoff"`
}

type drainResponse struct {
	Epochs []trust.Epoch `json:"epochs"`
}

type handoffRequest struct {
	From   string        `json:"from"`
	Epochs []trust.Epoch `json:"epochs"`
}

type installRequest struct {
	At      time.Time           `json:"at"`
	Epochs  []trust.Epoch       `json:"epochs"`
	Updates []trust.ScoreUpdate `json:"updates"`
}

// maxBody bounds one peer-protocol request body, matching the
// collector's ingest cap.
const maxBody = 16 << 20

// Handler exposes the replica over HTTP. The agent-facing routes are
// the collector's own (Collector.RoutedHandler), so agents point at any
// member and never learn the ring exists; /replica/* routes are the peer
// protocol and every one of them requires the ring credential
// (RingAuthHeader) — they can set absolute trust scores and hand over
// pending evidence, so an unauthenticated caller gets 403 regardless of
// route or method:
//
//	POST /api/register     — enroll locally, replicate to every peer
//	POST /api/readings     — apply owned readings, proxy the rest
//	GET  /api/fleet        — ledger + freshness merged across replicas
//	GET  /api/trust        — local ledger (replicated, so identical)
//	GET  /api/ring         — ring topology and readiness
//	POST /replica/register — replicated enrollment (idempotent)
//	POST /replica/drain    — drain matured pending epochs to the caller
//	POST /replica/handoff  — restage a shutting-down peer's pending epochs
//	POST /replica/install  — install a coordinator's close result
//	GET  /replica/activity — this replica's freshness partition
//	GET  /replica/catchup  — durable-state dump for a joining replica
//
// A request with nothing to route — every request on a ring of one, and
// a readings group an authenticated peer already routed here — is
// served by Collector.Handler.
func (n *Node) Handler() http.Handler {
	api := n.col.Handler(n.now)
	if n.ring.Len() > 1 {
		local := api
		routed := n.col.RoutedHandler(n.now, trust.Routing{
			Enrolled:  n.broadcastRegister,
			Readings:  n.newForwarder,
			Freshness: n.peerFreshness,
		})
		api = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// A forward header honored only with the credential: a stale
			// ring on one member costs an extra hop, never a loop, and an
			// agent forging the header is routed like any other.
			if r.Header.Get(ForwardHeader) != "" && n.authorized(r) {
				local.ServeHTTP(w, r)
				return
			}
			routed.ServeHTTP(w, r)
		})
	}
	mw := obs.NewMiddleware("replica", n.reg, n.tracer)
	mux := http.NewServeMux()
	mux.Handle("/api/", api)
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, mw.WrapHandler(route, h))
	}
	peer := func(route string, h http.HandlerFunc) {
		handle(route, func(w http.ResponseWriter, r *http.Request) {
			if !n.authorized(r) {
				n.m.authRejects.Inc()
				http.Error(w, "ring credential required", http.StatusForbidden)
				return
			}
			h(w, r)
		})
	}
	// decode reads a POST peer request's body into v, answering 405 or
	// 400 itself when it cannot.
	decode := func(w http.ResponseWriter, r *http.Request, v interface{}) bool {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return false
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return false
		}
		return true
	}
	handle("/api/ring", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ringResponse{
			Self:         n.self.ID,
			Coordinator:  n.ring.Coordinator().ID,
			VirtualNodes: n.ring.VirtualNodes(),
			Members:      n.ring.Members(),
			Ready:        n.caughtUp.Load(),
		})
	})
	peer("/replica/register", func(w http.ResponseWriter, r *http.Request) {
		var node trust.Node
		if !decode(w, r, &node) {
			return
		}
		if node.ID == "" {
			http.Error(w, "replicated enrollment without a node ID", http.StatusBadRequest)
			return
		}
		if err := n.col.ApplyRegister(node); err != nil {
			// No Retry-After: the broadcaster never retries, catch-up heals.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	peer("/replica/drain", func(w http.ResponseWriter, r *http.Request) {
		var req drainRequest
		if !decode(w, r, &req) {
			return
		}
		n.serveDrain(w, req.Cutoff)
	})
	peer("/replica/handoff", func(w http.ResponseWriter, r *http.Request) {
		var req handoffRequest
		if !decode(w, r, &req) {
			return
		}
		// A shutting-down peer's pending evidence restages here and closes
		// in the next merge pass, exactly as if its readings had been
		// submitted to this member in the first place.
		n.col.RestagePending(req.Epochs)
		n.m.handoffEpochs.Add(float64(len(req.Epochs)))
		w.WriteHeader(http.StatusOK)
	})
	peer("/replica/install", func(w http.ResponseWriter, r *http.Request) {
		var req installRequest
		if !decode(w, r, &req) {
			return
		}
		n.col.InstallClosed(req.At, req.Epochs, req.Updates)
		w.WriteHeader(http.StatusOK)
	})
	peer("/replica/activity", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(n.col.FreshnessSnapshot())
	})
	peer("/replica/catchup", func(w http.ResponseWriter, r *http.Request) {
		n.serveCatchup(w, r)
	})
	return mux
}

// serveDrain hands the matured pending epochs to the coordinator. The
// drain must not be destructive before receipt is plausible: the
// response is fully encoded first (with Content-Length, so a partial
// write can never decode as complete on the coordinator) and a failed
// encode or write restages the epochs into pending — the documented
// "late, not lost" failure model, instead of lost on both sides.
func (n *Node) serveDrain(w http.ResponseWriter, cutoff time.Time) {
	epochs := n.col.DrainPending(cutoff)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(drainResponse{Epochs: epochs}); err != nil {
		n.col.RestagePending(epochs)
		n.m.drainRestages.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		n.col.RestagePending(epochs)
		n.m.drainRestages.Inc()
		return
	}
	// Push the bytes through any buffering writer so a dropped connection
	// surfaces as an error here rather than after the handler returns. A
	// flush failure means the coordinator may not have the data: restage —
	// the worst case flips to double-counting within one window on the
	// coordinator's side, which MergeDrained's last-write-wins union
	// absorbs (the readings are identical values).
	if err := http.NewResponseController(w).Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		n.col.RestagePending(epochs)
		n.m.drainRestages.Inc()
	}
}

// broadcastRegister replicates an enrollment to every peer, verbatim:
// the Registered stamp travels with it so every ledger carries the same
// value. Peers are tried concurrently under the short broadcast timeout:
// the fan-out is best-effort (a peer that misses it heals at catch-up,
// and until then readings routed to it for this node are rejected as
// unknown, which the agent's spool retries), so a dead peer may cost the
// registration response at most one broadcast timeout — not the full
// peer-client timeout per dead peer, serially.
func (n *Node) broadcastRegister(node trust.Node) {
	body, err := json.Marshal(node)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, peer := range n.peers() {
		wg.Add(1)
		go func(peer Member) {
			defer wg.Done()
			req, err := n.newPeerRequest(http.MethodPost, peer.URL+"/replica/register", bytes.NewReader(body))
			if err != nil {
				n.m.replicationErrors.Inc()
				return
			}
			resp, err := n.bcast.Do(req)
			if err != nil {
				n.m.replicationErrors.Inc()
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				n.m.replicationErrors.Inc()
			}
		}(peer)
	}
	wg.Wait()
}

// forwarder routes one /api/readings request's misrouted elements to
// their owners. An element is forwarded as the bytes it arrived in —
// decoded once here to find its owner, once more by the owner,
// re-encoded never — so the owner sees exactly what the agent sent.
type forwarder struct {
	n *Node
	// One forward body per owner, indexed like the ring's member list, so
	// owners are tried in the same order on every run. Each is allocated
	// for this request and never reused: the transport may still be
	// reading it after Client.Do returns (an owner that answers 503
	// before it reads the body), so it can belong to no pool.
	remote []misrouted
}

type misrouted struct {
	body  []byte // "[elem,elem" until Place closes it
	count int
}

func (n *Node) newForwarder() trust.ReadingRouter {
	return &forwarder{n: n, remote: make([]misrouted, n.ring.Len())}
}

// Claim takes the elements another member owns.
func (f *forwarder) Claim(rd trust.Reading, raw []byte) bool {
	oi := f.n.ring.ownerIndex(string(rd.Node))
	if f.n.ring.members[oi].ID == f.n.self.ID {
		return false
	}
	g := &f.remote[oi]
	sep := byte(',')
	if g.count == 0 {
		sep = '['
	}
	g.body = append(append(g.body, sep), raw...)
	g.count++
	return true
}

// Place forwards each owner's group with the forward header set. A
// forward failure fails the whole request — the collector sheds it with
// 503 + Retry-After — and the idempotency keys on what was already
// applied make the client's retry safe.
func (f *forwarder) Place(sum *trust.BatchSummary) error {
	for oi, g := range f.remote {
		if g.count == 0 {
			continue
		}
		owner := f.n.ring.members[oi]
		sub, err := f.n.forward(owner, append(g.body, ']'))
		if err != nil {
			f.n.m.forwardErrors.Inc()
			return fmt.Errorf("forwarding to replica %s failed: %v", owner.ID, err)
		}
		f.n.m.forwardedReadings.Add(float64(g.count))
		sum.Merge(sub)
	}
	return nil
}

// forward proxies a misrouted group — a JSON array of the elements as
// they arrived — to its owner and returns the owner's batch summary.
func (n *Node) forward(owner Member, body []byte) (trust.BatchSummary, error) {
	var out trust.BatchSummary
	req, err := n.newPeerRequest(http.MethodPost, owner.URL+"/api/readings", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set(ForwardHeader, n.self.ID)
	resp, err := n.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("owner returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decoding owner response: %w", err)
	}
	return out, nil
}

// peerFreshness merges the peers' freshness partitions for the fleet
// view by newest timestamp per node. The ledger — membership, scores,
// enrollment stamps — is replicated and read locally; only freshness is
// partitioned.
func (n *Node) peerFreshness() map[trust.NodeID]time.Time {
	last := make(map[trust.NodeID]time.Time)
	for _, peer := range n.peers() {
		snap, err := n.fetchActivity(peer)
		if err != nil {
			// A dead peer's partition shows stale freshness until its
			// replacement re-accumulates; scores and membership are local
			// and stay correct.
			n.m.activityPeerErrs.Inc()
			continue
		}
		for id, at := range snap {
			if at.After(last[id]) {
				last[id] = at
			}
		}
	}
	return last
}

// fetchActivity pulls one peer's freshness partition.
func (n *Node) fetchActivity(peer Member) (map[trust.NodeID]time.Time, error) {
	req, err := n.newPeerRequest(http.MethodGet, peer.URL+"/replica/activity", nil)
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
	var snap map[trust.NodeID]time.Time
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap, nil
}
