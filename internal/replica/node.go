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
	// Secret is the ring's shared peer credential, required: it
	// authenticates every /replica/* request and outbound peer call.
	// Every member must be configured with the same value.
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
// closes, and can bootstrap itself from a live peer.
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
	if cfg.Secret == "" {
		// Refusing to run open is deliberate: /replica/install sets
		// absolute trust scores, which is the exact capability the threat
		// model defends against handing to the network.
		return nil, fmt.Errorf("replica: config needs a ring secret (every member the same)")
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

// authorized reports whether a request carries the ring credential.
// Constant-time comparison: the credential gates score installs, so it
// must not be oracle-guessable byte by byte.
func (n *Node) authorized(r *http.Request) bool {
	got := r.Header.Get(RingAuthHeader)
	return got != "" && subtle.ConstantTimeCompare([]byte(got), []byte(n.secret)) == 1
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

// Wire mirrors of the collector's HTTP types: the replica tier speaks
// the exact same agent-facing protocol, so agents stay dumb — they point
// at any replica and never learn the ring exists.

type wireRegister struct {
	ID             string  `json:"id"`
	Operator       string  `json:"operator"`
	Lat            float64 `json:"lat"`
	Lon            float64 `json:"lon"`
	ClaimedOutdoor bool    `json:"claimed_outdoor"`
	Hardware       string  `json:"hardware"`
}

type wireBatchResponse struct {
	Accepted   int      `json:"accepted"`
	Duplicates int      `json:"duplicates"`
	Rejected   int      `json:"rejected"`
	Errors     []string `json:"errors,omitempty"`
}

type wireFleetEntry struct {
	Node          string    `json:"node"`
	Score         float64   `json:"score"`
	Rating        string    `json:"rating"`
	RegisteredAt  time.Time `json:"registered_at"`
	LastReadingAt time.Time `json:"last_reading_at"`
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

// maxBody bounds one request body, matching the collector's ingest cap.
const maxBody = 16 << 20

// localChunk bounds how many locally-owned readings accumulate before a
// SubmitBatch flush, matching the collector's own ingest chunking.
const localChunk = 256

// Handler exposes the replica over HTTP. Agent-facing routes mirror the
// collector's API exactly; /replica/* routes are the peer protocol and
// every one of them requires the ring credential (RingAuthHeader) —
// they can set absolute trust scores and hand over pending evidence,
// so an unauthenticated caller gets 403 regardless of route or method:
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
func (n *Node) Handler() http.Handler {
	mw := obs.NewMiddleware("replica", n.reg, n.tracer)
	mux := http.NewServeMux()
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
	colHandler := n.col.Handler(n.now)
	retryAfter := n.col.RetryAfter
	if retryAfter <= 0 {
		retryAfter = 5 * time.Second
	}
	shed := func(w http.ResponseWriter) bool {
		if !n.col.StoreDegraded() {
			return false
		}
		obs.SetRetryAfter(w, retryAfter)
		http.Error(w, "durable store unavailable, retry later", http.StatusServiceUnavailable)
		return true
	}
	handle("/api/register", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if shed(w) {
			return
		}
		var req wireRegister
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		node := trust.Node{
			ID: trust.NodeID(req.ID), Operator: req.Operator,
			Lat: req.Lat, Lon: req.Lon,
			ClaimedOutdoor: req.ClaimedOutdoor, Hardware: req.Hardware,
			Registered: n.now(),
		}
		err := n.col.RegisterDurable(node)
		if errors.Is(err, trust.ErrStoreUnavailable) {
			obs.SetRetryAfter(w, retryAfter)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		// Replicate the enrollment verbatim — the Registered stamp travels
		// with it so every ledger carries the same value. Best effort: a
		// peer that misses the broadcast picks the node up at its next
		// catch-up, and until then readings routed to it for this node are
		// rejected as unknown (the agent's spool retries them).
		n.broadcastRegister(node)
		w.WriteHeader(http.StatusCreated)
	})
	handle("/api/readings", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if shed(w) {
			return
		}
		n.serveReadings(w, r)
	})
	handle("/api/fleet", func(w http.ResponseWriter, r *http.Request) {
		n.serveFleet(w, r)
	})
	mux.Handle("/api/trust", colHandler)
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
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var node trust.Node
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&node); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if node.ID == "" {
			http.Error(w, "replicated enrollment without a node ID", http.StatusBadRequest)
			return
		}
		if err := n.col.ApplyRegister(node); err != nil {
			obs.SetRetryAfter(w, retryAfter)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	peer("/replica/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req drainRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n.serveDrain(w, req.Cutoff)
	})
	peer("/replica/handoff", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req handoffRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
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
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req installRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
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

// broadcastRegister replicates an enrollment to every peer. Peers are
// tried concurrently under the short broadcast timeout: the fan-out is
// best-effort (a peer that misses it heals at catch-up), so a dead peer
// may cost the registration response at most one broadcast timeout —
// not the full peer-client timeout per dead peer, serially.
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

// serveReadings partitions a submission by ring ownership: owned
// readings apply locally, the rest are proxied per-owner with the
// forward header set. A misrouted element is forwarded as the bytes it
// arrived in — decoded once here to find its owner, once more by the
// owner, re-encoded never — so the owner sees exactly what the agent
// sent. A forward failure fails the whole request with 503 +
// Retry-After — the readings the proxy could not place were never
// acknowledged, and the idempotency keys on the locally-applied prefix
// make the client's retry safe. A request arriving with the forward
// header AND the ring credential is applied entirely locally (a peer
// already routed it); a forged forward header without the credential is
// ignored and the batch routes normally.
func (n *Node) serveReadings(w http.ResponseWriter, r *http.Request) {
	forwarded := r.Header.Get(ForwardHeader) != "" && n.authorized(r)
	var resp wireBatchResponse
	// One forward body per owner, indexed like the ring's member list, so
	// owners are tried in the same order on every run. Each is allocated
	// for this request and never reused: the transport may still be
	// reading it after Client.Do returns (an owner that answers 503
	// before it reads the body), so it can belong to no pool.
	type misrouted struct {
		body  []byte // "[elem,elem" until forward closes it
		count int
	}
	remote := make([]misrouted, n.ring.Len())
	// The locally-owned partition accumulates into chunks and ingests
	// through the collector's batched entry point — the same SubmitBatch
	// the single-collector /api/readings path uses — so each stripe lock
	// is taken once per chunk, not once per reading.
	var (
		local []trust.Reading
		outs  []trust.SubmitOutcome
	)
	flushLocal := func() {
		if len(local) == 0 {
			return
		}
		outs = n.col.SubmitBatch(local, outs)
		for i := range outs {
			switch o := &outs[i]; {
			case o.Err != nil:
				resp.Rejected++
				if len(resp.Errors) < 10 {
					resp.Errors = append(resp.Errors, o.Err.Error())
				}
			case o.Duplicate:
				resp.Duplicates++
			default:
				resp.Accepted++
			}
		}
		n.m.localReadings.Add(float64(len(local)))
		local = local[:0]
	}
	batch, err := n.col.DecodeReadings(r.Body, n.now, func(rd trust.Reading, raw []byte) {
		if !forwarded {
			if oi := n.ring.ownerIndex(string(rd.Node)); n.ring.members[oi].ID != n.self.ID {
				g := &remote[oi]
				sep := byte(',')
				if g.count == 0 {
					sep = '['
				}
				g.body = append(append(g.body, sep), raw...)
				g.count++
				return
			}
		}
		local = append(local, rd)
		if len(local) >= localChunk {
			flushLocal()
		}
	})
	// Ingest the well-formed prefix before rejecting, matching the
	// submit-as-you-decode behaviour retries depend on.
	flushLocal()
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	for oi, g := range remote {
		if g.count == 0 {
			continue
		}
		owner := n.ring.members[oi]
		sub, err := n.forward(owner, append(g.body, ']'))
		if err != nil {
			// Never acknowledge evidence that was not placed: shed and let
			// the agent's retrier replay the whole batch.
			n.m.forwardErrors.Inc()
			retryAfter := n.col.RetryAfter
			if retryAfter <= 0 {
				retryAfter = 5 * time.Second
			}
			obs.SetRetryAfter(w, retryAfter)
			http.Error(w, fmt.Sprintf("forwarding to replica %s failed: %v", owner.ID, err), http.StatusServiceUnavailable)
			return
		}
		n.m.forwardedReadings.Add(float64(g.count))
		resp.Accepted += sub.Accepted
		resp.Duplicates += sub.Duplicates
		resp.Rejected += sub.Rejected
		for _, e := range sub.Errors {
			if len(resp.Errors) < 10 {
				resp.Errors = append(resp.Errors, e)
			}
		}
	}
	if !batch {
		// Mirror the collector's single-object contract: bare 202 on
		// success, 400 when the one reading was rejected.
		if resp.Rejected > 0 {
			msg := "reading rejected"
			if len(resp.Errors) > 0 {
				msg = resp.Errors[0]
			}
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(&resp)
}

// forward proxies a misrouted group — a JSON array of the elements as
// they arrived — to its owner and returns the owner's batch summary.
func (n *Node) forward(owner Member, body []byte) (wireBatchResponse, error) {
	var out wireBatchResponse
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

// serveFleet merges the fleet view across replicas. The ledger —
// membership, scores, enrollment stamps — is replicated, so it is read
// locally; only freshness is partitioned, so each peer's snapshot is
// fetched and merged by newest timestamp per node. The output is the
// collector's /api/fleet wire form, byte for byte.
func (n *Node) serveFleet(w http.ResponseWriter, r *http.Request) {
	last := n.col.FreshnessSnapshot()
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
	nodes := n.col.Ledger.Nodes()
	out := make([]wireFleetEntry, 0, len(nodes))
	for _, node := range nodes {
		s := n.col.Ledger.Trust(node.ID)
		out = append(out, wireFleetEntry{
			Node:          string(node.ID),
			Score:         float64(s),
			Rating:        s.Quantize(),
			RegisteredAt:  node.Registered,
			LastReadingAt: last[node.ID],
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
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
