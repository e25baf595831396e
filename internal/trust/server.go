package trust

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sensorcal/internal/obs"
)

// Collector is the cloud side of the crowd-sourced network: nodes register
// and stream readings of shared reference signals; the collector groups
// them into epochs, runs the consensus checks, and maintains the trust
// ledger. Ingest state is lock-striped (see shard.go): readings of
// different signals from different nodes proceed on different locks, so
// submit throughput scales with cores instead of serializing on one
// mutex.
type Collector struct {
	Ledger   *Ledger
	Detector *Detector
	// EpochWindow groups readings of a signal whose timestamps fall in
	// the same window.
	EpochWindow time.Duration

	// DedupCap bounds the idempotency-key memory across all stripes
	// (oldest keys per stripe are forgotten first). Zero means the
	// default of 65536.
	DedupCap int

	// Tracer records the collector's spans; nil means the process-wide
	// default. Tests that emulate several daemons in one process give
	// each its own tracer so /debug/traces stays per-daemon.
	Tracer *obs.Tracer
	// Obs receives the HTTP middleware's RED metrics; nil means the
	// process-wide default registry.
	Obs *obs.Registry

	// Store, when non-nil, durably records trust mutations: enrollments
	// as they happen, scores at epoch close (off the submit hot path).
	// When the store errors the collector degrades instead of silently
	// dropping evidence: mutating endpoints shed with 503 + Retry-After
	// and failed score batches are retried on the next epoch close.
	Store Store

	// RetryAfter is the backoff hint attached to 503 responses shed
	// while the store is degraded. Zero means 5 s.
	RetryAfter time.Duration

	storeMu       sync.Mutex
	storePending  map[NodeID]Score // score updates awaiting a durable append
	storeDegraded atomic.Bool

	epochs []epochStripe // by signal ID hash
	dedups []dedupStripe // by idempotency key hash
	fresh  []freshStripe // by node ID hash
	mask   uint64        // len(stripes)-1; stripe counts are powers of two

	// metrics is non-nil only after Instrument; see metrics.go.
	metrics *collectorMetrics
}

// NewCollector returns a collector with a fresh ledger and a single
// stripe — semantically the classic single-lock collector, including
// exact global FIFO dedup eviction.
func NewCollector() *Collector { return NewShardedCollector(1) }

// NewShardedCollector returns a collector whose ingest state is split
// across shards lock stripes (rounded up to a power of two). CloseEpochs,
// Fleet and History results are identical at any shard count; only the
// dedup eviction boundary is approximate (per-stripe FIFO rather than
// global FIFO, with DedupCap split evenly across stripes).
func NewShardedCollector(shards int) *Collector {
	n := stripeCount(shards)
	c := &Collector{
		Ledger:      NewLedger(),
		Detector:    NewDetector(),
		EpochWindow: time.Minute,
		epochs:      make([]epochStripe, n),
		dedups:      make([]dedupStripe, n),
		fresh:       make([]freshStripe, n),
		mask:        uint64(n - 1),
	}
	for i := 0; i < n; i++ {
		c.epochs[i].pending = make(map[string]map[time.Time]*Epoch)
		c.epochs[i].history = make(map[string][]Epoch)
		c.epochs[i].corr = make(map[string]*corrState)
		c.dedups[i].seen = make(map[string]struct{})
	}
	c.storePending = make(map[NodeID]Score)
	return c
}

// ErrStoreUnavailable marks a mutation refused because the durable store
// could not persist it. Handlers map it to 503 + Retry-After: the client
// should back off and retry, not treat the mutation as permanently
// rejected.
var ErrStoreUnavailable = errors.New("trust: durable store unavailable")

// StoreDegraded reports whether the last durable append failed. A
// degraded collector sheds mutating API traffic and fails readiness; it
// heals automatically when an append (or the epoch-close probe) succeeds.
func (c *Collector) StoreDegraded() bool { return c.storeDegraded.Load() }

// StoreLag returns how many score updates are waiting for a durable
// append to succeed — nonzero only while the store is erroring.
func (c *Collector) StoreLag() int {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	return len(c.storePending)
}

// registerDurable enrolls a node and, when a store is attached, appends
// the registration before acknowledging. A registration whose append
// failed is rolled back from the ledger: acknowledging an enrollment the
// disk never saw would let a crash silently drop it.
func (c *Collector) registerDurable(n Node) error {
	if err := c.Ledger.Register(n); err != nil {
		return err
	}
	if c.Store == nil {
		return nil
	}
	if err := c.Store.AppendRegister(n); err != nil {
		c.Ledger.unregister(n.ID)
		c.storeDegraded.Store(true)
		c.metrics.recordStoreAppendError()
		return fmt.Errorf("%w: %v", ErrStoreUnavailable, err)
	}
	c.storeDegraded.Store(false)
	return nil
}

// flushStore merges updates with any batch still owed from a failed
// append and tries one durable append. While degraded it probes with
// whatever is pending (possibly nothing) so a healed disk brings the
// collector back without waiting for new evidence.
func (c *Collector) flushStore(at time.Time, updates []ScoreUpdate) {
	if c.Store == nil {
		return
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	for _, u := range updates {
		c.storePending[u.Node] = u.Score
	}
	if len(c.storePending) == 0 && !c.storeDegraded.Load() {
		return
	}
	batch := make([]ScoreUpdate, 0, len(c.storePending))
	for id, s := range c.storePending {
		batch = append(batch, ScoreUpdate{Node: id, Score: s})
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Node < batch[j].Node })
	if err := c.Store.AppendScores(at, batch); err != nil {
		c.storeDegraded.Store(true)
		c.metrics.recordStoreAppendError()
		return
	}
	for id := range c.storePending {
		delete(c.storePending, id)
	}
	c.storeDegraded.Store(false)
}

// tracer resolves the span destination.
func (c *Collector) tracer() *obs.Tracer {
	if c.Tracer != nil {
		return c.Tracer
	}
	return obs.DefaultTracer()
}

// dedupLimit splits DedupCap evenly across the dedup stripes, rounding
// up so the aggregate capacity never falls below DedupCap.
func (c *Collector) dedupLimit() int {
	total := c.DedupCap
	if total <= 0 {
		total = 65536
	}
	return (total + len(c.dedups) - 1) / len(c.dedups)
}

// Submit ingests one reading.
func (c *Collector) Submit(r Reading) error {
	_, err := c.SubmitDedup(r)
	return err
}

// SubmitDedup ingests one reading and reports whether it was dropped as a
// duplicate of an already-accepted idempotency key. Duplicates are not an
// error: from a retrying client's point of view the reading has been
// delivered. It is SubmitBatch with one element; the arrays stay on the
// stack, so the single-reading path allocates nothing of its own.
func (c *Collector) SubmitDedup(r Reading) (duplicate bool, err error) {
	rs := [1]Reading{r}
	var outs [1]SubmitOutcome
	c.SubmitBatch(rs[:], outs[:])
	return outs[0].Duplicate, outs[0].Err
}

// maxAbsPowerDBm bounds a reading's power. Nothing a receiver measures
// is within orders of magnitude of it; the bound exists so that one
// absurd value cannot overflow a node's running correlation sums to
// ±Inf, turn its coefficient into NaN and — NaN compares false with
// everything — exempt the node from the correlation check for good.
const maxAbsPowerDBm = 1000

// validate is the admission check every reading passes, whichever entry
// point it came through. A failure is permanent: retrying the same
// reading cannot succeed.
func (c *Collector) validate(r *Reading) error {
	if _, ok := c.Ledger.Node(r.Node); !ok {
		return fmt.Errorf("trust: node %s not registered", r.Node)
	}
	if r.SignalID == "" {
		return fmt.Errorf("trust: reading needs a signal ID")
	}
	if !(math.Abs(r.PowerDBm) <= maxAbsPowerDBm) { // also NaN
		return fmt.Errorf("trust: power %g dBm is not a measurement (|dBm| ≤ %d)", r.PowerDBm, maxAbsPowerDBm)
	}
	return nil
}

// CloseEpochs finalizes every pending epoch that started before the
// cutoff: runs the upper-bound check, archives the epoch, runs the
// correlation check over the signal's history, and updates the ledger.
// It returns all anomalies found.
//
// Merge determinism: candidate signals are gathered from every stripe,
// then processed in one globally sorted pass (signals ascending, windows
// ascending within a signal) — the exact order the single-lock collector
// used, so anomaly lists and ledger updates are identical at any stripe
// count.
func (c *Collector) CloseEpochs(cutoff time.Time) []Anomaly {
	// Epoch close aggregates readings from many traces, so it roots its
	// own rather than picking one contributor arbitrarily.
	_, span := obs.StartSpan(obs.WithTracer(context.Background(), c.tracer()), "trust.close_epochs")
	defer span.End()
	// Drain-then-close: the same two primitives the replica tier uses,
	// so a single collector and a coordinator merging drains from N
	// replicas run the identical pipeline by construction (see
	// replica.go).
	epochs := c.DrainPending(cutoff)
	all, _ := c.CloseDrained(cutoff, epochs)
	span.SetAttr("epochs", strconv.Itoa(len(epochs)))
	span.SetAttr("anomalies", strconv.Itoa(len(all)))
	return all
}

// NodeActivity is one fleet member's staleness signal: the consensus
// score plus when the collector last saw evidence from the node. A zero
// LastReading means never.
type NodeActivity struct {
	Node        NodeID
	Score       Score
	Registered  time.Time
	LastReading time.Time
}

// Fleet returns every registered node with its activity, sorted by ID —
// the planner input a measurement scheduler polls for.
func (c *Collector) Fleet() []NodeActivity {
	nodes := c.Ledger.Nodes()
	out := make([]NodeActivity, 0, len(nodes))
	for _, n := range nodes {
		last := c.fresh[fnv1a(string(n.ID))&c.mask].lastSeen(n.ID)
		out = append(out, NodeActivity{
			Node:        n.ID,
			Score:       c.Ledger.Trust(n.ID),
			Registered:  n.Registered,
			LastReading: last,
		})
	}
	return out
}

// PendingEpochs returns how many epochs are open and awaiting closure.
// Lock-free: each stripe maintains its open-window count atomically, so
// the metrics scrape (trust_pending_epochs) never touches ingest locks.
func (c *Collector) PendingEpochs() int {
	n := int64(0)
	for i := range c.epochs {
		n += c.epochs[i].open.Load()
	}
	return int(n)
}

// History returns the closed epochs for a signal.
func (c *Collector) History(signal string) []Epoch {
	st := &c.epochs[fnv1a(signal)&c.mask]
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]Epoch(nil), st.history[signal]...)
}

// HTTP API types.

type registerRequest struct {
	ID             string  `json:"id"`
	Operator       string  `json:"operator"`
	Lat            float64 `json:"lat"`
	Lon            float64 `json:"lon"`
	ClaimedOutdoor bool    `json:"claimed_outdoor"`
	Hardware       string  `json:"hardware"`
}

// maxRegisterBody bounds a POST /api/register body. A registration is
// six short fields; the cap is /api/stream/register's.
const maxRegisterBody = 64 << 10

type submitRequest struct {
	Node     string    `json:"node"`
	SignalID string    `json:"signal_id"`
	PowerDBm float64   `json:"power_dbm"`
	At       time.Time `json:"at"`
	Key      string    `json:"key,omitempty"`
	Trace    string    `json:"trace,omitempty"`
}

// reading converts the wire form; the decoder stamps a zero At with now.
func (s submitRequest) reading() Reading {
	return Reading{Node: NodeID(s.Node), SignalID: s.SignalID, PowerDBm: s.PowerDBm, At: s.At, Key: s.Key, Trace: s.Trace}
}

// BatchSummary is the POST /api/readings response to a batch. Rejected
// readings are permanently bad (unknown node, missing signal, power no
// receiver could have measured); retrying them cannot succeed, so the
// client should ack and drop them.
type BatchSummary struct {
	Accepted   int      `json:"accepted"`
	Duplicates int      `json:"duplicates"`
	Rejected   int      `json:"rejected"`
	Errors     []string `json:"errors,omitempty"`
}

// maxSummaryErrors bounds the rejection messages one summary carries.
const maxSummaryErrors = 10

// add folds SubmitBatch outcomes into the summary.
func (s *BatchSummary) add(outs []SubmitOutcome) {
	for i := range outs {
		switch o := &outs[i]; {
		case o.Err != nil:
			s.Rejected++
			if len(s.Errors) < maxSummaryErrors {
				s.Errors = append(s.Errors, o.Err.Error())
			}
		case o.Duplicate:
			s.Duplicates++
		default:
			s.Accepted++
		}
	}
}

// Merge folds another collector's summary of part of the same request
// (a ring member's answer to a forward) into s.
func (s *BatchSummary) Merge(o BatchSummary) {
	s.Accepted += o.Accepted
	s.Duplicates += o.Duplicates
	s.Rejected += o.Rejected
	s.Errors = append(s.Errors, o.Errors[:min(len(o.Errors), maxSummaryErrors-len(s.Errors))]...)
}

// write answers a /api/readings request: 413 or 400 for a body over the
// cap or one that does not parse; for a batch, 202 with the summary,
// which lets a store-and-forward client ack its whole batch; for the
// single-object form a bare 202, or 400 when its reading was rejected.
func (s *BatchSummary) write(w http.ResponseWriter, batch bool, err error) {
	switch {
	case err != nil:
		http.Error(w, err.Error(), decodeStatus(err))
	case batch:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(s)
	case s.Rejected > 0:
		http.Error(w, s.Errors[0], http.StatusBadRequest)
	default:
		w.WriteHeader(http.StatusAccepted)
	}
}

// decodeStatus maps a body decode error to its response code: 413 for
// a body over the cap, 400 for one that does not parse.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

type trustResponse struct {
	Node   string  `json:"node"`
	Score  float64 `json:"score"`
	Rating string  `json:"rating"`
}

// FleetEntry is one element of the GET /api/fleet response: the
// staleness signal a measurement scheduler plans from. A zero
// LastReadingAt means the node has never delivered consensus evidence.
type FleetEntry struct {
	Node          string    `json:"node"`
	Score         float64   `json:"score"`
	Rating        string    `json:"rating"`
	RegisteredAt  time.Time `json:"registered_at"`
	LastReadingAt time.Time `json:"last_reading_at"`
}

// Routing is what a member of a collector ring (internal/replica) adds
// to the collector's API. The collector's code serves every route — wire
// format, status codes, shedding and metrics — and the hooks cover the
// part of the fleet other members hold. The zero Routing routes nothing:
// it is Handler.
type Routing struct {
	// Enrolled is called with each node /api/register enrolled, before
	// the 201 is written.
	Enrolled func(Node)
	// Readings returns the router for one /api/readings request.
	Readings func() ReadingRouter
	// Freshness returns the newest evidence time of nodes whose readings
	// other members took; /api/fleet reports the newer of it and this
	// collector's own.
	Freshness func() map[NodeID]time.Time
}

// ReadingRouter takes the /api/readings elements another collector owns.
type ReadingRouter interface {
	// Claim reports whether the reading belongs elsewhere; a claimed
	// reading is not ingested here. raw is its element exactly as it
	// arrived, valid only during the call.
	Claim(rd Reading, raw []byte) bool
	// Place delivers every claimed reading once the request's own share is
	// ingested, and merges the owners' outcomes into sum. An error fails
	// the request with 503 + Retry-After: evidence that was not placed is
	// never acknowledged.
	Place(sum *BatchSummary) error
}

// ingestChunk bounds how many decoded readings accumulate before a
// SubmitBatch flush: big enough to amortize each stripe lock across
// hundreds of readings, small enough that a 10k-reading body still
// ingests in O(chunk) memory, preserving the streaming-decode bound.
const ingestChunk = 256

// ingestScratch is the pooled per-request state of /api/readings: the
// response summary and the chunk buffers the batched submit path
// flushes through.
type ingestScratch struct {
	resp  BatchSummary
	chunk []Reading
	outs  []SubmitOutcome
}

var ingestPool = sync.Pool{
	New: func() interface{} {
		return &ingestScratch{chunk: make([]Reading, 0, ingestChunk)}
	},
}

// flushChunk submits the accumulated readings through the batched entry
// point and folds the outcomes into the response summary.
func (c *Collector) flushChunk(sc *ingestScratch) {
	if len(sc.chunk) == 0 {
		return
	}
	sc.outs = c.SubmitBatch(sc.chunk, sc.outs)
	sc.resp.add(sc.outs)
	sc.chunk = sc.chunk[:0]
}

// serveReadings ingests the POST /api/readings body. DecodeReadings
// streams it element by element, so a 10k-reading batch is never
// materialized and the body bytes are read exactly once. Decoded
// elements accumulate into ingestChunk-sized groups and ingest through
// SubmitBatch, which takes each stripe lock once per chunk instead of
// once per reading. Each element is individually accepted, deduplicated
// or rejected; a malformed element aborts with 400 mid-stream after the
// decoded prefix is ingested, and the idempotency keys on that prefix
// make the client's retry safe. A non-nil route claims the elements
// other collectors own and places them before the response.
func (c *Collector) serveReadings(w http.ResponseWriter, r *http.Request, now func() time.Time, route ReadingRouter, retryAfter time.Duration) {
	sc := ingestPool.Get().(*ingestScratch)
	defer ingestPool.Put(sc)
	sc.resp = BatchSummary{Errors: sc.resp.Errors[:0]}
	sc.chunk = sc.chunk[:0]
	batch, err := c.DecodeReadings(r.Body, now, func(rd Reading, raw []byte) {
		if route != nil && route.Claim(rd, raw) {
			return
		}
		sc.chunk = append(sc.chunk, rd)
		if len(sc.chunk) >= ingestChunk {
			c.flushChunk(sc)
		}
	})
	c.flushChunk(sc)
	if err == nil && route != nil {
		if err := route.Place(&sc.resp); err != nil {
			obs.SetRetryAfter(w, retryAfter)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	sc.resp.write(w, batch, err)
}

// Handler exposes the collector over HTTP:
//
//	POST /api/register  — enroll a node
//	POST /api/readings  — submit a reading
//	GET  /api/trust?node=ID — query a trust score
//	GET  /api/fleet     — every node's score + staleness (scheduler input)
//
// Every route runs under the RED middleware: incoming traceparent
// headers are continued into server spans and per-route latency lands in
// http_server_request_seconds (the /debug/slo input).
func (c *Collector) Handler(now func() time.Time) http.Handler {
	return c.RoutedHandler(now, Routing{})
}

// RoutedHandler is Handler with a ring member's routing hooks.
func (c *Collector) RoutedHandler(now func() time.Time, rt Routing) http.Handler {
	mw := obs.NewMiddleware("trust", c.Obs, c.Tracer)
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, mw.WrapHandler(route, h))
	}
	retryAfter := c.RetryAfter
	if retryAfter <= 0 {
		retryAfter = 5 * time.Second
	}
	// shed refuses a mutating request while the durable store is erroring:
	// accepting evidence we cannot persist — and acking it to an agent
	// that will then drop it from its spool — is silent data loss. 503 +
	// Retry-After tells the agents' retriers to hold the evidence and
	// back off; it replays from their spools once the store heals.
	shed := func(w http.ResponseWriter) bool {
		if !c.storeDegraded.Load() {
			return false
		}
		c.metrics.recordShed()
		obs.SetRetryAfter(w, retryAfter)
		http.Error(w, "durable store unavailable, retry later", http.StatusServiceUnavailable)
		return true
	}
	handle("/api/register", func(w http.ResponseWriter, r *http.Request) {
		c.metrics.recordRequest("register")
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if shed(w) {
			return
		}
		var req registerRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRegisterBody)).Decode(&req); err != nil {
			http.Error(w, err.Error(), decodeStatus(err))
			return
		}
		node := Node{
			ID: NodeID(req.ID), Operator: req.Operator,
			Lat: req.Lat, Lon: req.Lon,
			ClaimedOutdoor: req.ClaimedOutdoor, Hardware: req.Hardware,
			Registered: now(),
		}
		err := c.registerDurable(node)
		if errors.Is(err, ErrStoreUnavailable) {
			obs.SetRetryAfter(w, retryAfter)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		c.metrics.setNodeScore(node.ID, c.Ledger.Trust(node.ID))
		if rt.Enrolled != nil {
			rt.Enrolled(node)
		}
		w.WriteHeader(http.StatusCreated)
	})
	handle("/api/readings", func(w http.ResponseWriter, r *http.Request) {
		c.metrics.recordRequest("readings")
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if shed(w) {
			return
		}
		var route ReadingRouter
		if rt.Readings != nil {
			route = rt.Readings()
		}
		c.serveReadings(w, r, now, route, retryAfter)
	})
	handle("/api/fleet", func(w http.ResponseWriter, r *http.Request) {
		c.metrics.recordRequest("fleet")
		var elsewhere map[NodeID]time.Time
		if rt.Freshness != nil {
			elsewhere = rt.Freshness()
		}
		fleet := c.Fleet()
		out := make([]FleetEntry, 0, len(fleet))
		for _, n := range fleet {
			last := n.LastReading
			if at := elsewhere[n.Node]; at.After(last) {
				last = at
			}
			out = append(out, FleetEntry{
				Node:          string(n.Node),
				Score:         float64(n.Score),
				Rating:        n.Score.Quantize(),
				RegisteredAt:  n.Registered,
				LastReadingAt: last,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	handle("/api/trust", func(w http.ResponseWriter, r *http.Request) {
		c.metrics.recordRequest("trust")
		id := NodeID(r.URL.Query().Get("node"))
		if _, ok := c.Ledger.Node(id); !ok {
			http.Error(w, "unknown node", http.StatusNotFound)
			return
		}
		s := c.Ledger.Trust(id)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(trustResponse{Node: string(id), Score: float64(s), Rating: s.Quantize()})
	})
	return mux
}
