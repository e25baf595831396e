package trust

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sensorcal/internal/clock"
	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
)

// Client is the resilient node-side path to a remote collector: the
// store-and-forward half of the paper's §5 crowd-sourced network.
// Submit never touches the network — it appends the reading to a durable
// spool and returns once the WAL is fsynced — and a drain loop ships
// spooled readings in batches whenever the collector is reachable,
// through a retrier (backoff + jitter) and a circuit breaker (fail fast
// while the collector is known-down). Every reading carries a
// deterministic idempotency key, so a retried batch or a replay after a
// daemon restart cannot double-count consensus evidence.
type Client struct {
	base    string
	hc      *http.Client
	spool   *resilience.Spool
	retrier *resilience.Retrier
	breaker *resilience.Breaker
	clk     clock.Clock
	batch   int
	log     *obs.Logger
}

// ClientConfig assembles a Client.
type ClientConfig struct {
	// BaseURL of the collector, e.g. "http://host:8025".
	BaseURL string
	// HTTP is the underlying client; nil means a 10 s-timeout default.
	// Tests inject a chaos transport here.
	HTTP *http.Client
	// Spool is the durable store-and-forward WAL (required).
	Spool *resilience.Spool
	// Retrier wraps every network call; nil means a conventional default
	// (5 attempts, 100 ms base, 5 s cap).
	Retrier *resilience.Retrier
	// Breaker guards the drain path; nil means a conventional default
	// (5 consecutive failures open the circuit for 15 s).
	Breaker *resilience.Breaker
	// BatchSize bounds readings per drain POST. Zero means 64.
	BatchSize int
	// Clock paces the drain loop; nil means the wall clock.
	Clock clock.Clock
	// Logger for drain-path warnings; nil silences them.
	Logger *obs.Logger
}

// NewClient validates the config and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("trust: client needs a collector base URL")
	}
	if cfg.Spool == nil {
		return nil, fmt.Errorf("trust: client needs a spool")
	}
	hc := cfg.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	r := cfg.Retrier
	if r == nil {
		r = resilience.NewRetrier(resilience.Policy{
			MaxAttempts: 5,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    5 * time.Second,
		})
	}
	b := cfg.Breaker
	if b == nil {
		b = resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "collector",
			FailureThreshold: 5,
			OpenFor:          15 * time.Second,
		})
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 64
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	return &Client{
		base:    cfg.BaseURL,
		hc:      hc,
		spool:   cfg.Spool,
		retrier: r,
		breaker: b,
		clk:     clk,
		batch:   batch,
		log:     cfg.Logger,
	}, nil
}

// ReadingKey derives the deterministic idempotency key for a reading:
// identical readings (same node, signal, timestamp) produced by a
// measurement retry or a spool replay collapse to one consensus entry.
func ReadingKey(r Reading) string {
	return string(r.Node) + "|" + r.SignalID + "|" + strconv.FormatInt(r.At.UTC().UnixNano(), 36)
}

// post sends one JSON POST and classifies the response. 4xx responses
// (except 429) are permanent: retrying an unparseable or conflicting
// request reproduces the failure.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("trust: POST %s: %w", path, err)
	}
	return resp, nil
}

// drainBody consumes and closes a response body so the underlying
// connection returns to the pool.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// errorFromResponse summarizes a non-2xx response, including a body
// snippet, and marks unretryable statuses permanent.
func errorFromResponse(op string, resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	err := fmt.Errorf("trust: %s: collector returned %s: %s", op, resp.Status, bytes.TrimSpace(snippet))
	if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
		return resilience.Permanent(err)
	}
	return err
}

// Register enrolls the node with the collector, retrying transient
// failures. A Conflict response means the node is already in the ledger
// (a daemon restart) and is success.
func (c *Client) Register(ctx context.Context, node NodeID, operator, hardware string) error {
	body, err := json.Marshal(registerRequest{ID: string(node), Operator: operator, Hardware: hardware})
	if err != nil {
		return err
	}
	ctx, span := obs.StartSpan(ctx, "trust.register")
	defer span.End()
	span.SetAttr("node", string(node))
	return c.retrier.Do(ctx, "register", func(ctx context.Context) error {
		resp, err := c.post(ctx, "/api/register", body)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict {
			drainBody(resp)
			return nil
		}
		return errorFromResponse("register", resp)
	})
}

// Submit implements agent.Collector: the reading is durably spooled under
// its idempotency key and shipped by the drain loop. It fails only if
// the local WAL cannot be written.
func (c *Client) Submit(r Reading) error {
	if r.Key == "" {
		r.Key = ReadingKey(r)
	}
	return c.spool.Append(r.Key, submitRequest{
		Node: string(r.Node), SignalID: r.SignalID,
		PowerDBm: r.PowerDBm, At: r.At, Key: r.Key, Trace: r.Trace,
	})
}

// SpoolDepth returns how many readings await delivery.
func (c *Client) SpoolDepth() int { return c.spool.Len() }

// DrainOnce ships at most one batch of spooled readings. It returns the
// number of readings acked (delivered, deduplicated, or permanently
// rejected) and whether more remain. A zero count with nil error means
// the spool was empty.
func (c *Client) DrainOnce(ctx context.Context) (acked int, more bool, err error) {
	batch := c.spool.Peek(c.batch)
	if len(batch) == 0 {
		return 0, false, nil
	}
	// The drain gets its own span (propagated via the POST's traceparent)
	// rather than adopting one reading's trace: a batch mixes readings
	// from many measurement traces, each of which stays linked through
	// the per-reading Trace field instead.
	ctx, span := obs.StartSpan(ctx, "trust.drain")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	span.SetAttr("batch", strconv.Itoa(len(batch)))
	if err := c.breaker.AllowCtx(ctx); err != nil {
		return 0, true, err
	}
	payload := make([]json.RawMessage, len(batch))
	keys := make([]string, len(batch))
	for i, rec := range batch {
		payload[i] = rec.Payload
		keys[i] = rec.Key
	}
	body, err := json.Marshal(payload)
	if err != nil {
		// Local fault: the collector was never contacted, so release the
		// probe without judging the dependency's health either way.
		c.breaker.Cancel()
		return 0, true, resilience.Permanent(err)
	}
	var summary BatchSummary
	err = c.retrier.Do(ctx, "drain", func(ctx context.Context) error {
		resp, err := c.post(ctx, "/api/readings", body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusAccepted {
			return errorFromResponse("drain", resp)
		}
		var got BatchSummary
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&got); err != nil {
			resp.Body.Close()
			return fmt.Errorf("trust: drain: decoding batch response: %w", err)
		}
		drainBody(resp)
		summary = got
		return nil
	})
	c.breaker.RecordCtx(ctx, err)
	if err != nil {
		return 0, true, err
	}
	if summary.Rejected > 0 && c.log != nil {
		c.log.Warnf("collector rejected %d readings: %v", summary.Rejected, summary.Errors)
	}
	// Ack the whole batch: accepted and duplicate readings are delivered,
	// rejected ones are permanently bad and retrying them cannot help.
	if err := c.spool.Ack(keys...); err != nil {
		return 0, true, err
	}
	return len(keys), c.spool.Len() > 0, nil
}

// Drain ships batches until the spool is empty or ctx is done.
func (c *Client) Drain(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, more, err := c.DrainOnce(ctx)
		if err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
}

// Run drains the spool every interval until ctx is done — the background
// companion to an agent submitting via Submit. Errors are expected (that
// is the point of the spool) and logged at debug; the readings stay
// spooled for the next tick.
func (c *Client) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.clk.After(interval):
		}
		for {
			n, more, err := c.DrainOnce(ctx)
			if err != nil {
				if c.log != nil {
					c.log.Debugf("drain: %v (spool depth %d)", err, c.spool.Len())
				}
				break
			}
			if n == 0 || !more {
				break
			}
		}
	}
}
