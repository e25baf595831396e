package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sensorcal/internal/obs"
	"sensorcal/internal/resilience"
	"sensorcal/internal/trust"
)

// The scheduler's wire API, served by cmd/schedd:
//
//	POST /api/lease    — {"node","max"} → {"leases":[{task,token,deadline}]}
//	POST /api/complete — {"task_id","token"} → {"status":"completed"|"duplicate"}
//	GET  /api/stats    — queue depth summary
//
// Completion maps the queue's exactly-once semantics onto HTTP statuses:
// duplicates are 200 (the worker's task is done either way), stale
// tokens are 409, unknown tasks are 404. 4xx responses are permanent to
// the client's retrier — retrying a lost lease cannot win it back.

type leaseRequest struct {
	Node string `json:"node"`
	Max  int    `json:"max"`
}

type leaseResponse struct {
	Leases []Lease `json:"leases"`
}

type completeRequest struct {
	TaskID string `json:"task_id"`
	Token  string `json:"token"`
}

type completeResponse struct {
	Status string `json:"status"`
}

// Server mounts a Queue on the wire API.
type Server struct {
	Q *Queue
	// Log receives request-level warnings; nil silences them.
	Log *obs.Logger
	// Tracer records the server spans; nil means the process-wide
	// default.
	Tracer *obs.Tracer
	// Obs receives the RED middleware's metrics; nil means the
	// process-wide default registry.
	Obs *obs.Registry
}

// maxRequestBody caps a lease or completion request body.
const maxRequestBody = 1 << 20

// decodeBody decodes r's JSON body into v, or answers 413 for a body over
// maxRequestBody and 400 for any other decode error and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

// Handler returns the /api/* mux. Every route runs under the RED
// middleware: an agent's traceparent is continued into a server span, so
// the lease that scheduled a measurement shows up in the same trace as
// the measurement itself.
func (s *Server) Handler() http.Handler {
	mw := obs.NewMiddleware("sched", s.Obs, s.Tracer)
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, mw.WrapHandler(route, h))
	}
	handle("/api/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req leaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Node == "" {
			http.Error(w, "node is required", http.StatusBadRequest)
			return
		}
		leases := s.Q.Lease(trust.NodeID(req.Node), req.Max)
		if span := obs.SpanFromContext(r.Context()); span != nil {
			span.SetAttr("node", req.Node)
			span.SetAttr("granted", fmt.Sprintf("%d", len(leases)))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(leaseResponse{Leases: leases})
	})
	handle("/api/complete", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req completeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		status, err := s.Q.Complete(req.TaskID, req.Token)
		var nf *NotFoundError
		var cf *ConflictError
		switch {
		case errors.As(err, &nf):
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		case errors.As(err, &cf):
			http.Error(w, err.Error(), http.StatusConflict)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := completeResponse{Status: "completed"}
		if status == Duplicate {
			resp.Status = "duplicate"
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	handle("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Q.Stats())
	})
	return mux
}

// ClientConfig assembles a Client.
type ClientConfig struct {
	// BaseURL of the scheduler, e.g. "http://host:8027".
	BaseURL string
	// HTTP is the underlying client; nil means a 10 s-timeout default.
	// Tests inject a chaos transport here.
	HTTP *http.Client
	// Retrier wraps every call; nil means a conventional default
	// (5 attempts, 100 ms base, 5 s cap).
	Retrier *resilience.Retrier
	// Breaker guards the scheduler edge; nil means a conventional
	// default (5 consecutive failures open the circuit for 15 s).
	Breaker *resilience.Breaker
	// Logger for warning-level noise; nil silences it.
	Logger *obs.Logger
}

// Client is the agent-side path to a remote scheduler. Lease and
// Complete run through a retrier and a circuit breaker; the queue's
// idempotent completion makes retrying Complete safe — a retry that
// lands after a response was lost is acknowledged as a duplicate.
type Client struct {
	base    string
	hc      *http.Client
	retrier *resilience.Retrier
	breaker *resilience.Breaker
	log     *obs.Logger
}

// NewClient validates the config and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("sched: client needs a scheduler base URL")
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
			Name:             "scheduler",
			FailureThreshold: 5,
			OpenFor:          15 * time.Second,
		})
	}
	return &Client{base: cfg.BaseURL, hc: hc, retrier: r, breaker: b, log: cfg.Logger}, nil
}

// post sends one JSON POST, classifying 4xx (except 429) permanent.
func (c *Client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("sched: POST %s: %w", path, err)
	}
	return resp, nil
}

// statusError summarizes a non-2xx response and marks unretryable
// statuses permanent.
func statusError(op string, resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	err := fmt.Errorf("sched: %s: scheduler returned %s: %s", op, resp.Status, bytes.TrimSpace(snippet))
	if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
		return resilience.Permanent(err)
	}
	return err
}

// Lease polls the scheduler for up to max tasks pinned to node.
func (c *Client) Lease(ctx context.Context, node trust.NodeID, max int) (leases []Lease, err error) {
	body, err := json.Marshal(leaseRequest{Node: string(node), Max: max})
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "sched.lease")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	span.SetAttr("node", string(node))
	if err := c.breaker.AllowCtx(ctx); err != nil {
		return nil, err
	}
	var out []Lease
	err = c.retrier.Do(ctx, "lease", func(ctx context.Context) error {
		resp, err := c.post(ctx, "/api/lease", body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return statusError("lease", resp)
		}
		var got leaseResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&got); err != nil {
			resp.Body.Close()
			return fmt.Errorf("sched: lease: decoding response: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = got.Leases
		return nil
	})
	c.breaker.RecordCtx(ctx, err)
	return out, err
}

// Complete reports a finished task. Duplicate acknowledgements are
// success; a 409 (lease superseded) surfaces as an error so the agent
// can count the wasted window.
func (c *Client) Complete(ctx context.Context, taskID, token string) (err error) {
	body, err := json.Marshal(completeRequest{TaskID: taskID, Token: token})
	if err != nil {
		return err
	}
	ctx, span := obs.StartSpan(ctx, "sched.complete")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	span.SetAttr("task", taskID)
	if err := c.breaker.AllowCtx(ctx); err != nil {
		return err
	}
	err = c.retrier.Do(ctx, "complete", func(ctx context.Context) error {
		resp, err := c.post(ctx, "/api/complete", body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return statusError("complete", resp)
		}
		var got completeResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&got); err != nil {
			resp.Body.Close()
			return fmt.Errorf("sched: complete: decoding response: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got.Status == "duplicate" && c.log != nil {
			c.log.Debugf("task %s was already complete (retried completion deduplicated)", taskID)
		}
		return nil
	})
	c.breaker.RecordCtx(ctx, err)
	return err
}

// LocalSource adapts an in-process Queue to the agent's TaskSource
// contract, for single-binary deployments and tests.
type LocalSource struct{ Q *Queue }

// Lease implements the task source.
func (l LocalSource) Lease(_ context.Context, node trust.NodeID, max int) ([]Lease, error) {
	return l.Q.Lease(node, max), nil
}

// Complete implements the task source.
func (l LocalSource) Complete(_ context.Context, taskID, token string) error {
	_, err := l.Q.Complete(taskID, token)
	return err
}
