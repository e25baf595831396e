package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health is the daemon liveness/readiness surface behind /healthz and
// /readyz. Liveness is trivial — the process answered, it is alive.
// Readiness aggregates named probes: boolean flags a daemon flips as it
// finishes booting ("ledger"), plus callback checks evaluated on every
// request ("wal" — is the store healthy right now?). A daemon is ready
// only when every probe passes; orchestration (and the process tests)
// gate traffic on /readyz instead of sleeping and hoping.
//
// All methods are safe for concurrent use and tolerate a nil receiver
// (nil Health is always ready), so daemons without boot dependencies can
// pass nil to AdminMux.
type Health struct {
	mu     sync.RWMutex
	flags  map[string]bool
	checks map[string]func() bool
}

// NewHealth returns an empty Health: ready until probes are added.
func NewHealth() *Health {
	return &Health{flags: make(map[string]bool), checks: make(map[string]func() bool)}
}

// SetReady flips the named boolean probe. Setting a probe false takes
// the daemon out of rotation until it is set true again.
func (h *Health) SetReady(name string, ok bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.flags[name] = ok
	h.mu.Unlock()
}

// AddCheck registers a callback probe evaluated on every readiness
// request; fn must be safe for concurrent use.
func (h *Health) AddCheck(name string, fn func() bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.checks[name] = fn
	h.mu.Unlock()
}

// Ready reports whether every probe passes, and the sorted names of the
// failing ones.
func (h *Health) Ready() (bool, []string) {
	if h == nil {
		return true, nil
	}
	h.mu.RLock()
	var failing []string
	for name, ok := range h.flags {
		if !ok {
			failing = append(failing, name)
		}
	}
	checks := make(map[string]func() bool, len(h.checks))
	for name, fn := range h.checks {
		checks[name] = fn
	}
	h.mu.RUnlock()
	// Callbacks run outside the lock: a probe is allowed to take its own
	// locks (the collector's store health) without ordering against ours.
	for name, fn := range checks {
		if !fn() {
			failing = append(failing, name)
		}
	}
	sort.Strings(failing)
	return len(failing) == 0, failing
}

// LiveHandler serves /healthz: 200 while the process can answer at all.
func (h *Health) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadyHandler serves /readyz: 200 with {"ready":true} when every probe
// passes, 503 naming the failing probes otherwise.
func (h *Health) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ready, failing := h.Ready()
		w.Header().Set("Content-Type", "application/json")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(struct {
			Ready   bool     `json:"ready"`
			Failing []string `json:"failing,omitempty"`
		}{Ready: ready, Failing: failing})
	})
}
