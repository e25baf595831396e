package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sensorcal/internal/trust"
)

// NodeStateOf converts a collector's /api/fleet entry into planner
// input. The collector does not know report generation times, so
// LastReport stays zero (never) until a richer signal exists; for
// prioritization that errs toward scheduling, which is the safe
// direction.
func NodeStateOf(e trust.FleetEntry, site string, duty time.Duration) NodeState {
	return NodeState{
		Node:        trust.NodeID(e.Node),
		Site:        site,
		Trust:       trust.Score(e.Score),
		LastReading: e.LastReadingAt,
		DutyBudget:  duty,
	}
}

// FetchFleet queries a spectrumd collector for the registered fleet and
// each node's staleness signal.
func FetchFleet(ctx context.Context, hc *http.Client, baseURL string) ([]trust.FleetEntry, error) {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/api/fleet", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("sched: fleet query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("sched: fleet query: collector returned %s: %s", resp.Status, snippet)
	}
	var entries []trust.FleetEntry
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("sched: fleet query: decoding response: %w", err)
	}
	return entries, nil
}
