package server_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"intensional/internal/server"
)

// explainWire mirrors the /explain response shape for decoding.
type explainWire struct {
	Version uint64 `json:"version"`
	Plan    struct {
		SQL      string `json:"sql"`
		EstRows  int    `json:"estRows"`
		Rewrites []struct {
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		} `json:"rewrites"`
		Root struct {
			Kind  string `json:"kind"`
			Label string `json:"label"`
		} `json:"root"`
		Text string `json:"text"`
	} `json:"plan"`
}

// plannerWire mirrors the /metrics planner section.
type plannerWire struct {
	Planner struct {
		FullScans        int64   `json:"fullScans"`
		IndexScans       int64   `json:"indexScans"`
		PlanCacheHits    int64   `json:"planCacheHits"`
		PlanCacheMisses  int64   `json:"planCacheMisses"`
		PlanCacheHitRate float64 `json:"planCacheHitRate"`
		CachedPlans      int     `json:"cachedPlans"`
	} `json:"planner"`
}

// TestExplainEndpoint: POST /explain returns the typed plan with the
// rule base's semantic rewrites, without executing the query.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})

	resp, body := postJSON(t, ts.URL+"/explain", map[string]string{"sql": forwardQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out explainWire
	decode(t, body, &out)
	if out.Plan.Root.Kind == "" {
		t.Fatalf("no plan root in %s", body)
	}
	if out.Plan.Text == "" {
		t.Error("no text rendering")
	}
	// The rule base implies CLASS.Type = SSBN from Displacement > 8000.
	found := false
	for _, rw := range out.Plan.Rewrites {
		if rw.Kind == "implied" {
			found = true
		}
	}
	if !found {
		t.Errorf("no implied rewrite in %s", body)
	}
}

// TestExplainEndpointErrors: malformed bodies and unknown tables are
// client errors.
func TestExplainEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	for _, tc := range []struct {
		body any
		want int
	}{
		{map[string]string{}, http.StatusBadRequest},
		{map[string]string{"sql": "   "}, http.StatusBadRequest},
		{map[string]string{"sql": "SELECT x FROM NOPE"}, http.StatusBadRequest},
		{map[string]string{"sql": "not sql"}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts.URL+"/explain", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("body %v: status = %d, want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
	}
}

// TestPlannerMetrics: /metrics grows a planner section whose cache
// counters move when statements repeat.
func TestPlannerMetrics(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})

	// Same statement twice: /explain prepares it, /query reuses the plan.
	if resp, body := postJSON(t, ts.URL+"/explain", map[string]string{"sql": forwardQuery}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	var met plannerWire
	getJSON(t, ts.URL+"/metrics", &met)
	p := met.Planner
	if p.PlanCacheMisses < 1 {
		t.Errorf("planCacheMisses = %d, want >= 1", p.PlanCacheMisses)
	}
	if p.PlanCacheHits < 1 {
		t.Errorf("planCacheHits = %d, want >= 1 (query should reuse explain's plan)", p.PlanCacheHits)
	}
	if p.PlanCacheHitRate <= 0 || p.PlanCacheHitRate >= 1 {
		t.Errorf("planCacheHitRate = %v, want in (0,1)", p.PlanCacheHitRate)
	}
	if p.CachedPlans < 1 {
		t.Errorf("cachedPlans = %d, want >= 1", p.CachedPlans)
	}
	// The ship relations are tiny (below the index threshold), so the
	// join ran as full scans; what matters here is that executed paths
	// are visible.
	if p.FullScans+p.IndexScans < 1 {
		t.Errorf("no scans counted: %+v", p)
	}
	// No access path degrades from an index to a scan, so the section
	// carries no fallback counter.
	var raw struct {
		Planner map[string]any `json:"planner"`
	}
	getJSON(t, ts.URL+"/metrics", &raw)
	if v, ok := raw.Planner["plannerIndexFallbacks"]; ok {
		t.Errorf("planner metrics carry plannerIndexFallbacks = %v", v)
	}
}

// decode unmarshals a response body or fails the test.
func decode(t *testing.T, body []byte, dst any) {
	t.Helper()
	if err := json.Unmarshal(body, dst); err != nil {
		t.Fatalf("decode: %v (body %s)", err, body)
	}
}
