package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"intensional/internal/core"
	"intensional/internal/server"
)

// contradictor definitely contradicts the induced "Displacement in SSBN
// range implies Type = SSBN" rule: an SSN with 16600 tons.
const contradictor = `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`

// wire mirrors of the new response shapes.
type mutateWire struct {
	Version   uint64 `json:"version"`
	Mutations []struct {
		Kind     string `json:"kind"`
		Table    string `json:"table"`
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
	} `json:"mutations"`
	Stale     int    `json:"stale"`
	Refinable int    `json:"refinable"`
	WalBytes  int64  `json:"walBytes"`
	Warning   string `json:"warning"`
}

type rulesWire struct {
	Version   uint64 `json:"version"`
	Count     int    `json:"count"`
	Serving   int    `json:"serving"`
	Stale     int    `json:"stale"`
	Refinable int    `json:"refinable"`
	Rules     []struct {
		ID              int    `json:"id"`
		Rule            string `json:"rule"`
		Status          string `json:"status"`
		Stale           bool   `json:"stale"`
		Counterexamples int    `json:"counterexamples"`
		Definite        bool   `json:"definite"`
		Example         string `json:"example"`
	} `json:"rules"`
}

type maintainWire struct {
	Version uint64   `json:"version"`
	Schemes []string `json:"schemes"`
	Dropped int      `json:"dropped"`
	Added   int      `json:"added"`
}

type sysMetricsWire struct {
	Endpoints map[string]struct {
		Requests uint64 `json:"requests"`
	} `json:"endpoints"`
	System struct {
		Version             uint64         `json:"version"`
		Rules               int            `json:"rules"`
		Serving             int            `json:"serving"`
		Stale               int            `json:"stale"`
		StaleByRelationship map[string]int `json:"staleByRelationship"`
		Durable             bool           `json:"durable"`
		WalBytes            int64          `json:"walBytes"`
	} `json:"system"`
}

func TestMutateInsert(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/mutate", map[string]string{
		"sql": `INSERT INTO SUBMARINE VALUES ('SSN993', 'Wiretest', '0204')`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var m mutateWire
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 { // 1 fresh, 2 induced, 3 mutated
		t.Errorf("version = %d, want 3", m.Version)
	}
	if len(m.Mutations) != 1 || m.Mutations[0].Kind != "insert" ||
		m.Mutations[0].Table != "SUBMARINE" || m.Mutations[0].Inserted != 1 {
		t.Errorf("mutations = %+v", m.Mutations)
	}
}

func TestMutateBatchAtomic(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/mutate", map[string]any{
		"stmts": []string{
			`INSERT INTO SONAR VALUES ('TST-10', 'Active')`,
			`INSERT INTO NO_SUCH_TABLE VALUES (1)`,
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	// Nothing from the failed batch is visible.
	q, qbody := postJSON(t, ts.URL+"/query", map[string]string{
		"sql": `SELECT SONAR.SONARTYPE FROM SONAR WHERE SONAR.SONAR = "TST-10"`,
	})
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", q.StatusCode, qbody)
	}
	var qw queryWire
	if err := json.Unmarshal(qbody, &qw); err != nil {
		t.Fatal(err)
	}
	if qw.RowCount != 0 {
		t.Errorf("failed batch leaked a row: %d", qw.RowCount)
	}
}

func TestMutateRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	for name, body := range map[string]any{
		"empty":       map[string]any{},
		"both":        map[string]any{"sql": "DELETE FROM SONAR", "stmts": []string{"DELETE FROM SONAR"}},
		"select":      map[string]string{"sql": "SELECT SONAR.SONAR FROM SONAR"},
		"parse error": map[string]string{"sql": "INSERT INTO"},
	} {
		resp, b := postJSON(t, ts.URL+"/mutate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", name, resp.StatusCode, b)
		}
	}
}

// TestMutateRejectsTrailingBody: a body holding a second statement
// object after the first is refused whole — nothing is applied.
func TestMutateRejectsTrailingBody(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	var before, after sysMetricsWire
	getJSON(t, ts.URL+"/metrics", &before)
	body := `{"sql":"INSERT INTO SUBMARINE VALUES ('SSN995', 'First', '0204')"}` +
		` {"sql":"DELETE FROM SONAR"}`
	resp, err := http.Post(ts.URL+"/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/metrics", &after)
	if after.System.Version != before.System.Version {
		t.Errorf("version moved %d → %d on a refused body", before.System.Version, after.System.Version)
	}
}

// TestMutateStaleRuleLifecycle walks the documented operator session:
// a contradicting insert marks the rule stale, /rules shows it with its
// counterexample, no query mode serves it, and /maintain re-inducts it
// back to an all-valid base.
func TestMutateStaleRuleLifecycle(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})

	// Find the target rule while everything is valid.
	var before rulesWire
	getJSON(t, ts.URL+"/rules", &before)
	if before.Stale != 0 || before.Serving != before.Count {
		t.Fatalf("fresh base not all-valid: %+v", before)
	}
	targetID := 0
	for _, r := range before.Rules {
		if strings.Contains(r.Rule, "CLASS.Displacement") && strings.Contains(r.Rule, "CLASS.Type = SSBN") {
			targetID = r.ID
		}
	}
	if targetID == 0 {
		t.Fatal("no displacement→SSBN rule induced")
	}

	resp, body := postJSON(t, ts.URL+"/mutate", map[string]string{"sql": contradictor})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status = %d, body %s", resp.StatusCode, body)
	}
	var m mutateWire
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Stale == 0 {
		t.Fatal("contradicting insert reported no stale rules")
	}

	var after rulesWire
	getJSON(t, ts.URL+"/rules", &after)
	if after.Serving != after.Count-after.Stale {
		t.Errorf("serving = %d, count %d, stale %d", after.Serving, after.Count, after.Stale)
	}
	found := false
	for _, r := range after.Rules {
		if r.ID != targetID {
			continue
		}
		found = true
		if !r.Stale || r.Status != "stale" || r.Counterexamples != 1 || !r.Definite {
			t.Errorf("target rule record = %+v", r)
		}
		if !strings.Contains(r.Example, "Contradictor") {
			t.Errorf("example = %q", r.Example)
		}
	}
	if !found {
		t.Fatal("stale rule missing from /rules")
	}

	// No mode derives through the stale rule.
	for _, mode := range []string{"forward", "backward", "combined", "intensional"} {
		q, qbody := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery, "mode": mode})
		if q.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status %d, body %s", mode, q.StatusCode, qbody)
		}
		var qw struct {
			Facts []struct {
				Via []int `json:"via"`
			} `json:"facts"`
			Descriptions []struct {
				Via int `json:"via"`
			} `json:"descriptions"`
		}
		if err := json.Unmarshal(qbody, &qw); err != nil {
			t.Fatal(err)
		}
		for _, f := range qw.Facts {
			for _, id := range f.Via {
				if id == targetID {
					t.Errorf("mode %s served stale R%d", mode, targetID)
				}
			}
		}
		for _, d := range qw.Descriptions {
			if d.Via == targetID {
				t.Errorf("mode %s described via stale R%d", mode, targetID)
			}
		}
	}

	// The metrics system section sees the same staleness.
	var mw sysMetricsWire
	getJSON(t, ts.URL+"/metrics", &mw)
	if mw.System.Stale != after.Stale || mw.System.Version != after.Version {
		t.Errorf("metrics system = %+v, rules said stale=%d version=%d", mw.System, after.Stale, after.Version)
	}
	if len(mw.System.StaleByRelationship) == 0 {
		t.Error("staleByRelationship empty while rules are stale")
	} else if mw.System.StaleByRelationship["CLASS"] == 0 {
		t.Errorf("no CLASS staleness in %v", mw.System.StaleByRelationship)
	}

	// Maintain re-inducts the affected schemes; the base is all-valid.
	r2, b2 := postJSON(t, ts.URL+"/maintain", map[string]int{"nc": 3})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("maintain status = %d, body %s", r2.StatusCode, b2)
	}
	var mres maintainWire
	if err := json.Unmarshal(b2, &mres); err != nil {
		t.Fatal(err)
	}
	if len(mres.Schemes) == 0 || mres.Dropped == 0 || mres.Version != after.Version+1 {
		t.Errorf("maintain = %+v", mres)
	}
	var final rulesWire
	getJSON(t, ts.URL+"/rules", &final)
	if final.Stale != 0 || final.Refinable != 0 || final.Serving != final.Count {
		t.Errorf("base not all-valid after maintain: %+v", final)
	}
}

func TestMutateDurableReportsWal(t *testing.T) {
	sys := shipSystem(t)
	dir := t.TempDir() + "/db"
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	dsys, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dsys.Close() })
	srv := server.New(dsys, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/mutate", map[string]string{
		"sql": `INSERT INTO SONAR VALUES ('TST-11', 'Towed')`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var m mutateWire
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.WalBytes == 0 {
		t.Error("durable mutate reported an empty WAL")
	}
	var mw sysMetricsWire
	getJSON(t, ts.URL+"/metrics", &mw)
	if !mw.System.Durable || mw.System.WalBytes == 0 {
		t.Errorf("metrics system = %+v", mw.System)
	}
	var h struct {
		Durable bool `json:"durable"`
	}
	getJSON(t, ts.URL+"/healthz", &h)
	if !h.Durable {
		t.Error("healthz hides durability")
	}
}

// TestConcurrentMutateAndQuery hammers /mutate and /query together; the
// server must never 5xx and every response must decode.
func TestConcurrentMutateAndQuery(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, body := postJSON(t, ts.URL+"/mutate", map[string]string{
					"sql": fmt.Sprintf(`INSERT INTO SUBMARINE VALUES ('W%d%02d', 'Load', '0204')`, w, i),
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("mutate: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query: %d %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	var h struct {
		Version uint64 `json:"version"`
		OK      bool   `json:"ok"`
	}
	getJSON(t, ts.URL+"/healthz", &h)
	if !h.OK || h.Version != 22 { // 2 after induce + 20 mutations
		t.Errorf("healthz after hammer = %+v", h)
	}
}
