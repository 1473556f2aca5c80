package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/server"
	"intensional/internal/shipdb"
)

const forwardQuery = `SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
	FROM SUBMARINE, CLASS
	WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`

func shipSystem(t *testing.T) *core.System {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(cat, d)
	if _, err := sys.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// newTestServer stands up an httptest server over the ship test bed with
// rules already induced (version 2).
func newTestServer(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(shipSystem(t), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, data)
		}
	}
	return resp
}

// queryWire mirrors the /query response shape for decoding in tests.
type queryWire struct {
	Version     uint64 `json:"version"`
	Mode        string `json:"mode"`
	RowCount    int    `json:"rowCount"`
	Extensional *struct {
		Columns []struct{ Name, Type string } `json:"columns"`
		Rows    [][]any                       `json:"rows"`
	} `json:"extensional"`
	Intensional []string `json:"intensional"`
	Conjunctive bool     `json:"conjunctive"`
}

func TestQueryCombined(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery, "mode": "forward"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var q queryWire
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.RowCount != 2 || q.Extensional == nil || len(q.Extensional.Rows) != 2 {
		t.Errorf("rowCount=%d extensional=%v", q.RowCount, q.Extensional)
	}
	if !strings.Contains(strings.Join(q.Intensional, "\n"), "SSBN") {
		t.Errorf("intensional = %q", q.Intensional)
	}
	if q.Version != 2 {
		t.Errorf("version = %d, want 2", q.Version)
	}
	if !q.Conjunctive {
		t.Error("conjunctive should be true")
	}
}

func TestQueryExtensionalMode(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery, "mode": "extensional"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var q queryWire
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Extensional == nil || len(q.Intensional) != 0 {
		t.Errorf("extensional mode: ext=%v int=%v", q.Extensional, q.Intensional)
	}
}

func TestQueryIntensionalMode(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery, "mode": "intensional"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var q queryWire
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Extensional != nil || len(q.Intensional) == 0 {
		t.Errorf("intensional mode: ext=%v int=%v", q.Extensional, q.Intensional)
	}
	if q.RowCount != 2 {
		t.Errorf("rowCount should still report the extensional size, got %d", q.RowCount)
	}
}

// errWire decodes the JSON error envelope.
type errWire struct {
	Error string `json:"error"`
}

func TestMalformedSQLIs400(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": "SELECT nope FROM nothing"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e errWire
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("want JSON error body, got %s (%v)", body, err)
	}
}

func TestBadRequestBodies(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	cases := []struct {
		name string
		body string
	}{
		{"truncated json", `{"sql":`},
		{"unknown field", `{"sql":"SELECT 1","bogus":true}`},
		{"missing sql", `{}`},
		{"unknown mode", fmt.Sprintf(`{"sql":%q,"mode":"sideways"}`, forwardQuery)},
		{"second object", fmt.Sprintf(`{"sql":%q} {"sql":"DROP"}`, forwardQuery)},
		{"trailing garbage", fmt.Sprintf(`{"sql":%q}xyz`, forwardQuery)},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		var e errWire
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: want JSON error body, got %s", tc.name, data)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp := getJSON(t, ts.URL+"/query", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

func TestInduceAndRules(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, body := postJSON(t, ts.URL+"/induce", map[string]any{"nc": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("induce status = %d, body %s", resp.StatusCode, body)
	}
	var ind struct {
		Version uint64 `json:"version"`
		Rules   int    `json:"rules"`
	}
	if err := json.Unmarshal(body, &ind); err != nil {
		t.Fatal(err)
	}
	if ind.Version != 3 {
		t.Errorf("post-induce version = %d, want 3", ind.Version)
	}
	if ind.Rules == 0 {
		t.Error("induce returned no rules")
	}

	var rl struct {
		Version uint64 `json:"version"`
		Count   int    `json:"count"`
		Rules   []struct {
			ID      int    `json:"id"`
			Rule    string `json:"rule"`
			Support int    `json:"support"`
		} `json:"rules"`
	}
	if resp := getJSON(t, ts.URL+"/rules", &rl); resp.StatusCode != http.StatusOK {
		t.Fatalf("rules status = %d", resp.StatusCode)
	}
	if rl.Count != ind.Rules || len(rl.Rules) != rl.Count || rl.Version != 3 {
		t.Errorf("rules = %d/%d at version %d, want %d at 3", rl.Count, len(rl.Rules), rl.Version, ind.Rules)
	}
	if rl.Count > 0 && (rl.Rules[0].ID == 0 || rl.Rules[0].Rule == "") {
		t.Errorf("rule 0 = %+v", rl.Rules[0])
	}
}

func TestInduceRejectsNegativeOptions(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	resp, _ := postJSON(t, ts.URL+"/induce", map[string]any{"nc": -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	var h struct {
		OK        bool   `json:"ok"`
		Version   uint64 `json:"version"`
		Relations int    `json:"relations"`
		Rules     int    `json:"rules"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !h.OK || h.Version != 2 || h.Relations == 0 || h.Rules == 0 {
		t.Errorf("healthz = %+v", h)
	}
}

// metricsWire mirrors the /metrics exposition.
type metricsWire struct {
	Endpoints map[string]struct {
		Requests uint64            `json:"requests"`
		Statuses map[string]uint64 `json:"statuses"`
		Latency  struct {
			BoundsMS []float64 `json:"boundsMs"`
			Counts   []uint64  `json:"counts"`
		} `json:"latency"`
	} `json:"endpoints"`
}

func TestMetricsCountersIncrement(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery}); resp.StatusCode != 200 {
			t.Fatalf("query status = %d, body %s", resp.StatusCode, body)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/query", map[string]string{"sql": "SELECT nope FROM nothing"}); resp.StatusCode != 400 {
		t.Fatalf("bad query status = %d", resp.StatusCode)
	}

	var m metricsWire
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	q, ok := m.Endpoints["POST /query"]
	if !ok {
		t.Fatalf("no POST /query endpoint in metrics: %+v", m.Endpoints)
	}
	if q.Requests != 3 || q.Statuses["200"] != 2 || q.Statuses["400"] != 1 {
		t.Errorf("query metrics = %+v", q)
	}
	var histTotal uint64
	for _, c := range q.Latency.Counts {
		histTotal += c
	}
	if histTotal != q.Requests {
		t.Errorf("histogram counts sum to %d, want %d", histTotal, q.Requests)
	}
	if len(q.Latency.Counts) != len(q.Latency.BoundsMS)+1 {
		t.Errorf("histogram has %d counts for %d bounds", len(q.Latency.Counts), len(q.Latency.BoundsMS))
	}
}

func TestDeadlineExceededIs504(t *testing.T) {
	srv := server.New(shipSystem(t), server.Options{QueryTimeout: 30 * time.Millisecond})
	srv.SetSlowHookForTest(func() { time.Sleep(300 * time.Millisecond) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	var e errWire
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Errorf("want deadline error body, got %s", body)
	}

	var m metricsWire
	getJSON(t, ts.URL+"/metrics", &m)
	if got := m.Endpoints["POST /query"].Statuses["504"]; got != 1 {
		t.Errorf("504 count = %d, want 1", got)
	}
}

// TestConcurrentQueryAndInduce hammers /query from several goroutines
// while /induce installs new snapshots — every query must come back 200
// with the right rows, whichever snapshot served it.
func TestConcurrentQueryAndInduce(t *testing.T) {
	_, ts := newTestServer(t, server.Options{})
	client := ts.Client()
	post := func(path, body string) (int, []byte, error) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}

	queryBody, err := json.Marshal(map[string]string{"sql": forwardQuery, "mode": "forward"})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				status, data, err := post("/query", string(queryBody))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if status != http.StatusOK {
					t.Errorf("query status = %d, body %s", status, data)
					return
				}
				var q queryWire
				if err := json.Unmarshal(data, &q); err != nil || q.RowCount != 2 {
					t.Errorf("query result = %s (err %v)", data, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			status, data, err := post("/induce", `{"nc":3}`)
			if err != nil || status != http.StatusOK {
				t.Errorf("induce status = %d err %v body %s", status, err, data)
				return
			}
		}
	}()
	wg.Wait()

	var h struct {
		Version uint64 `json:"version"`
	}
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Version != 6 {
		t.Errorf("final version = %d, want 6", h.Version)
	}
}

func TestAccessLogLines(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, server.Options{AccessLog: &buf})
	if resp, _ := postJSON(t, ts.URL+"/query", map[string]string{"sql": forwardQuery}); resp.StatusCode != 200 {
		t.Fatalf("query failed")
	}
	getJSON(t, ts.URL+"/healthz", nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines: %q", len(lines), lines)
	}
	var rec struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMS  float64 `json:"durMs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec.Method != "POST" || rec.Path != "/query" || rec.Status != 200 {
		t.Errorf("record = %+v", rec)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
