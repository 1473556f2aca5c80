package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"intensional/internal/core"
	"intensional/internal/dict"
	"intensional/internal/induct"
	"intensional/internal/relation"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
)

const example1 = `SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
	FROM SUBMARINE, CLASS
	WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`

func inducedShipServer(t *testing.T) (*core.System, http.Handler) {
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
	return sys, New(sys, Options{}).Handler()
}

// serve posts body to path on h and returns the status and response body.
func serve(h http.Handler, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func queryBody(sql, mode string) string {
	data, err := json.Marshal(queryRequest{SQL: sql, Mode: mode})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// cachedBodyBytes reads the planner section's cachedBodyBytes from
// GET /metrics.
func cachedBodyBytes(t *testing.T, h http.Handler) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m metricsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return m.Planner.CachedBodyBytes
}

// TestServedBodyMatchesEncoding: for every mode, the first (encoded),
// second (stored) and third (served from the store) responses are each
// byte-identical to marshalling the wire DTO of the same response.
func TestServedBodyMatchesEncoding(t *testing.T) {
	sys, h := inducedShipServer(t)
	for _, mode := range []string{"combined", "extensional", "intensional", "forward", "backward"} {
		canon, m, wantExt, wantInt, err := parseMode(mode)
		if err != nil || canon != mode {
			t.Fatalf("parseMode(%q) = %q, %v", mode, canon, err)
		}
		resp, err := sys.Query(example1, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(toQueryJSON(resp, canon, wantExt, wantInt))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			code, got := serve(h, "/query", queryBody(example1, mode))
			if code != http.StatusOK {
				t.Fatalf("%s #%d: status %d, body %s", mode, i, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s #%d: served body differs from its encoding:\n got %s\nwant %s", mode, i, got, want)
			}
		}
	}
}

// TestServedBodyFollowsMutation: a stored body dies with its snapshot,
// so after a write the same statement carries the new version.
func TestServedBodyFollowsMutation(t *testing.T) {
	_, h := inducedShipServer(t)
	version := func() uint64 {
		t.Helper()
		code, body := serve(h, "/query", queryBody(example1, "forward"))
		var out queryResponse
		if err := json.Unmarshal(body, &out); code != http.StatusOK || err != nil {
			t.Fatalf("query: status %d, %v, body %s", code, err, body)
		}
		return out.Version
	}
	before := version()
	if again := version(); again != before {
		t.Fatalf("version moved without a write: %d → %d", before, again)
	}
	code, body := serve(h, "/mutate", `{"sql":"INSERT INTO SUBMARINE VALUES ('SSN994', 'Memotest', '0204')"}`)
	if code != http.StatusOK {
		t.Fatalf("mutate: status %d, body %s", code, body)
	}
	if after := version(); after != before+1 {
		t.Errorf("version after mutate = %d, want %d", after, before+1)
	}
}

// TestModeEchoedCanonically: spellings of one mode echo its canonical
// name and share one memo key, so /metrics' cachedBodyBytes is 0 after
// the first and the body's length from the second on.
func TestModeEchoedCanonically(t *testing.T) {
	_, h := inducedShipServer(t)
	var first []byte
	for i, mode := range []string{"FORWARD", " forward ", "forward"} {
		code, body := serve(h, "/query", queryBody(example1, mode))
		if code != http.StatusOK {
			t.Fatalf("%q: status %d, body %s", mode, code, body)
		}
		var out queryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Mode != "forward" {
			t.Errorf("%q: mode echoed as %q, want \"forward\"", mode, out.Mode)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("%q: body differs from %q's", mode, "FORWARD")
		}
		// One key: the second spelling is that key's second request.
		want := int64(0)
		if i > 0 {
			want = int64(len(first))
		}
		if got := cachedBodyBytes(t, h); got != want {
			t.Errorf("after %q: cachedBodyBytes = %d, want %d", mode, got, want)
		}
	}
}

// TestServedBodyConcurrent: goroutines racing on one statement and mode
// all get the same bytes (run under -race).
func TestServedBodyConcurrent(t *testing.T) {
	_, h := inducedShipServer(t)
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				code, body := serve(h, "/query", queryBody(example1, "combined"))
				if code != http.StatusOK {
					t.Errorf("status %d, body %s", code, body)
					return
				}
				if j > 0 && !bytes.Equal(body, bodies[i]) {
					t.Errorf("goroutine %d: body changed between requests", i)
				}
				bodies[i] = body
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("goroutine %d got a different body", i)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts measure the handler and not the recorder's buffer growth.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestServedHitAllocsIndependentOfRows: serving a stored body costs the
// same allocations for a 1-row answer as for a 1000-row one.
func TestServedHitAllocsIndependentOfRows(t *testing.T) {
	cat := storage.NewCatalog()
	r, err := cat.Create("T", relation.MustSchema(
		relation.Column{Name: "Id", Type: relation.TInt},
		relation.Column{Name: "Name", Type: relation.TString}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.MustInsert(relation.Int(int64(i)), relation.String(fmt.Sprintf("row%04d", i)))
	}
	h := New(core.New(cat, dict.New(cat)), Options{}).Handler()
	allocs := func(sql string, rows int) float64 {
		t.Helper()
		body := queryBody(sql, "extensional")
		for i := 0; i < 2; i++ {
			code, out := serve(h, "/query", body)
			var q queryResponse
			if err := json.Unmarshal(out, &q); code != http.StatusOK || err != nil || q.RowCount != rows {
				t.Fatalf("%s: status %d, %v, rowCount %d, want %d", sql, code, err, q.RowCount, rows)
			}
		}
		return testing.AllocsPerRun(20, func() {
			w := &discardWriter{h: make(http.Header)}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		})
	}
	one := allocs("SELECT Id, Name FROM T WHERE Id = 7", 1)
	many := allocs("SELECT Id, Name FROM T", 1000)
	t.Logf("allocs per served hit: %v for 1 row, %v for 1000 rows", one, many)
	if many > one+5 {
		t.Errorf("allocs per served hit: %v for 1000 rows, %v for 1 row", many, one)
	}
}

// TestSubMillisecondBucket: a 200µs request lands in a bucket bounded
// at or below 0.25 ms.
func TestSubMillisecondBucket(t *testing.T) {
	m := newMetrics()
	m.observe("POST /query", http.StatusOK, 200*time.Microsecond)
	counts := m.snapshot().Endpoints["POST /query"].Latency.Counts
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if i >= len(bucketBoundsMS) || bucketBoundsMS[i] > 0.25 {
			t.Errorf("200µs landed in bucket %d (bounds %v)", i, bucketBoundsMS)
		}
		return
	}
	t.Errorf("no bucket counted the request: %v", counts)
}
