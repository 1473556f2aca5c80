package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// tally counts what the oracle checked and what it rejected, over the
// whole run.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// fail records one violation: a transport error, a non-200, an answer
// the model contradicts, or an unsound intensional answer. The first
// few are printed; all are counted.
func (t *tally) fail(format string, args ...any) {
	if t.failed.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
	}
}

// shipped is one acknowledged write waiting to be seen on the follower.
type shipped struct {
	seq   uint64
	acked time.Time
}

// client is one closed-loop caller: one goroutine, one keep-alive
// connection per node, the next request only after the last reply.
type client struct {
	bed   *bed
	tally *tally
	hc    *http.Client
	body  bytes.Buffer // the last response, reused
	rng   *rand.Rand   // picks the 1-in-20 fully checked answers
	// version is the newest snapshot version each node has shown this
	// client; an older one afterwards is a violation.
	version [2]uint64
	// shipped, when non-nil, receives every acknowledged write.
	shipped chan<- shipped

	// answered, when non-nil, holds the statements this client has had
	// answered since its last write: what the response caches hold. Only
	// a client that is the bed's sole caller can keep it.
	answered map[string]bool

	// Samples of the current phase; the two counters are their lengths,
	// readable while the client runs.
	queries, mutations atomic.Int64
	queryMS, mutateMS  []float64
	rowsWritten        int
	rowsRead           int
	checkpoints        int
	respBytes          int64
}

// answerKey identifies a response-cache entry: node, mode, text.
func answerKey(o *op) string { return fmt.Sprintf("%d %s %s", o.node, o.mode, o.sql) }

func newClient(b *bed, t *tally, seed int64) *client {
	return &client{
		bed: b, tally: t,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		rng: rand.New(rand.NewSource(seed)),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reset drops the samples, keeping connections and version floors.
func (c *client) reset() {
	c.queryMS, c.mutateMS = nil, nil
	c.queries.Store(0)
	c.mutations.Store(0)
	c.rowsWritten, c.rowsRead, c.checkpoints, c.respBytes = 0, 0, 0, 0
}

type queryRequest struct {
	SQL   string `json:"sql"`
	Mode  string `json:"mode"`
	Token string `json:"token,omitempty"`
}

type mutateRequest struct {
	Stmts []string `json:"stmts"`
}

type mutateResponse struct {
	Version      uint64 `json:"version"`
	WalSeq       uint64 `json:"walSeq"`
	Checkpointed bool   `json:"checkpointed"`
	Mutations    []struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
	} `json:"mutations"`
}

// post sends one JSON request and reads the whole reply into c.body.
func (c *client) post(url string, req any) (int, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// do issues one request, times it from send to the last body byte, and
// checks the answer. It reports whether the answer passed.
func (c *client) do(o *op) bool {
	c.tally.attempted.Add(1)
	if o.isMutation() {
		return c.mutate(o)
	}
	return c.query(o)
}

func (c *client) query(o *op) bool {
	m := c.bed.m
	n := c.bed.node(o.node)
	// Counters before token: the token then covers every insert the
	// floor counts (the writer publishes in the opposite order).
	send := m.observe(o.reserved)
	req := queryRequest{SQL: o.sql, Mode: o.mode}
	if o.useToken {
		req.Token = c.bed.token()
	}
	start := time.Now()
	status, err := c.post(n.url+"/query", req)
	took := time.Since(start)
	recv := m.observe(o.reserved)
	if err != nil || status != http.StatusOK {
		c.tally.fail("%s: status %d, err %v: %.200s", o.shape, status, err, c.body.Bytes())
		return false
	}
	c.queryMS = append(c.queryMS, float64(took)/float64(time.Millisecond))
	c.queries.Add(1)
	c.respBytes += int64(c.body.Len())

	version, rows, err := queryHead(c.body.Bytes())
	if err != nil {
		c.tally.fail("%s: %v", o.shape, err)
		return false
	}
	c.rowsRead += rows
	if c.answered != nil {
		c.answered[answerKey(o)] = true
	}
	ok := true
	if version < c.version[o.node] {
		c.tally.fail("%s: version went back from %d to %d", o.shape, c.version[o.node], version)
		ok = false
	}
	c.version[o.node] = version
	if lo, hi := bounds(o.base, send, recv); rows < lo || rows > hi {
		c.tally.fail("%s: %d rows, model says %d..%d: %s", o.shape, rows, lo, hi, o.sql)
		ok = false
	}
	if c.rng.Intn(20) == 0 {
		if err := checkSound(c.body.Bytes(), rows); err != nil {
			c.tally.fail("%s: %v: %s", o.shape, err, o.sql)
			ok = false
		}
	}
	return ok
}

func (c *client) mutate(o *op) bool {
	m := c.bed.m
	m.begin(o)
	start := time.Now()
	status, err := c.post(c.bed.leader.url+"/mutate", mutateRequest{Stmts: o.stmts})
	took := time.Since(start)
	acked := time.Now()
	if err != nil || status != http.StatusOK {
		c.tally.fail("%s: status %d, err %v: %.200s", o.shape, status, err, c.body.Bytes())
		return false
	}
	c.mutateMS = append(c.mutateMS, float64(took)/float64(time.Millisecond))
	c.mutations.Add(1)
	c.respBytes += int64(c.body.Len())
	var resp mutateResponse
	if err := json.Unmarshal(c.body.Bytes(), &resp); err != nil {
		c.tally.fail("%s: %v", o.shape, err)
		return false
	}
	ok := true
	if resp.Version < c.version[onLeader] {
		c.tally.fail("%s: version went back from %d to %d", o.shape, c.version[onLeader], resp.Version)
		ok = false
	}
	c.version[onLeader] = resp.Version
	// Every statement touches exactly one row: an insert adds one, a
	// delete removes one, an update does both.
	var ins, del int
	for _, mu := range resp.Mutations {
		ins += mu.Inserted
		del += mu.Deleted
	}
	wantIns, wantDel := len(o.ins), len(o.del)
	if o.shape == "m_update" {
		wantIns, wantDel = 1, 1
	}
	if len(resp.Mutations) != len(o.stmts) || ins != wantIns || del != wantDel || resp.WalSeq == 0 {
		c.tally.fail("%s: acknowledged +%d -%d rows at w%d, want +%d -%d: %.200s", o.shape, ins, del, resp.WalSeq, wantIns, wantDel, c.body.Bytes())
		ok = false
	}
	// Token before counters; see query.
	c.bed.publish(resp.WalSeq)
	m.ack(o)
	clear(c.answered)
	c.rowsWritten += len(o.stmts)
	if resp.Checkpointed {
		c.checkpoints++
	}
	if c.shipped != nil {
		c.shipped <- shipped{seq: resp.WalSeq, acked: acked}
	}
	return ok
}

// queryHead reads version and rowCount off the front of a /query
// response without decoding the rows behind them: the check every
// answer gets must not cost the client what the encode cost the server.
func queryHead(body []byte) (version uint64, rows int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, 0, fmt.Errorf("response is not an object: %.80s", body)
	}
	found := 0
	for found < 2 {
		key, err := dec.Token()
		if err != nil {
			return 0, 0, fmt.Errorf("response head: %w", err)
		}
		val, err := dec.Token()
		if err != nil {
			return 0, 0, fmt.Errorf("response head: %w", err)
		}
		switch key {
		case "version":
			f, _ := val.(float64)
			version = uint64(f)
			found++
		case "rowCount":
			f, _ := val.(float64)
			rows = int(f)
			found++
		case "mode":
		default:
			return 0, 0, fmt.Errorf("response head has %v before version and rowCount", key)
		}
	}
	return version, rows, nil
}

type fullResponse struct {
	RowCount    int `json:"rowCount"`
	Extensional *struct {
		Columns []struct {
			Name string `json:"name"`
		} `json:"columns"`
		Rows [][]any `json:"rows"`
	} `json:"extensional"`
	Facts []struct {
		Attr     string `json:"attr"`
		Interval string `json:"interval"`
		Derived  bool   `json:"derived"`
	} `json:"facts"`
}

// checkSound decodes a whole answer and checks the paper's guarantee on
// it: a forward-inferred fact characterises a set containing the
// extensional answer, so every returned row's Type must lie inside
// every derived CLASS.Type interval.
func checkSound(body []byte, rows int) error {
	var resp fullResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Extensional == nil {
		return nil
	}
	if len(resp.Extensional.Rows) != rows {
		return fmt.Errorf("rowCount says %d, body carries %d rows", rows, len(resp.Extensional.Rows))
	}
	col := -1
	for i, c := range resp.Extensional.Columns {
		if c.Name == "Type" {
			col = i
		}
	}
	if col < 0 {
		return nil
	}
	for _, f := range resp.Facts {
		if !f.Derived || f.Attr != "CLASS.Type" {
			continue
		}
		inside, err := stringInterval(f.Interval)
		if err != nil {
			return err
		}
		for _, row := range resp.Extensional.Rows {
			if v, _ := row[col].(string); !inside(v) {
				return fmt.Errorf("unsound: derived %s in %s, but a returned row has Type %q", f.Attr, f.Interval, v)
			}
		}
	}
	return nil
}

// stringInterval parses rules.Interval's rendering over strings —
// "[CG..CGN]", "(-inf..SSN)" — into a membership test.
func stringInterval(s string) (func(string) bool, error) {
	lo, hi, ok := strings.Cut(s, "..")
	if !ok || len(lo) < 2 || len(hi) < 2 {
		return nil, fmt.Errorf("cannot read interval %q", s)
	}
	loOpen, hiOpen := lo[0] == '(', hi[len(hi)-1] == ')'
	lo, hi = lo[1:], hi[:len(hi)-1]
	return func(v string) bool {
		if lo != "-inf" && (v < lo || (loOpen && v == lo)) {
			return false
		}
		if hi != "+inf" && (v > hi || (hiOpen && v == hi)) {
			return false
		}
		return true
	}, nil
}
