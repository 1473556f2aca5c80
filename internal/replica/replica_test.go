package replica_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"intensional/internal/answer"
	"intensional/internal/cluster"
	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/replica"
	"intensional/internal/shipdb"
)

// testLeader builds a durable leader over the ship database (rules
// induced) and serves the replication endpoints from it.
func testLeader(t *testing.T) (*core.System, *httptest.Server) {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(cat, d)
	dir := t.TempDir() + "/leader"
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	leader, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	if _, err := leader.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/replica/wal", replica.WALHandler(leader))
	mux.Handle("/replica/snapshot", replica.SnapshotHandler(leader))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return leader, srv
}

// waitFor polls cond until it holds, failing the test with detail()
// after the deadline. The shared condition wait: every "eventually"
// assertion in this file goes through here, so a healthy run can only
// be slowed by timing noise, never failed by it.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, detail func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held within %s: %s", timeout, detail())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForSeq waits until the follower's status reports seq applied.
func waitForSeq(t *testing.T, f *replica.Follower, seq uint64) cluster.FollowerStatus {
	t.Helper()
	waitFor(t, 10*time.Second,
		func() bool { return f.Status().AppliedSeq >= seq },
		func() string { return fmt.Sprintf("follower never reached seq %d (status %+v)", seq, f.Status()) })
	return f.Status()
}

func openFollower(t *testing.T, dir, leaderURL string, hc *http.Client) *replica.Follower {
	t.Helper()
	f, err := replica.Open(replica.Options{
		Dir:       dir,
		Leader:    leaderURL,
		PollWait:  time.Second,
		RetryBase: 2 * time.Millisecond,
		RetryMax:  20 * time.Millisecond,
		HTTP:      hc,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func assertSameAnswers(t *testing.T, leader, follower *core.System, sql string) {
	t.Helper()
	lr, err := leader.Query(sql, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := follower.Query(sql, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Version != fr.Version {
		t.Errorf("versions diverge: leader %d, follower %d", lr.Version, fr.Version)
	}
	if lr.Extensional.String() != fr.Extensional.String() {
		t.Errorf("extensional answers diverge:\nleader:\n%s\nfollower:\n%s", lr.Extensional, fr.Extensional)
	}
	if lr.Intensional.Text() != fr.Intensional.Text() {
		t.Errorf("intensional answers diverge:\n%q\nvs\n%q", lr.Intensional.Text(), fr.Intensional.Text())
	}
}

const subQuery = `SELECT SUBMARINE.Id, SUBMARINE.Name FROM SUBMARINE`

func TestFollowerBootstrapsAndStreams(t *testing.T) {
	leader, srv := testLeader(t)
	f := openFollower(t, t.TempDir()+"/f1", srv.URL, nil)
	defer f.Close()
	f.Start()

	waitForSeq(t, f, leader.WalSeq())
	assertSameAnswers(t, leader, f.System(), subQuery)
	st := f.Status()
	if st.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", st.Bootstraps)
	}
	if st.State != cluster.StateReady {
		t.Errorf("state = %q, want ready", st.State)
	}

	// A write streams over without another bootstrap.
	res, err := leader.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN910', 'Pollfish', '0204')`)
	if err != nil {
		t.Fatal(err)
	}
	st = waitForSeq(t, f, res.Seq)
	if st.Bootstraps != 1 {
		t.Errorf("streaming caused a re-bootstrap: %d", st.Bootstraps)
	}
	assertSameAnswers(t, leader, f.System(), subQuery)

	// Follower write fencing holds at the core layer.
	if _, err := f.System().Apply(context.Background(), contradictorStmt); !errors.Is(err, core.ErrNotLeader) {
		t.Errorf("follower Apply: %v, want ErrNotLeader", err)
	}
}

const contradictorStmt = `INSERT INTO CLASS VALUES ('9901', 'Contradictor', 'SSN', 16600)`

func TestFollowerKillRestartResumes(t *testing.T) {
	leader, srv := testLeader(t)
	dir := t.TempDir() + "/f2"
	f := openFollower(t, dir, srv.URL, nil)
	f.Start()
	waitForSeq(t, f, leader.WalSeq())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes land while the follower is down.
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		res, err := leader.Apply(context.Background(),
			fmt.Sprintf(`INSERT INTO SUBMARINE VALUES ('SSN92%d', 'Downfish %d', '0204')`, i, i))
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = res.Seq
	}

	// Restart from the same directory: local state resumes, only the
	// delta streams, no re-bootstrap.
	f2 := openFollower(t, dir, srv.URL, nil)
	defer f2.Close()
	if f2.System().WalSeq() == 0 {
		t.Fatal("restarted follower lost its local WAL position")
	}
	f2.Start()
	st := waitForSeq(t, f2, lastSeq)
	if st.Bootstraps != 0 {
		t.Errorf("restart re-bootstrapped (%d); the local WAL should have been enough", st.Bootstraps)
	}
	assertSameAnswers(t, leader, f2.System(), subQuery)
}

func TestFollowerRebootstrapsPastRetention(t *testing.T) {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	s := core.New(cat, d)
	dir := t.TempDir() + "/leader"
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	leader, err := core.OpenDurable(dir, core.DurableOptions{ReplicationRetain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	mux := http.NewServeMux()
	mux.Handle("/replica/wal", replica.WALHandler(leader))
	mux.Handle("/replica/snapshot", replica.SnapshotHandler(leader))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fdir := t.TempDir() + "/f3"
	f := openFollower(t, fdir, srv.URL, nil)
	f.Start()
	waitFor(t, 10*time.Second,
		func() bool { return f.Status().Bootstraps > 0 && f.Status().State == cluster.StateReady },
		func() string {
			return fmt.Sprintf("follower never finished its initial bootstrap (status %+v)", f.Status())
		})
	f.Stop()

	// Push the leader far past the 2-record retention window.
	var lastSeq uint64
	for i := 0; i < 6; i++ {
		res, err := leader.Apply(context.Background(),
			fmt.Sprintf(`INSERT INTO SUBMARINE VALUES ('SSN93%d', 'Gapfish %d', '0204')`, i, i))
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = res.Seq
	}

	f.Start()
	defer f.Close()
	st := waitForSeq(t, f, lastSeq)
	if st.Bootstraps < 2 {
		t.Errorf("bootstraps = %d, want a re-bootstrap after falling behind retention", st.Bootstraps)
	}
	assertSameAnswers(t, leader, f.System(), subQuery)
}

// partitionTransport fails every request while partitioned.
type partitionTransport struct {
	down atomic.Bool
}

func (p *partitionTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if p.down.Load() {
		return nil, fmt.Errorf("partition: network unreachable")
	}
	return http.DefaultTransport.RoundTrip(r)
}

func TestFollowerRidesOutPartition(t *testing.T) {
	leader, srv := testLeader(t)
	pt := &partitionTransport{}
	f := openFollower(t, t.TempDir()+"/f4", srv.URL, &http.Client{Transport: pt})
	defer f.Close()
	f.Start()
	waitForSeq(t, f, leader.WalSeq())

	pt.down.Store(true)
	res, err := leader.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN940', 'Partitionfish', '0204')`)
	if err != nil {
		t.Fatal(err)
	}
	// The follower notices the partition — after DisconnectAfter
	// consecutive failures, not on the first dropped poll — but keeps
	// serving throughout.
	waitFor(t, 5*time.Second,
		func() bool { return f.Status().State == cluster.StateDisconnected },
		func() string { return fmt.Sprintf("follower never reported disconnected (status %+v)", f.Status()) })
	if _, err := f.System().Query(subQuery, answer.ForwardOnly); err != nil {
		t.Fatalf("partitioned follower stopped serving: %v", err)
	}

	// Healing the partition converges without a restart. Wait for the
	// ready state, not just the sequence: a poll in flight before the
	// partition engaged may already have delivered the record.
	pt.down.Store(false)
	waitFor(t, 10*time.Second,
		func() bool {
			st := f.Status()
			return st.State == cluster.StateReady && st.AppliedSeq >= res.Seq
		},
		func() string { return fmt.Sprintf("follower never recovered (status %+v)", f.Status()) })
	assertSameAnswers(t, leader, f.System(), subQuery)
}

func TestStatusLagReporting(t *testing.T) {
	st := cluster.FollowerStatus{LeaderSeq: 12, AppliedSeq: 10}
	if st.Lag() != 2 {
		t.Fatalf("lag = %d", st.Lag())
	}
}

func TestClientErrorMapping(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "too far behind", http.StatusGone)
	}))
	defer srv.Close()
	c := &replica.Client{Base: srv.URL}
	if _, err := c.Poll(context.Background(), 0, 0, 0); !errors.Is(err, core.ErrSnapshotNeeded) {
		t.Errorf("410 poll: %v, want ErrSnapshotNeeded", err)
	}

	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv2.Close()
	c2 := &replica.Client{Base: srv2.URL}
	if _, err := c2.Manifest(context.Background()); err == nil {
		t.Error("500 manifest must error")
	}

	// A chunk request whose archive the leader no longer caches maps to
	// ErrSnapshotSuperseded — the refetch-the-manifest signal.
	if _, err := c.Chunk(context.Background(), "deadbeef", 0, 1024); !errors.Is(err, replica.ErrSnapshotSuperseded) {
		t.Errorf("410 chunk: %v, want ErrSnapshotSuperseded", err)
	}
}

func TestWALHandlerRefusesNonLeader(t *testing.T) {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	nondurable := core.New(cat, d)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/replica/wal", nil)
	replica.WALHandler(nondurable).ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("non-durable WAL poll: %d, want 503", rec.Code)
	}
}
