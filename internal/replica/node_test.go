package replica_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"intensional/internal/cluster"
	"intensional/internal/core"
	"intensional/internal/replica"
	"intensional/internal/shipdb"
)

// testNode is one process of a two-node cluster under test: its system,
// its shared Leader tracker, its replication endpoints, and its role
// controller.
type testNode struct {
	sys     *core.System
	tracker *replica.Leader
	srv     *httptest.Server
	node    *replica.Node
}

// newHandoverCluster brings up node "a" leading and node "b" following,
// with b fully caught up.
func newHandoverCluster(t *testing.T, hc *http.Client) (a, b *testNode) {
	t.Helper()
	leaderSys, _ := testLeader(t) // the plain-handler server goes unused; each node mounts its own tracker
	a = &testNode{sys: leaderSys}
	a.tracker = replica.NewLeader(leaderSys, replica.LeaderOptions{})
	a.srv = serveTracker(t, a.tracker)

	f, err := replica.Open(replica.Options{
		Dir:       t.TempDir() + "/b",
		Leader:    a.srv.URL,
		NodeID:    "b",
		PollWait:  500 * time.Millisecond,
		RetryBase: 2 * time.Millisecond,
		RetryMax:  10 * time.Millisecond,
		HTTP:      hc,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.System().Close() })
	b = &testNode{sys: f.System()}
	b.tracker = replica.NewLeader(f.System(), replica.LeaderOptions{})
	b.srv = serveTracker(t, b.tracker)
	f.Start()

	a.node, err = replica.NewNode(leaderSys, a.tracker, nil, replica.NodeOptions{
		ID: "a",
		Follower: replica.Options{
			Dir:       t.TempDir() + "/a-follow",
			Leader:    "placeholder", // overwritten from the configuration on demotion
			PollWait:  500 * time.Millisecond,
			RetryBase: 2 * time.Millisecond,
			RetryMax:  10 * time.Millisecond,
			HTTP:      hc,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.node, err = replica.NewNode(f.System(), b.tracker, f, replica.NodeOptions{ID: "b", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.node.Close)
	t.Cleanup(b.node.Close)

	// b catches up and acknowledges everything a committed.
	cur := leaderSys.WalSeq()
	waitForSeq(t, f, cur)
	waitFor(t, 10*time.Second,
		func() bool { acked, ok := a.tracker.AckedSeq("b"); return ok && acked >= cur },
		func() string { return fmt.Sprintf("b never acknowledged seq %d", cur) })
	return a, b
}

func serveTracker(t *testing.T, l *replica.Leader) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/replica/wal", l.WALHandler())
	mux.Handle("/replica/snapshot", l.SnapshotHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func handoverConfig(a, b *testNode, leaderID string) *cluster.Config {
	roleA, roleB := cluster.RoleFollower, cluster.RoleLeader
	if leaderID == "a" {
		roleA, roleB = cluster.RoleLeader, cluster.RoleFollower
	}
	return &cluster.Config{Nodes: []cluster.Node{
		{ID: "a", Addr: a.srv.URL, Role: roleA},
		{ID: "b", Addr: b.srv.URL, Role: roleB},
	}}
}

func TestLiveLeaderHandover(t *testing.T) {
	a, b := newHandoverCluster(t, nil)
	cfg := handoverConfig(a, b, "b")

	// Demote first: the fence has b's acknowledgements already (its loop
	// has been polling), and promotion's drain step then finds a demoted
	// leader on its first poll.
	if err := a.node.Apply(cfg); err != nil {
		t.Fatalf("demote a: %v", err)
	}
	if a.node.Role() != cluster.RoleFollower || !a.sys.Follower() {
		t.Fatal("a did not become a follower")
	}
	if err := b.node.Apply(cfg); err != nil {
		t.Fatalf("promote b: %v", err)
	}
	if b.node.Role() != cluster.RoleLeader || b.sys.Follower() {
		t.Fatal("b did not become the leader")
	}
	if a.node.LeaderAddr() != b.srv.URL {
		t.Fatalf("a points at %q, want %q", a.node.LeaderAddr(), b.srv.URL)
	}

	// Idempotence: re-applying the satisfied configuration is a no-op.
	if err := a.node.Apply(cfg); err != nil {
		t.Fatalf("re-apply on a: %v", err)
	}
	if err := b.node.Apply(cfg); err != nil {
		t.Fatalf("re-apply on b: %v", err)
	}

	// Writes now land on b and replicate to a — no process restarted.
	res, err := b.sys.ApplyBatch(context.Background(),
		[]string{`INSERT INTO SUBMARINE VALUES ('SSN950', 'Handoverfish', '0204')`})
	if err != nil {
		t.Fatalf("write on the new leader: %v", err)
	}
	waitFor(t, 10*time.Second,
		func() bool { return a.sys.WalSeq() >= res.Seq },
		func() string {
			return fmt.Sprintf("old leader never replayed seq %d (at %d, status %+v)",
				res.Seq, a.sys.WalSeq(), a.node.FollowerStatus())
		})
	assertSameAnswers(t, b.sys, a.sys, subQuery)

	// And the old leader now refuses direct writes.
	if _, err := a.sys.ApplyBatch(context.Background(), []string{contradictorStmt}); err == nil {
		t.Fatal("demoted leader accepted a write")
	}
}

func TestDemotionFenceBlocksUnreplicatedRecords(t *testing.T) {
	pt := &partitionTransport{}
	a, b := newHandoverCluster(t, &http.Client{Transport: pt})

	// Partition b, then commit on a: records b has not acknowledged.
	pt.down.Store(true)
	if _, err := a.sys.ApplyBatch(context.Background(),
		[]string{`INSERT INTO SUBMARINE VALUES ('SSN951', 'Fencefish', '0204')`}); err != nil {
		t.Fatal(err)
	}
	cfg := handoverConfig(a, b, "b")
	err := a.node.Apply(cfg)
	if err == nil || !strings.Contains(err.Error(), "unreplicated") {
		t.Fatalf("demotion under unreplicated records: %v, want the fence", err)
	}
	if a.node.Role() != cluster.RoleLeader || a.sys.Follower() {
		t.Fatal("a rejected fence left the node in a broken role")
	}

	// Heal; once b acknowledges the tail, the same configuration applies.
	pt.down.Store(false)
	cur := a.sys.WalSeq()
	waitFor(t, 10*time.Second,
		func() bool { acked, ok := a.tracker.AckedSeq("b"); return ok && acked >= cur },
		func() string { return fmt.Sprintf("b never acknowledged seq %d after healing", cur) })
	if err := a.node.Apply(cfg); err != nil {
		t.Fatalf("demote a after catch-up: %v", err)
	}
	if err := b.node.Apply(cfg); err != nil {
		t.Fatalf("promote b: %v", err)
	}
}

// seqZeroLeader opens a durable ship leader that has committed nothing:
// its whole state is the fixture it was opened from, at WAL seq 0.
func seqZeroLeader(t *testing.T) *core.System {
	t.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/leader"
	if err := core.New(cat, d).Save(dir); err != nil {
		t.Fatal(err)
	}
	s, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.WalSeq() != 0 {
		t.Fatalf("fixture leader at seq %d, want 0", s.WalSeq())
	}
	return s
}

// deadAddr returns the URL of a server that has already shut down.
func deadAddr(t *testing.T) string {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	return srv.URL
}

// TestDemotionFenceRefusesUnseenSuccessor: a leader with nothing
// committed still holds a base state (its fixture) that reaches a
// successor only through a bootstrap, so it must not step down for a
// successor that has never streamed from it.
func TestDemotionFenceRefusesUnseenSuccessor(t *testing.T) {
	sys := seqZeroLeader(t)
	node, err := replica.NewNode(sys, replica.NewLeader(sys, replica.LeaderOptions{}), nil, replica.NodeOptions{
		ID:       "a",
		Follower: replica.Options{Dir: t.TempDir() + "/a-follow", Leader: "placeholder"},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	cfg := &cluster.Config{Nodes: []cluster.Node{
		{ID: "a", Addr: "http://127.0.0.1:1", Role: cluster.RoleFollower},
		{ID: "b", Addr: deadAddr(t), Role: cluster.RoleLeader},
	}}
	if err := node.Apply(cfg); err == nil || !strings.Contains(err.Error(), "never streamed") {
		t.Fatalf("demotion at seq 0 for an unseen successor: %v, want the fence", err)
	}
	if node.Role() != cluster.RoleLeader || sys.Follower() {
		t.Fatal("a refused demotion changed the node's role")
	}
}

// TestPromoteRefusesWithoutBaseState: a follower that has neither
// installed a snapshot nor replayed a local WAL holds an empty catalog,
// and promoting it would serve that emptiness as the cluster's state.
func TestPromoteRefusesWithoutBaseState(t *testing.T) {
	f, err := replica.Open(replica.Options{
		Dir:       t.TempDir() + "/b",
		Leader:    deadAddr(t),
		NodeID:    "b",
		RetryBase: 2 * time.Millisecond,
		RetryMax:  10 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.System().Close() })
	f.Start()
	node, err := replica.NewNode(f.System(), replica.NewLeader(f.System(), replica.LeaderOptions{}), f,
		replica.NodeOptions{ID: "b", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	cfg := &cluster.Config{Nodes: []cluster.Node{
		{ID: "a", Addr: f.LeaderAddr(), Role: cluster.RoleFollower},
		{ID: "b", Addr: "http://127.0.0.1:1", Role: cluster.RoleLeader},
	}}
	if err := node.Apply(cfg); err == nil || !strings.Contains(err.Error(), "no base state") {
		t.Fatalf("promotion before the first bootstrap: %v, want a refusal", err)
	}
	if node.Role() != cluster.RoleFollower || !f.System().Follower() {
		t.Fatal("a refused promotion changed the node's role")
	}
}

func TestNodeRejectsForeignConfiguration(t *testing.T) {
	a, b := newHandoverCluster(t, nil)
	cfg := &cluster.Config{Nodes: []cluster.Node{
		{ID: "x", Addr: "http://h:1", Role: cluster.RoleLeader},
	}}
	if err := a.node.Apply(cfg); err == nil || !strings.Contains(err.Error(), "not in the configuration") {
		t.Fatalf("Apply without self: %v", err)
	}
	if err := b.node.Apply(&cluster.Config{}); err == nil {
		t.Fatal("Apply accepted an invalid configuration")
	}
	if a.node.Role() != cluster.RoleLeader || b.node.Role() != cluster.RoleFollower {
		t.Fatal("rejected configurations changed roles")
	}
}

// TestWatchAppliesConfigurationSetBeforeSubscription: the store only
// delivers changes made after Watch subscribes, so a handover installed
// just before the watchers start must still be applied — read from the
// store, not waited for.
func TestWatchAppliesConfigurationSetBeforeSubscription(t *testing.T) {
	a, b := newHandoverCluster(t, nil)
	store := cluster.NewMemStore(handoverConfig(a, b, "a"))
	store.Set(handoverConfig(a, b, "b"))
	stop := make(chan struct{})
	defer close(stop)
	go a.node.Watch(stop, store)
	go b.node.Watch(stop, store)
	waitFor(t, 20*time.Second,
		func() bool { return a.node.Role() == cluster.RoleFollower && b.node.Role() == cluster.RoleLeader },
		func() string {
			return fmt.Sprintf("handover set before the watchers started never applied (a=%s b=%s)",
				a.node.Role(), b.node.Role())
		})
}

func TestWatchDrivenHandover(t *testing.T) {
	a, b := newHandoverCluster(t, nil)

	store := cluster.NewMemStore(handoverConfig(a, b, "a"))
	stop := make(chan struct{})
	defer close(stop)
	go a.node.Watch(stop, store)
	go b.node.Watch(stop, store)

	// Flip the configuration and let the two watchers coordinate the
	// whole handover themselves: a's fence holds until b's drain polls
	// acknowledge the tail, b's promotion waits until a has demoted.
	// Set runs inside the wait so a watcher that registered after the
	// first Set still hears about the change (latest-wins delivery makes
	// the repetition free).
	waitFor(t, 20*time.Second,
		func() bool {
			store.Set(handoverConfig(a, b, "b"))
			return a.node.Role() == cluster.RoleFollower && b.node.Role() == cluster.RoleLeader
		},
		func() string {
			return fmt.Sprintf("handover never completed (a=%s b=%s, a status %+v)",
				a.node.Role(), b.node.Role(), a.node.FollowerStatus())
		})

	// The handed-over cluster works: writes land on b, replicate to a.
	res, err := b.sys.ApplyBatch(context.Background(),
		[]string{`INSERT INTO SUBMARINE VALUES ('SSN952', 'Watchfish', '0204')`})
	if err != nil {
		t.Fatalf("write on the new leader: %v", err)
	}
	waitFor(t, 10*time.Second,
		func() bool { return a.sys.WalSeq() >= res.Seq },
		func() string {
			return fmt.Sprintf("a never replayed seq %d (status %+v)", res.Seq, a.node.FollowerStatus())
		})
	assertSameAnswers(t, b.sys, a.sys, subQuery)
}
