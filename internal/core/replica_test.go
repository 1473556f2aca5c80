package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/dict"
	"intensional/internal/induct"
	"intensional/internal/storage"
)

// blankFollower opens an empty durable system in follower mode — the
// state of a brand-new replica before its first bootstrap.
func blankFollower(t *testing.T, o core.DurableOptions) *core.System {
	t.Helper()
	cat := storage.NewCatalog()
	s := core.New(cat, dict.New(cat))
	dir := t.TempDir() + "/replica"
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	o.Follower = true
	f, err := core.OpenDurable(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// syncFollower streams the leader's retained records into the follower
// until their WAL positions meet.
func syncFollower(t *testing.T, leader, f *core.System) {
	t.Helper()
	for {
		recs, cur, err := leader.ReplicationBatch(context.Background(), f.WalSeq(), 0, 100)
		if err != nil {
			t.Fatalf("ReplicationBatch(after=%d): %v", f.WalSeq(), err)
		}
		for _, r := range recs {
			if err := f.ReplayRecord(r.Seq, r.Payload); err != nil {
				t.Fatalf("ReplayRecord(%d): %v", r.Seq, err)
			}
		}
		if f.WalSeq() >= cur {
			return
		}
	}
}

// assertConverged checks the convergence contract: same WAL position,
// same snapshot version, and byte-identical answers for a query.
func assertConverged(t *testing.T, leader, f *core.System, sql string) {
	t.Helper()
	if ls, fs := leader.WalSeq(), f.WalSeq(); ls != fs {
		t.Fatalf("wal seq: leader %d, follower %d", ls, fs)
	}
	if lv, fv := leader.Version(), f.Version(); lv != fv {
		t.Fatalf("version: leader %d, follower %d", lv, fv)
	}
	lr, err := leader.Query(sql, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := f.Query(sql, answer.ForwardOnly)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Extensional.String() != fr.Extensional.String() {
		t.Errorf("extensional answers diverge:\nleader:\n%s\nfollower:\n%s", lr.Extensional, fr.Extensional)
	}
	if lr.Intensional.Text() != fr.Intensional.Text() {
		t.Errorf("intensional answers diverge:\nleader: %q\nfollower: %q", lr.Intensional.Text(), fr.Intensional.Text())
	}
}

const subQuery = `SELECT SUBMARINE.Id, SUBMARINE.Name FROM SUBMARINE`

func TestApplyReportsWalSeq(t *testing.T) {
	s, _ := durableShip(t, false, core.DurableOptions{})
	res, err := s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN901', 'Seqfish', '0204')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || s.WalSeq() != 1 {
		t.Errorf("seq = %d, WalSeq = %d, want 1, 1", res.Seq, s.WalSeq())
	}
	res, err = s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN902', 'Seqfish II', '0204')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 2 {
		t.Errorf("second seq = %d, want 2", res.Seq)
	}
}

func TestReplicationBatchStreamsCommits(t *testing.T) {
	s, _ := durableShip(t, false, core.DurableOptions{})
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(context.Background(), `DELETE FROM SONAR WHERE SONAR.Sonar = 'none'`); err != nil {
			t.Fatal(err)
		}
	}
	recs, cur, err := s.ReplicationBatch(context.Background(), 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 3 || len(recs) != 3 {
		t.Fatalf("got %d records, cur %d; want 3, 3", len(recs), cur)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
	// Caught up: nothing to return without waiting.
	recs, cur, err = s.ReplicationBatch(context.Background(), 3, 0, 10)
	if err != nil || len(recs) != 0 || cur != 3 {
		t.Fatalf("caught-up poll: %d records, cur %d, err %v", len(recs), cur, err)
	}
	// max truncates the batch.
	recs, _, err = s.ReplicationBatch(context.Background(), 0, 0, 2)
	if err != nil || len(recs) != 2 {
		t.Fatalf("max-bounded poll: %d records, err %v", len(recs), err)
	}
}

func TestReplicationBatchLongPoll(t *testing.T) {
	s, _ := durableShip(t, false, core.DurableOptions{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		s.Apply(context.Background(), `DELETE FROM SONAR WHERE SONAR.Sonar = 'none'`)
	}()
	recs, _, err := s.ReplicationBatch(context.Background(), 0, 5*time.Second, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("long poll returned %+v", recs)
	}
	// A quiet window returns an empty batch, not an error.
	recs, cur, err := s.ReplicationBatch(context.Background(), 1, 20*time.Millisecond, 10)
	if err != nil || len(recs) != 0 || cur != 1 {
		t.Fatalf("quiet poll: %d records, cur %d, err %v", len(recs), cur, err)
	}
}

func TestReplicationRetentionFloor(t *testing.T) {
	s, _ := durableShip(t, false, core.DurableOptions{ReplicationRetain: 2})
	for i := 0; i < 5; i++ {
		if _, err := s.Apply(context.Background(), `DELETE FROM SONAR WHERE SONAR.Sonar = 'none'`); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.ReplicationBatch(context.Background(), 0, 0, 10); !errors.Is(err, core.ErrSnapshotNeeded) {
		t.Fatalf("below-floor poll: %v, want ErrSnapshotNeeded", err)
	}
	recs, _, err := s.ReplicationBatch(context.Background(), 3, 0, 10)
	if err != nil || len(recs) != 2 {
		t.Fatalf("in-window poll: %d records, err %v", len(recs), err)
	}
}

// TestDemoteRefusesPastFencedSeq: a write that commits between the
// cluster layer's fence check and Demote would be acknowledged by a node
// that then steps down, so Demote holds the commit point to the
// sequence the fence checked.
func TestDemoteRefusesPastFencedSeq(t *testing.T) {
	s, _ := durableShip(t, false, core.DurableOptions{})
	fenced := s.WalSeq()
	if _, err := s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN904', 'Racefish', '0204')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Demote(fenced); err == nil {
		t.Fatalf("Demote(%d) succeeded at seq %d", fenced, s.WalSeq())
	}
	if s.Follower() {
		t.Fatal("a refused Demote left the node a follower")
	}
	if err := s.Demote(s.WalSeq()); err != nil {
		t.Fatalf("Demote at the current seq: %v", err)
	}
	if !s.Follower() {
		t.Fatal("Demote did not make the node a follower")
	}
}

func TestFollowerRefusesWrites(t *testing.T) {
	f := blankFollower(t, core.DurableOptions{})
	if !f.Follower() {
		t.Fatal("Follower() = false on a follower")
	}
	_, err := f.Apply(context.Background(), `DELETE FROM SONAR WHERE SONAR.Sonar = 'none'`)
	if !errors.Is(err, core.ErrNotLeader) {
		t.Errorf("Apply on follower: %v, want ErrNotLeader", err)
	}
	if !errors.Is(err, core.ErrReadOnly) {
		t.Errorf("ErrNotLeader must wrap ErrReadOnly, got %v", err)
	}
	if _, err := f.Induce(induct.Options{Nc: 3}); !errors.Is(err, core.ErrNotLeader) {
		t.Errorf("Induce on follower: %v, want ErrNotLeader", err)
	}
	if _, err := f.Maintain(context.Background(), induct.Options{Nc: 3}); !errors.Is(err, core.ErrNotLeader) {
		t.Errorf("Maintain on follower: %v, want ErrNotLeader", err)
	}
}

func TestBootstrapAndStreamConverge(t *testing.T) {
	leader, _ := durableShip(t, true, core.DurableOptions{})
	if _, err := leader.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN903', 'Bootfish', '0204')`); err != nil {
		t.Fatal(err)
	}

	f := blankFollower(t, core.DurableOptions{})
	a, err := leader.BootstrapArchive()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBootstrap(a); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, leader, f, subQuery)
	if lr, fr := leader.Rules().Len(), f.Rules().Len(); lr == 0 || lr != fr {
		t.Fatalf("rule sets: leader %d, follower %d", lr, fr)
	}

	// Writes after the bootstrap arrive record by record — including a
	// rule install, which must replay to the identical rule base.
	if _, err := leader.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN904', 'Streamfish', '0204')`); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	syncFollower(t, leader, f)
	assertConverged(t, leader, f, subQuery)
	if lr, fr := leader.Rules().String(), f.Rules().String(); lr != fr {
		t.Fatalf("replayed rule bases diverge:\nleader:\n%s\nfollower:\n%s", lr, fr)
	}
}

func TestFollowerSurvivesRestart(t *testing.T) {
	leader, _ := durableShip(t, true, core.DurableOptions{})

	cat := storage.NewCatalog()
	s := core.New(cat, dict.New(cat))
	dir := t.TempDir() + "/replica"
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	f, err := core.OpenDurable(dir, core.DurableOptions{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := leader.BootstrapArchive()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBootstrap(a); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN905', 'Restartfish', '0204')`); err != nil {
		t.Fatal(err)
	}
	syncFollower(t, leader, f)
	seq, version := f.WalSeq(), f.Version()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from local state: position and version survive, and only
	// the delta needs streaming.
	f2, err := core.OpenDurable(dir, core.DurableOptions{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.WalSeq() != seq || f2.Version() != version {
		t.Fatalf("restarted follower at seq %d version %d, want %d, %d", f2.WalSeq(), f2.Version(), seq, version)
	}
	if _, err := leader.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN906', 'Deltafish', '0204')`); err != nil {
		t.Fatal(err)
	}
	syncFollower(t, leader, f2)
	assertConverged(t, leader, f2, subQuery)
}

func TestReplayRecordGapAndDuplicate(t *testing.T) {
	leader, _ := durableShip(t, false, core.DurableOptions{})
	f := blankFollower(t, core.DurableOptions{})
	a, err := leader.BootstrapArchive()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBootstrap(a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := leader.Apply(context.Background(), `DELETE FROM SONAR WHERE SONAR.Sonar = 'none'`); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := leader.ReplicationBatch(context.Background(), 0, 0, 10)
	if err != nil || len(recs) != 2 {
		t.Fatalf("stream: %d records, err %v", len(recs), err)
	}
	// A gap (record 2 before record 1) means a snapshot is needed.
	if err := f.ReplayRecord(recs[1].Seq, recs[1].Payload); !errors.Is(err, core.ErrSnapshotNeeded) {
		t.Fatalf("gap replay: %v, want ErrSnapshotNeeded", err)
	}
	if err := f.ReplayRecord(recs[0].Seq, recs[0].Payload); err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery is a no-op.
	v := f.Version()
	if err := f.ReplayRecord(recs[0].Seq, recs[0].Payload); err != nil {
		t.Fatalf("duplicate replay: %v", err)
	}
	if f.Version() != v {
		t.Fatalf("duplicate replay moved version %d → %d", v, f.Version())
	}
	if err := f.ReplayRecord(recs[1].Seq, recs[1].Payload); err != nil {
		t.Fatal(err)
	}
	if f.WalSeq() != 2 {
		t.Fatalf("follower at seq %d, want 2", f.WalSeq())
	}
}

func TestWaitForSeq(t *testing.T) {
	s, _ := durableShip(t, false, core.DurableOptions{})
	if _, err := s.Apply(context.Background(), `DELETE FROM SONAR WHERE SONAR.Sonar = 'none'`); err != nil {
		t.Fatal(err)
	}
	// Already applied: returns immediately.
	if err := s.WaitForSeq(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Not yet applied: honours the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitForSeq(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("future seq wait: %v", err)
	}
	// A commit wakes a parked waiter.
	done := make(chan error, 1)
	go func() { done <- s.WaitForSeq(context.Background(), 2) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN907', 'Wakefish', '0204')`); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForSeq never woke")
	}
}

func TestReopenResumesVersionNumbering(t *testing.T) {
	s, dir := durableShip(t, true, core.DurableOptions{})
	if _, err := s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN908', 'Versionfish', '0204')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One more write after the checkpoint, so reopen replays it on top
	// of the restamped base version.
	if _, err := s.Apply(context.Background(), `INSERT INTO SUBMARINE VALUES ('SSN909', 'Replayfish', '0204')`); err != nil {
		t.Fatal(err)
	}
	version, seq := s.Version(), s.WalSeq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != version || s2.WalSeq() != seq {
		t.Fatalf("reopened at version %d seq %d, want %d, %d", s2.Version(), s2.WalSeq(), version, seq)
	}
}

func TestInducedRulesSurviveCrashReplay(t *testing.T) {
	s, dir := durableShip(t, false, core.DurableOptions{})
	if _, err := s.Induce(induct.Options{Nc: 3}); err != nil {
		t.Fatal(err)
	}
	want := s.Rules().String()
	version := s.Version()
	// No checkpoint: the rule install exists only as a WAL record.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := core.OpenDurable(dir, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Rules().String(); got != want {
		t.Fatalf("rules after replay:\n%s\nwant:\n%s", got, want)
	}
	if s2.Version() != version {
		t.Fatalf("version after replay = %d, want %d", s2.Version(), version)
	}
}
