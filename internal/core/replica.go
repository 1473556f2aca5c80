// The replication substrate: what a leader exports and a follower
// replays.
//
// Replication is physical and single-leader. Every state change a
// durable leader commits is one WAL record — mutation batches since PR
// 3, and (as of the replicated serving tier) rule-set installs from
// Induce and Maintain, so the WAL's sequence order fully determines the
// snapshot sequence. A follower replays those records in order through
// the same code paths recovery uses, appending each to its own WAL
// before installing the snapshot it produces; leader, crash-replayed
// leader, and follower therefore converge on identical snapshots with
// identical version numbers.
//
// The leader retains recent records in memory (replBuf) so followers
// stream without re-reading the log file, and the buffer survives the
// checkpoint's log reset — retention is bounded by count, not by the
// WAL's truncation schedule. A follower that falls behind the retained
// window gets ErrSnapshotNeeded and re-bootstraps from a full snapshot
// archive, which is the same path a brand-new follower takes.

package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"intensional/internal/dict"
	"intensional/internal/relation"
	"intensional/internal/storage"
)

// ErrNotLeader is returned by write operations on a follower replica.
// It unwraps to ErrReadOnly, so callers treating the system as
// "read-only for whatever reason" keep working; callers that care can
// redirect the write to the leader. The message deliberately does not
// include ErrReadOnly's text — a follower is healthy, not degraded.
var ErrNotLeader error = notLeaderError{}

type notLeaderError struct{}

func (notLeaderError) Error() string {
	return "core: not the leader: this replica is a follower; writes go to the leader"
}

func (notLeaderError) Unwrap() error { return ErrReadOnly }

// ErrSnapshotNeeded is returned when replication cannot proceed record
// by record: the leader no longer retains the requested records, or the
// follower was handed a record beyond the next expected sequence. The
// remedy is the same in both cases — bootstrap from a full snapshot.
var ErrSnapshotNeeded = errors.New("core: wal records no longer available; bootstrap from a snapshot")

// walKindRules marks a WAL record carrying a rule-set install (Induce
// or Maintain) instead of a statement batch. The zero kind is a
// statement batch, so logs written before rule records existed replay
// unchanged.
const walKindRules = "rules"

// defaultReplicationRetain bounds the in-memory replication buffer when
// DurableOptions does not.
const defaultReplicationRetain = 1024

// ReplRecord is one WAL record as shipped to followers: the sequence it
// commits and the exact payload bytes the leader logged. Followers
// append the payload verbatim to their own WAL, so a follower's log is
// byte-comparable to the leader's tail.
type ReplRecord struct {
	Seq     uint64 `json:"seq"`
	Payload []byte `json:"payload"`
}

// relColWire is one column of a relation on the wire.
type relColWire struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// relWire is a relation on the wire: schema plus rows rendered through
// the Value.String/ParseValue round-trip (floats use strconv's
// shortest-exact form, so the trip is lossless). nil marks NULL.
type relWire struct {
	Name string       `json:"name"`
	Cols []relColWire `json:"cols"`
	Rows [][]*string  `json:"rows"`
}

func encodeRelWire(r *relation.Relation) relWire {
	cols := r.Schema().Columns()
	w := relWire{Name: r.Name(), Cols: make([]relColWire, len(cols))}
	for i, c := range cols {
		w.Cols[i] = relColWire{Name: c.Name, Type: c.Type.String()}
	}
	if r.Len() > 0 {
		w.Rows = make([][]*string, r.Len()) // an empty relation keeps "rows": null
	}
	for ri, t := range r.Rows() {
		row, strs := make([]*string, len(t)), make([]string, len(t))
		for i, v := range t {
			if v.IsNull() {
				continue
			}
			strs[i] = v.String()
			row[i] = &strs[i]
		}
		w.Rows[ri] = row
	}
	return w
}

func parseRelType(s string) (relation.Type, error) {
	switch s {
	case "string":
		return relation.TString, nil
	case "int":
		return relation.TInt, nil
	case "float":
		return relation.TFloat, nil
	default:
		return 0, fmt.Errorf("core: unknown column type %q", s)
	}
}

func decodeRelWire(w relWire) (*relation.Relation, error) {
	cols := make([]relation.Column, len(w.Cols))
	for i, c := range w.Cols {
		t, err := parseRelType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("core: relation %s: %w", w.Name, err)
		}
		cols[i] = relation.Column{Name: c.Name, Type: t}
	}
	sch, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("core: relation %s: %w", w.Name, err)
	}
	r := relation.New(w.Name, sch)
	for ri, row := range w.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("core: relation %s row %d has %d values, want %d", w.Name, ri, len(row), len(cols))
		}
		t := make(relation.Tuple, len(row))
		for i, s := range row {
			if s == nil {
				t[i] = relation.Null()
				continue
			}
			v, err := relation.ParseValue(*s, cols[i].Type)
			if err != nil {
				return nil, fmt.Errorf("core: relation %s row %d column %s: %w", w.Name, ri, cols[i].Name, err)
			}
			t[i] = v
		}
		if err := r.Insert(t); err != nil {
			return nil, fmt.Errorf("core: relation %s row %d: %w", w.Name, ri, err)
		}
	}
	return r, nil
}

// replaySnapshot builds the successor snapshot one WAL record commits,
// dispatching on the record kind. Shared by crash recovery (OpenDurable)
// and follower replay (ReplayRecord), so both paths produce the
// snapshot the leader installed.
func replaySnapshot(cur *snapshot, rec walRecord) (*snapshot, error) {
	if rec.Kind == walKindRules {
		return installRulesSnapshot(cur, rec.Rules)
	}
	sn, _, err := applyStmts(cur, rec.Stmts)
	return sn, err
}

// installRulesSnapshot replays a rule-set install: the four rule
// relations replace their prior versions in a shallow-cloned catalog,
// the dictionary is rebuilt, and the decoded set becomes the new
// snapshot's all-valid rule base — exactly the state Induce or Maintain
// installed on the leader.
func installRulesSnapshot(cur *snapshot, wires []relWire) (*snapshot, error) {
	cat := cur.cat.ShallowClone()
	for _, w := range wires {
		r, err := decodeRelWire(w)
		if err != nil {
			return nil, err
		}
		cat.Put(r)
	}
	d, err := newDictionary(cat, cur.d.Decls(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: replay rules: %w", err)
	}
	return newSnapshot(cur.version+1, cat, d, cur.counters), nil
}

// replicate records a committed WAL record in the retention buffer and
// wakes sequence waiters. Called with wmu held (records must enter the
// buffer in commit order); the buffer has its own lock because
// ReplicationBatch reads it without wmu.
//
//ilint:locked wmu
func (s *System) replicate(seq uint64, payload []byte) {
	s.replMu.Lock()
	s.replBuf = append(s.replBuf, ReplRecord{Seq: seq, Payload: payload})
	if n := s.replRetain; n > 0 && len(s.replBuf) > n {
		keep := make([]ReplRecord, n)
		copy(keep, s.replBuf[len(s.replBuf)-n:])
		s.replBuf = keep
	}
	s.replMu.Unlock()
	s.advanceSeq(seq)
}

// advanceSeq publishes a newly applied WAL sequence and wakes WaitForSeq
// callers.
func (s *System) advanceSeq(seq uint64) {
	s.seqMu.Lock()
	if seq > s.appliedSeq.Load() {
		s.appliedSeq.Store(seq)
	}
	ch := s.seqCh
	s.seqCh = make(chan struct{})
	s.seqMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// WalSeq returns the sequence of the last WAL record whose effects the
// current state includes — committed writes on a leader, replayed
// records on a follower. Zero on a system that has never logged.
func (s *System) WalSeq() uint64 { return s.appliedSeq.Load() }

// Follower reports whether the system currently acts as a follower
// replica. The role can change at runtime via Promote and Demote (live
// cluster reconfiguration), so callers must not cache the answer across
// requests.
func (s *System) Follower() bool { return s.follower.Load() }

// Promote turns a follower into a write-accepting leader — the
// follower half of a live leader handover. The caller must have stopped
// the replication loop first; from the moment Promote returns, local
// writes are accepted and logged, and the node's retention buffer
// (populated by replayed records) lets other replicas keep streaming
// from it without a re-bootstrap.
func (s *System) Promote() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.log == nil {
		return ErrNotDurable
	}
	if !s.follower.Load() {
		return fmt.Errorf("core: Promote on a node that already leads")
	}
	s.follower.Store(false)
	return nil
}

// Demote turns the leader into a follower — the leader half of a live
// handover. Demote itself only flips the fence (subsequent writes get
// ErrNotLeader); deciding whether demotion is SAFE — every committed
// record replicated to the successor — is the cluster layer's fencing
// check, which must run before this and pass the sequence it checked as
// seq. A write committed between that check and this call would be
// acknowledged by a node that then steps down, so Demote refuses unless
// the committed sequence is still seq, checked under the writer mutex.
// The caller then attaches a replication loop pointed at the new leader.
func (s *System) Demote(seq uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.log == nil {
		return ErrNotDurable
	}
	if s.follower.Load() {
		return fmt.Errorf("core: Demote on a follower")
	}
	if s.walSeq != seq {
		return fmt.Errorf("core: Demote fenced at seq %d, but seq %d has committed since", seq, s.walSeq)
	}
	s.follower.Store(true)
	return nil
}

// WaitForSeq blocks until the system has applied WAL sequence seq (the
// read-your-writes wait: a follower query carrying a write token parks
// here until replication catches up) or ctx ends.
func (s *System) WaitForSeq(ctx context.Context, seq uint64) error {
	for {
		s.seqMu.Lock()
		ch := s.seqCh
		s.seqMu.Unlock()
		if s.appliedSeq.Load() >= seq {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ReplicationBatch returns retained WAL records with sequence > after,
// at most max of them, plus the leader's current committed sequence.
// When no such records exist yet and wait is positive, the call blocks
// up to wait for the next commit (the long-poll). A follower asking for
// records older than the retention window gets ErrSnapshotNeeded and
// must re-bootstrap.
func (s *System) ReplicationBatch(ctx context.Context, after uint64, wait time.Duration, max int) ([]ReplRecord, uint64, error) {
	if max <= 0 {
		max = 512
	}
	for {
		recs, cur, err := s.replicationSlice(after, max)
		if err != nil || len(recs) > 0 || wait <= 0 {
			return recs, cur, err
		}
		wctx, cancel := context.WithTimeout(ctx, wait)
		err = s.WaitForSeq(wctx, after+1)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return nil, cur, ctx.Err()
			}
			// The poll window elapsed quietly — an empty batch, not an
			// error; the follower learns the leader's position and re-polls.
			return nil, s.WalSeq(), nil
		}
		wait = 0 // records exist now; return them without a second park
	}
}

// replicationSlice copies the retained records with sequence > after.
func (s *System) replicationSlice(after uint64, max int) ([]ReplRecord, uint64, error) {
	cur := s.WalSeq()
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if after >= cur {
		return nil, cur, nil
	}
	// The buffer is contiguous and seq-ascending; its floor is the
	// sequence just before its first record. Anything at or below the
	// floor is gone — only a snapshot can cover the gap.
	floor := cur
	if len(s.replBuf) > 0 {
		floor = s.replBuf[0].Seq - 1
	}
	if after < floor {
		return nil, cur, fmt.Errorf("%w (want > %d, retained > %d)", ErrSnapshotNeeded, after, floor)
	}
	var out []ReplRecord
	for _, r := range s.replBuf {
		if r.Seq <= after {
			continue
		}
		out = append(out, r)
		if len(out) >= max {
			break
		}
	}
	return out, cur, nil
}

// BootstrapArchive is a full snapshot of a system's replicable state:
// every relation (the rule relations encoded from the serving rule set,
// as Save writes them, so a bootstrapping follower never receives a
// stale rule), the dictionary declarations, and the WAL position and
// snapshot version the archive captures. It is the starting point for a
// new follower and the catch-up path for one that fell behind retention.
type BootstrapArchive struct {
	Seq       uint64    `json:"seq"`
	Version   uint64    `json:"version"`
	Relations []relWire `json:"relations"`
	Decls     []byte    `json:"decls,omitempty"`
}

// BootstrapArchive captures the current state as a transferable
// snapshot. Taken under the writer lock so the archive is one
// consistent (seq, version, state) triple.
func (s *System) BootstrapArchive() (*BootstrapArchive, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	sn := s.current()
	a := &BootstrapArchive{Seq: s.walSeq, Version: sn.version}
	cat, err := persisted(sn)
	if err != nil {
		return nil, err
	}
	for _, name := range cat.Names() {
		r, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		a.Relations = append(a.Relations, encodeRelWire(r))
	}
	decls, err := dict.MarshalDecls(sn.d.Decls())
	if err != nil {
		return nil, err
	}
	a.Decls = decls
	return a, nil
}

// InstallBootstrap replaces the system's entire state with an archive:
// catalog, dictionary, rules, WAL position, and snapshot version. The
// follower then checkpoints, so its own directory and (reset) WAL
// record the archived position and a restart resumes from it. Only
// followers bootstrap; a leader's state is the source of truth.
func (s *System) InstallBootstrap(a *BootstrapArchive) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if !s.follower.Load() {
		return fmt.Errorf("core: bootstrap install on a non-follower system")
	}
	cat := storage.NewCatalog()
	for _, w := range a.Relations {
		r, err := decodeRelWire(w)
		if err != nil {
			return err
		}
		cat.Put(r)
	}
	var decls *dict.Decls
	if len(a.Decls) > 0 {
		var err error
		if decls, err = dict.UnmarshalDecls(a.Decls); err != nil {
			return err
		}
	}
	maint, err := takeWithheld(cat)
	if err != nil {
		return err
	}
	d, err := newDictionary(cat, decls, nil)
	if err != nil {
		return err
	}
	sn := newSnapshot(a.Version, cat, d, s.counters)
	sn.maint = maint
	s.install(sn)
	s.walSeq = a.Seq
	s.replMu.Lock()
	s.replBuf = nil
	s.replMu.Unlock()
	s.advanceSeq(a.Seq)
	if s.log != nil {
		if err := s.checkpointLocked(); err != nil {
			return fmt.Errorf("core: persist bootstrap: %w", err)
		}
	}
	return nil
}

// ReplayRecord applies one replicated WAL record on a follower: the
// payload is appended verbatim to the follower's own WAL (the local
// commit point, preserving the leader's ordering of log-then-install),
// then the snapshot it produces installs. Records at or below the
// follower's position are duplicate deliveries and are skipped; a
// record beyond the next expected sequence is a gap only a snapshot can
// fill, reported as ErrSnapshotNeeded.
func (s *System) ReplayRecord(seq uint64, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.log == nil {
		return ErrNotDurable
	}
	if !s.follower.Load() {
		return fmt.Errorf("core: ReplayRecord on a leader (replay is the follower apply path)")
	}
	if seq <= s.walSeq {
		return nil
	}
	if seq != s.walSeq+1 {
		return fmt.Errorf("%w (record %d after %d)", ErrSnapshotNeeded, seq, s.walSeq)
	}
	rec, err := decodeWalRecord(payload)
	if err != nil {
		return err
	}
	if rec.Seq != seq {
		return fmt.Errorf("core: record claims seq %d, shipped as %d", rec.Seq, seq)
	}
	sn, err := replaySnapshot(s.current(), rec)
	if err != nil {
		return err
	}
	if err := s.log.Append(payload); err != nil {
		s.noteAppendFailure(err)
		return fmt.Errorf("%w: %v", ErrLogFailed, err)
	}
	s.walFails = 0
	s.walSeq = seq
	s.install(sn)
	// Replayed records enter the retention buffer too, not just the
	// applied-sequence watch: a follower promoted to leader by a live
	// reconfiguration can then serve /replica/wal to the demoted leader
	// and other replicas without forcing them through a re-bootstrap.
	s.replicate(seq, payload)
	if s.checkpointBytes > 0 && s.log.Size() > s.checkpointBytes {
		if cerr := s.checkpointLocked(); cerr != nil {
			// Local housekeeping only; the record is applied and durable
			// in the (un-truncated) log, and the next threshold crossing
			// retries the checkpoint.
			log.Printf("core: follower checkpoint after replay %d: %v", seq, cerr)
		}
	}
	return nil
}
