// The write path: durable mutations and incremental rule maintenance.
//
// Apply/ApplyBatch execute DML copy-on-write against the current
// snapshot's catalog, run the incremental rule-maintenance check, append
// one record to the write-ahead log (the commit point, when the system
// is durable), and install the result as snapshot version N+1. Readers
// keep the snapshot they loaded; a rule contradicted by a mutation is
// withheld from the new snapshot's inference rule set the instant the
// snapshot installs, so no query ever sees a contradicted rule served
// as valid. Rule installs (Induce, Maintain) commit through the same
// step, commitLocked, so every snapshot version is one WAL record.
//
// Checkpointing composes the WAL with the atomic Save: the catalog
// (which contains every logged mutation) is atomically written first,
// and only then is the log truncated. Every WAL record carries the
// sequence number it commits and every saved directory records the last
// sequence it contains, so replay is idempotent: a crash between the
// save and the log reset replays records the catalog already holds, and
// each is skipped by sequence instead of double-applied. See Checkpoint
// for the full ordering argument.

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"intensional/internal/fault"
	"intensional/internal/induct"
	"intensional/internal/maintain"
	"intensional/internal/query"
	"intensional/internal/rules"
	"intensional/internal/sqlparse"
	"intensional/internal/storage"
	"intensional/internal/wal"
)

// Crash points, reported to the system's fault.FS via fault.Hit. When
// the FS is a fault.Injector with the point armed, the operation aborts
// there — simulating a process dying between two file operations.
// Production FSes ignore them.
const (
	// pointExecuted: statements applied to the working catalog, nothing
	// logged yet. Dying here must lose the (unacknowledged) batch.
	pointExecuted = "apply.executed"
	// pointLogged: WAL record fsync'd, snapshot not yet installed (any
	// commit, rule installs included). Dying here must replay the record
	// on restart.
	pointLogged = "apply.logged"
	// pointCheckpointSaved: the checkpoint's atomic save has renamed
	// into place, the log is not yet reset. Dying here leaves a log
	// whose every record the directory already contains; replay must
	// skip them by sequence instead of double-applying.
	pointCheckpointSaved = "checkpoint.saved"
)

// walRecord is the JSON payload of one WAL entry. Seq is the record's
// position in the log's commit order, compared against the saved
// directory's walseq.json on replay; records at or below the saved
// sequence are already in the catalog and are skipped. Kind selects the
// payload: the zero kind is a statement batch applied atomically
// (Stmts), and walKindRules is a rule-set install (Rules) — logging
// both means every snapshot version a durable system installs is one
// WAL record, which is what lets followers replay their way to the
// leader's exact version numbers.
type walRecord struct {
	Seq   uint64    `json:"seq"`
	Kind  string    `json:"kind,omitempty"`
	Stmts []string  `json:"stmts,omitempty"`
	Rules []relWire `json:"rules,omitempty"`
}

// decodeWalRecord parses one WAL payload.
func decodeWalRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return walRecord{}, fmt.Errorf("core: decode wal record: %w", err)
	}
	return rec, nil
}

// walPath returns the log location for a database directory: a sibling
// file, never inside the directory, because checkpointing replaces the
// whole directory atomically and must not unlink the open log.
func walPath(dir string) string { return filepath.Clean(dir) + ".wal" }

// WALPath returns the write-ahead log location OpenDurable uses for a
// database directory — exported so the replica layer can place or
// remove a follower's log alongside its directory.
func WALPath(dir string) string { return walPath(dir) }

// ErrNotDurable is returned by Checkpoint on a system opened without a
// write-ahead log.
var ErrNotDurable = fmt.Errorf("core: system has no write-ahead log (use OpenDurable)")

// ErrLogFailed marks apply errors where the statements executed but the
// WAL append failed — an infrastructure fault (disk full, I/O error),
// not a problem with the request. When the failed stage was the record
// write and the log rewound cleanly, the batch did NOT commit; see
// ErrLogIndeterminate for the one case where that cannot be promised.
var ErrLogFailed = fmt.Errorf("core: write-ahead log append failed")

// ErrLogIndeterminate marks the append failures where the batch's
// commit state is unknown until the next recovery: the record's bytes
// may have reached the file before the failure (a failed fsync reports
// nothing about what the kernel already wrote — the "fsyncgate"
// semantics that poison the log handle), so after a crash, replay may
// legitimately surface the batch as committed. Callers treating errors
// as "definitely not applied" must check for this sentinel; it wraps
// ErrLogFailed, so err-is checks for the general failure still match.
var ErrLogIndeterminate = fmt.Errorf("%w (commit state indeterminate until the next recovery)", ErrLogFailed)

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// CheckpointBytes, when positive, auto-checkpoints after any apply
	// that leaves the WAL larger than this many bytes.
	CheckpointBytes int64
	// FS, when non-nil, routes every file operation of the durability
	// path (WAL appends, checkpoint saves) through it — the
	// fault-injection seam. Nil means the real filesystem.
	FS fault.FS
	// Clock, when non-nil, supplies degraded-state timestamps. Nil
	// means the wall clock.
	Clock fault.Clock
	// DegradeAfter is how many consecutive WAL append failures flip the
	// system to read-only degraded mode (a poisoned log flips it
	// immediately). Zero means the default of 3.
	DegradeAfter int
	// Follower opens the system as a follower replica: local writes are
	// refused with ErrNotLeader, and state advances only through
	// ReplayRecord and InstallBootstrap.
	Follower bool
	// ReplicationRetain bounds how many committed WAL records the system
	// keeps in memory for followers to stream (the buffer survives
	// checkpoints' log resets). Zero means a default of 1024; followers
	// further behind than the buffer re-bootstrap from a snapshot.
	ReplicationRetain int
}

// OpenDurable opens a database directory like Open and attaches the
// write-ahead log at "<dir>.wal" (created if absent), replaying any
// mutations logged after the last checkpoint. Records whose sequence
// number is at or below the directory's recorded walseq are already in
// the loaded catalog (a checkpoint saved them, then crashed or missed
// the log reset) and are skipped, so replay is idempotent. The returned
// system logs every ApplyBatch before acknowledging it; see Checkpoint
// for how the log is bounded. The log file travels with the directory
// only if moved alongside it — Save to a different directory writes a
// fully checkpointed copy instead.
//
// OpenDurable runs before the system is shared, so it touches
// wmu-guarded state without the lock.
//
//ilint:locked wmu
func OpenDurable(dir string, o DurableOptions) (*System, error) {
	// Repair an interrupted checkpoint swap before loading: a crash
	// between the two renames leaves only the ".old" generation, whose
	// walseq predates the un-reset WAL — replay brings it forward.
	fsys := o.FS
	if fsys == nil {
		fsys = fault.OS
	}
	if err := storage.RecoverAtomicFS(fsys, dir); err != nil {
		return nil, err
	}
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	if o.FS != nil {
		s.fs = o.FS
	}
	if o.Clock != nil {
		s.clock = o.Clock
	}
	if o.DegradeAfter > 0 {
		s.degradeAfter = o.DegradeAfter
	}
	s.follower.Store(o.Follower)
	s.replRetain = o.ReplicationRetain
	if s.replRetain == 0 {
		s.replRetain = defaultReplicationRetain
	}
	savedSeq, savedVersion, err := readWalSeq(dir)
	if err != nil {
		return nil, err
	}
	if cur := s.current(); savedVersion > cur.version {
		// Restamp the base snapshot with the version the checkpoint
		// recorded, so version numbers stay monotone across restarts and
		// a follower replaying this log lands on the leader's numbers.
		sn := newSnapshot(savedVersion, cur.cat, cur.d, s.counters)
		sn.maint = cur.maint
		s.install(sn)
	}
	log, entries, err := wal.OpenFS(s.fs, walPath(dir))
	if err != nil {
		return nil, err
	}
	s.walSeq = savedSeq
	var replayed []ReplRecord
	for i, payload := range entries {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			cerr := log.Close()
			return nil, fmt.Errorf("core: wal entry %d: %w (close: %v)", i, err, cerr)
		}
		if rec.Seq != 0 && rec.Seq <= savedSeq {
			continue // already contained in the checkpointed catalog
		}
		sn, err := replaySnapshot(s.current(), rec)
		if err != nil {
			cerr := log.Close()
			return nil, fmt.Errorf("core: replay wal entry %d: %w (close: %v)", i, err, cerr)
		}
		s.install(sn)
		if rec.Seq > s.walSeq {
			s.walSeq = rec.Seq
		}
		if rec.Seq != 0 {
			replayed = append(replayed, ReplRecord{Seq: rec.Seq, Payload: payload})
		}
	}
	if n := s.replRetain; len(replayed) > n {
		replayed = replayed[len(replayed)-n:]
	}
	// Re-seed the retention buffer so followers resume streaming across
	// a leader restart without re-bootstrapping.
	s.replMu.Lock()
	s.replBuf = replayed
	s.replMu.Unlock()
	s.appliedSeq.Store(s.walSeq)
	s.log = log
	s.dir = dir
	s.checkpointBytes = o.CheckpointBytes
	return s, nil
}

// ApplyResult reports one committed mutation batch.
type ApplyResult struct {
	// Version is the snapshot the batch installed.
	Version uint64
	// Seq is the WAL sequence the batch committed at, zero on a
	// non-durable system. It is the basis of the read-your-writes token:
	// a replica that has applied Seq serves this write.
	Seq uint64
	// Mutations holds the per-statement effects, in batch order.
	Mutations []*query.Mutation
	// Stale and Refinable count the rules in each state after the batch
	// (cumulative since the last induction or maintenance).
	Stale, Refinable int
	// Checkpointed reports whether the apply triggered an automatic
	// checkpoint.
	Checkpointed bool
	// CheckpointErr describes an automatic checkpoint that failed after
	// the batch committed. The batch itself is durable and installed —
	// ApplyBatch returns a nil error in this case, so err-first callers
	// never mistake a committed batch for a failed one — but the WAL was
	// not compacted; the condition is degraded housekeeping, not a
	// failed mutation.
	CheckpointErr string
}

// Apply executes one DML statement as a single-statement batch.
func (s *System) Apply(ctx context.Context, sql string) (*ApplyResult, error) {
	return s.ApplyBatch(ctx, []string{sql})
}

// ApplyBatch executes a batch of DML statements atomically: either every
// statement lands in snapshot version N+1, or none does. On a durable
// system the batch is one WAL record, fsync'd before the snapshot
// installs — the append is the commit point, so a crash before it loses
// the (unacknowledged) batch and a crash after it replays the batch on
// restart. Rules contradicted by the batch are stale in the new snapshot
// and excluded from its inference rule set.
func (s *System) ApplyBatch(ctx context.Context, stmts []string) (*ApplyResult, error) {
	if len(stmts) == 0 {
		return nil, fmt.Errorf("core: empty statement batch")
	}
	parsed := make([]sqlparse.Stmt, len(stmts))
	for i, src := range stmts {
		st, err := sqlparse.ParseStatement(src)
		if err != nil {
			return nil, err
		}
		if !sqlparse.IsDML(st) {
			return nil, fmt.Errorf("core: statement %d is a %s, not a mutation", i, st.Kind())
		}
		parsed[i] = st
	}

	s.wmu.Lock()
	defer s.wmu.Unlock()
	var muts []*query.Mutation
	sn, err := s.commitLocked(ctx, func(cur *snapshot) (*snapshot, walRecord, error) {
		sn, m, err := applyParsed(cur, parsed)
		if err != nil {
			return nil, walRecord{}, err
		}
		muts = m
		return sn, walRecord{Stmts: stmts}, fault.Hit(s.fs, pointExecuted)
	})
	if err != nil {
		return nil, err
	}

	res := &ApplyResult{Version: sn.version, Seq: s.walSeq, Mutations: muts}
	res.Stale, res.Refinable = sn.maint.Counts()
	if res.Stale > 0 {
		s.kickAutoMaintain()
	}
	if s.log != nil && s.checkpointBytes > 0 && s.log.Size() > s.checkpointBytes {
		if err := s.checkpointLocked(); err != nil {
			// The batch is committed and durable; only the log
			// compaction failed. Report it in the result, not the error,
			// so err-first callers do not retry a committed batch.
			res.CheckpointErr = err.Error()
			return res, nil
		}
		res.Checkpointed = true
	}
	return res, nil
}

// applyStmts parses and applies a statement batch against a snapshot,
// returning the successor snapshot. Used by ApplyBatch (under wmu) and
// by WAL replay (pre-publication).
func applyStmts(cur *snapshot, stmts []string) (*snapshot, []*query.Mutation, error) {
	parsed := make([]sqlparse.Stmt, len(stmts))
	for i, src := range stmts {
		st, err := sqlparse.ParseStatement(src)
		if err != nil {
			return nil, nil, err
		}
		parsed[i] = st
	}
	return applyParsed(cur, parsed)
}

// applyParsed executes parsed statements copy-on-write against cur's
// catalog and runs rule maintenance, building (but not installing) the
// successor snapshot.
func applyParsed(cur *snapshot, parsed []sqlparse.Stmt) (*snapshot, []*query.Mutation, error) {
	workCat := cur.cat.ShallowClone()
	st := cur.maint
	muts := make([]*query.Mutation, 0, len(parsed))
	for _, p := range parsed {
		m, err := query.ApplyMutation(workCat, p)
		if err != nil {
			return nil, nil, err
		}
		st = st.ApplyMutation(cur.d, cur.full, m)
		muts = append(muts, m)
	}
	d, err := newDictionary(workCat, cur.d.Decls(), st.Serving(cur.full))
	if err != nil {
		return nil, nil, err
	}
	sn := newSnapshot(cur.version+1, workCat, d, cur.counters)
	sn.full = cur.full
	sn.maint = st
	return sn, muts, nil
}

// Checkpoint persists the database atomically and truncates the WAL.
// Ordering argument: Save writes catalog + declarations + the current
// WAL sequence into a temporary sibling and renames it over the
// directory, so at every instant the directory is either the old state
// (whose recorded sequence admits replay of the logged mutations) or
// the new state (whose recorded sequence makes replay skip them). Only
// after the rename succeeds is the log reset; a crash in the window
// between the two leaves a log whose every record is at or below the
// saved sequence, and OpenDurable skips them all — no mutation is ever
// double-applied, and none is ever lost.
func (s *System) Checkpoint() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.log == nil {
		return ErrNotDurable
	}
	return s.checkpointLocked()
}

// checkpointLocked runs the checkpoint protocol. A successful
// checkpoint also leaves read-only degraded mode: the state is durably
// saved and the log reset rewrote the WAL file from scratch, so the
// conditions that forced degradation no longer hold. Caller holds wmu.
//
//ilint:locked wmu
func (s *System) checkpointLocked() error {
	if err := s.saveLocked(s.dir); err != nil {
		return err
	}
	if err := fault.Hit(s.fs, pointCheckpointSaved); err != nil {
		return err
	}
	if err := s.log.Reset(); err != nil {
		return err
	}
	s.clearDegradedLocked()
	return nil
}

// commitLocked is the commit step every snapshot-replacing write shares
// (ApplyBatch, Induce, Maintain). It refuses once ctx has ended, on a
// follower and while the system is degraded; otherwise build derives the
// successor snapshot from the current one. On a durable system the WAL
// record build returns is appended next — the commit point — and the
// snapshot installs only after that succeeds, then the record is offered
// to followers (after the install, so sequence waiters never observe a
// sequence ahead of the serving snapshot). A nil snapshot from build
// means there is nothing to commit. Caller holds wmu.
//
//ilint:locked wmu
func (s *System) commitLocked(ctx context.Context, build func(cur *snapshot) (*snapshot, walRecord, error)) (*snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.follower.Load() {
		return nil, ErrNotLeader
	}
	if st := s.degraded.Load(); st != nil {
		return nil, fmt.Errorf("%w (%s)", ErrReadOnly, st.Reason)
	}
	sn, rec, err := build(s.current())
	if err != nil || sn == nil {
		return nil, err
	}
	var payload []byte
	if s.log != nil {
		rec.Seq = s.walSeq + 1
		if payload, err = json.Marshal(rec); err != nil {
			return nil, fmt.Errorf("core: encode wal record: %w", err)
		}
		if err := s.log.Append(payload); err != nil {
			s.noteAppendFailure(err)
			if s.log.Poisoned() != nil {
				// The record may be fully written despite the error (a
				// failed fsync or rewind leaves the tail bytes unknown);
				// a crash-and-replay could surface this commit.
				return nil, fmt.Errorf("%w: %v", ErrLogIndeterminate, err)
			}
			return nil, fmt.Errorf("%w: %v", ErrLogFailed, err)
		}
		s.walFails = 0
		s.walSeq++
	}
	if err := fault.Hit(s.fs, pointLogged); err != nil {
		return nil, err
	}
	s.install(sn)
	if payload != nil {
		s.replicate(s.walSeq, payload)
	}
	return sn, nil
}

// WalSize returns the write-ahead log's size in bytes, or 0 when the
// system is not durable — the quantity the auto-checkpoint threshold
// and the metrics endpoint report.
func (s *System) WalSize() int64 {
	if s.log == nil {
		return 0
	}
	return s.log.Size()
}

// Durable reports whether the system writes a WAL.
func (s *System) Durable() bool { return s.log != nil }

// Close stops the auto-maintainer (if running) and closes the WAL. The
// system must not be used afterwards.
func (s *System) Close() error {
	s.StopAutoMaintain()
	if s.log == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.log.Close()
}

// RuleStatus returns, from one consistent snapshot: the full rule set
// (stale rules included), the maintenance state classifying it, and the
// snapshot version. The set Rules() serves for inference is this set
// minus the stale rules.
func (s *System) RuleStatus() (*rules.Set, *maintain.State, uint64) {
	sn := s.current()
	return sn.full, sn.maint, sn.version
}

// MaintainResult reports one maintenance pass.
type MaintainResult struct {
	// Version is the snapshot the pass installed (unchanged if there was
	// nothing to do).
	Version uint64
	// Schemes lists the re-induced rule schemes (sorted keys).
	Schemes []string
	// Dropped and Added count rules removed (stale/refinable of the
	// re-induced schemes) and re-derived.
	Dropped, Added int
}

// Maintain re-induces exactly the rule schemes holding stale or
// refinable rules, merges the result with the untouched rules (which
// keep their numbers), and installs it as a new all-valid snapshot. It
// is the incremental counterpart to Induce: the candidate pairs outside
// the mutated schemes are not re-run. Like Induce it holds the writer
// lock for the whole pass, so a write waits for it instead of outdating
// it. ctx cancels the pass between stages.
func (s *System) Maintain(ctx context.Context, opts induct.Options) (*MaintainResult, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.reinduceLocked(ctx, opts, false)
}

// reinduceLocked is the one rule install, behind both Induce (all set:
// every candidate pair, from an empty rule base) and Maintain (only the
// schemes holding stale or refinable rules). Induction reads a shallow
// copy of the current catalog, so the published snapshot's relations are
// shared, never written. Rules outside the re-induced schemes keep their
// numbers; new rules are numbered after them, in candidate order. The
// merged set is stored as rule relations on the copy and committed as an
// all-valid snapshot, its WAL record built from those same relations. A
// pass with no scheme to re-induce commits nothing. Caller holds wmu.
//
//ilint:locked wmu
func (s *System) reinduceLocked(ctx context.Context, opts induct.Options, all bool) (*MaintainResult, error) {
	res := &MaintainResult{}
	sn, err := s.commitLocked(ctx, func(cur *snapshot) (*snapshot, walRecord, error) {
		res.Version = cur.version
		var inScope map[string]bool
		if !all {
			res.Schemes = cur.maint.SchemeKeys(cur.full)
			if len(res.Schemes) == 0 {
				return nil, walRecord{}, nil
			}
			inScope = make(map[string]bool, len(res.Schemes))
			for _, k := range res.Schemes {
				inScope[k] = true
			}
		}
		cat := cur.cat.ShallowClone()
		d, err := newDictionary(cat, cur.d.Decls(), rules.NewSet())
		if err != nil {
			return nil, walRecord{}, err
		}
		in := induct.New(d, opts)
		pairs, err := in.CandidatePairs(ctx)
		if err != nil {
			return nil, walRecord{}, err
		}
		if !all {
			pairs = slices.DeleteFunc(pairs, func(p induct.Pair) bool { return !inScope[p.Scheme().Key()] })
		}
		results, err := in.InducePairsContext(ctx, pairs)
		if err != nil {
			return nil, walRecord{}, err
		}
		if err := ctx.Err(); err != nil {
			return nil, walRecord{}, err
		}
		set := rules.NewSet()
		for _, r := range cur.full.Rules() {
			if all || inScope[r.Scheme().Key()] {
				res.Dropped++
				continue
			}
			set.Add(r)
		}
		for _, rs := range results {
			for _, r := range rs {
				r.ID = 0
				set.Add(r)
				res.Added++
			}
		}
		d.SetRules(set)
		rels, err := d.StoreRules()
		if err != nil {
			return nil, walRecord{}, err
		}
		rec := walRecord{Kind: walKindRules, Rules: make([]relWire, len(rels))}
		for i, r := range rels {
			rec.Rules[i] = encodeRelWire(r)
		}
		return newSnapshot(cur.version+1, cat, d, cur.counters), rec, nil
	})
	if err != nil {
		return nil, err
	}
	if sn != nil {
		res.Version = sn.version
	}
	return res, nil
}

// StartAutoMaintain launches the eager maintenance worker: each apply
// that leaves rules stale kicks it, and it runs Maintain with the given
// induction options (reusing its Workers pool) until the rule base is
// all-valid again. Kicks arriving mid-run coalesce (single flight).
// Schemes already awaiting re-induction when it starts, such as those a
// restart restored, are maintained at once. Calling it twice replaces
// the previous worker.
func (s *System) StartAutoMaintain(opts induct.Options) {
	s.StopAutoMaintain()
	s.amu.Lock()
	defer s.amu.Unlock()
	s.autoKick = make(chan struct{}, 1)
	if sn := s.current(); len(sn.maint.SchemeKeys(sn.full)) > 0 {
		s.autoKick <- struct{}{}
	}
	s.autoStop = make(chan struct{})
	s.autoDone = make(chan struct{})
	go s.autoMaintainLoop(opts, s.autoKick, s.autoStop, s.autoDone)
}

// StopAutoMaintain stops the maintenance worker and waits for an
// in-flight pass to finish. Safe to call when none is running.
func (s *System) StopAutoMaintain() {
	s.amu.Lock()
	stop, done := s.autoStop, s.autoDone
	s.autoStop, s.autoDone, s.autoKick = nil, nil, nil
	s.amu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// kickAutoMaintain nudges the worker without blocking; a pending kick
// already covers this apply.
func (s *System) kickAutoMaintain() {
	s.amu.Lock()
	kick := s.autoKick
	s.amu.Unlock()
	if kick == nil {
		return
	}
	select {
	case kick <- struct{}{}:
	default:
	}
}

func (s *System) autoMaintainLoop(opts induct.Options, kick <-chan struct{}, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	// Cancelling on stop bounds StopAutoMaintain's wait: an in-flight
	// pass is abandoned at the next stage boundary instead of running a
	// full induction to completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-stop
		cancel()
	}()
	for {
		select {
		case <-stop:
			return
		case <-kick:
			switch _, err := s.Maintain(ctx, opts); {
			case err == nil:
				s.autoRuns.Add(1)
			case errors.Is(err, context.Canceled):
				// Shutdown, not a failure.
			default:
				s.autoErrs.Add(1)
			}
		}
	}
}

// AutoMaintainStats returns how many eager maintenance passes have run
// and how many failed.
func (s *System) AutoMaintainStats() (runs, errs uint64) {
	return s.autoRuns.Load(), s.autoErrs.Load()
}
