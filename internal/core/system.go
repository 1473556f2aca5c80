// Package core assembles the intensional query processing system of
// Figure 6: the traditional query processor, the intelligent data
// dictionary, the inductive learning subsystem, and the inference
// processor, behind one public API. This is the entry point examples,
// tools, and the iqpd server use.
//
// # Concurrency contract
//
// A System is safe for concurrent use. It publishes its state as an
// immutable snapshot — catalog, dictionary, rule set, and a per-snapshot
// statement cache, stamped with a version number. Readers (Query,
// QueryContext, Catalog, Dictionary, Rules, Version) load the current
// snapshot and work against it without further coordination; nothing in
// a published snapshot is mutated except internally locked caches.
// Writers (Apply, Induce, Maintain, Save) are serialised among
// themselves. Induce builds a whole new snapshot — a shallow copy of the
// catalog with fresh rule relations, a fresh dictionary, a new rule set
// — and installs it atomically, so queries in flight keep the consistent
// view they started with and never observe a half-installed rule base.
//
// The flip side: references obtained from Catalog()/Dictionary()/Rules()
// are snapshots too. After an Induce they describe the previous version;
// re-fetch to observe the new one. Direct mutation of a fetched catalog
// is only safe before the system starts serving concurrent traffic.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"intensional/internal/answer"
	"intensional/internal/dict"
	"intensional/internal/fault"
	"intensional/internal/induct"
	"intensional/internal/infer"
	"intensional/internal/maintain"
	"intensional/internal/quel"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
	"intensional/internal/wal"
)

// System is one intensional query processing instance bound to a
// database. See the package comment for the concurrency contract.
type System struct {
	wmu  sync.Mutex   // serialises snapshot-replacing writers (Apply, Induce, Maintain, Save, Checkpoint)
	mu   sync.RWMutex // protects the snapshot pointer swap
	snap *snapshot    // guarded by mu

	// Durability, set by OpenDurable before the system is shared and
	// immutable afterwards (the Log has its own internal lock). A nil
	// log means the system is not durable.
	log             *wal.Log
	dir             string
	checkpointBytes int64
	// fs and clock are the fault-injection seams: every file operation
	// the system's own persistence performs goes through fs, and every
	// degraded-state timestamp through clock. Set before the system is
	// shared (New/OpenDurable), immutable afterwards.
	fs    fault.FS
	clock fault.Clock
	// degradeAfter is how many consecutive WAL append failures flip the
	// system to read-only; a poisoned log handle flips it immediately.
	// Set before sharing, immutable afterwards.
	degradeAfter int
	// walFails counts consecutive WAL append failures. guarded by wmu.
	walFails int
	// degraded holds the read-only degraded state, nil when healthy.
	// Written under wmu; read lock-free by health/metrics reporting.
	degraded atomic.Pointer[DegradedInfo]
	// walSeq is the sequence number of the last WAL record appended (or
	// replayed/skipped at open). Every record is stamped with the
	// sequence it commits, and Save persists the current value into the
	// directory, so replay can skip records already contained in the
	// saved catalog — the idempotency that closes the crash window
	// between a checkpoint's save and its log reset.
	walSeq uint64 // guarded by wmu

	// Replication state (see replica.go). replRetain is set by
	// OpenDurable before sharing, immutable afterwards. follower is
	// atomic because live reconfiguration flips it (Promote/Demote)
	// while readers check it lock-free. replBuf is the in-memory
	// retention window followers stream from; it is appended under wmu
	// in commit order but read by ReplicationBatch without it, hence its
	// own lock. appliedSeq mirrors walSeq for lock-free readers, and
	// seqCh is the watch channel WaitForSeq parks on — closed and
	// replaced on every advance.
	follower   atomic.Bool
	replRetain int
	replMu     sync.Mutex
	replBuf    []ReplRecord // guarded by replMu
	appliedSeq atomic.Uint64
	seqMu      sync.Mutex
	seqCh      chan struct{} // guarded by seqMu

	// Eager-maintenance worker lifecycle (StartAutoMaintain).
	amu      sync.Mutex
	autoKick chan struct{} // guarded by amu
	autoStop chan struct{} // guarded by amu
	autoDone chan struct{} // guarded by amu
	autoRuns atomic.Uint64
	autoErrs atomic.Uint64

	// Planner observability, cumulative over the system's lifetime (they
	// deliberately survive snapshot replacement so /metrics trends are
	// monotone): scan counters shared by every snapshot's planner, and
	// prepared-statement cache outcomes.
	counters   *quel.Counters
	planHits   atomic.Int64
	planMisses atomic.Int64
}

// snapshot is one immutable published state of the system. Everything
// reachable from it is frozen once installed, except the dictionary's
// internally locked domain caches and the statement cache.
type snapshot struct {
	version uint64
	cat     *storage.Catalog
	d       *dict.Dictionary
	// q plans and runs this snapshot's SELECTs through one planner,
	// which owns the snapshot's secondary indexes: relations are
	// immutable once the snapshot is published, so indexes built by one
	// query serve all later queries on the same version.
	q *query.Processor
	// counters are the system's cumulative planner counters, handed on
	// to every successor snapshot's planner.
	counters *quel.Counters
	inf      *infer.Processor
	// full is the complete rule base including stale rules; the
	// dictionary's rule set (what inference serves) is full minus the
	// rules maint marks stale.
	full *rules.Set
	// maint classifies full: which rules a mutation has contradicted
	// (stale) or loosened (refinable) since the last (re-)induction.
	maint *maintain.State
	// stmts caches each statement's plan, inference result and answers
	// for this snapshot, keyed by normalized SQL, so none of them
	// outlives the data and rules that justified it.
	stmts *stmtCache
}

func newSnapshot(version uint64, cat *storage.Catalog, d *dict.Dictionary, counters *quel.Counters) *snapshot {
	return &snapshot{
		version:  version,
		cat:      cat,
		d:        d,
		q:        query.New(cat, counters),
		counters: counters,
		inf:      infer.New(d),
		full:     d.Rules(),
		maint:    maintain.NewState(),
		stmts:    newStmtCache(),
	}
}

// newDictionary builds a snapshot's dictionary over cat: decls applied
// (none when nil), and set as its rule base — or, when set is nil, the
// rule base cat's rule relations encode (empty when it holds none).
func newDictionary(cat *storage.Catalog, decls *dict.Decls, set *rules.Set) (*dict.Dictionary, error) {
	d := dict.New(cat)
	if decls != nil {
		if err := d.Apply(decls); err != nil {
			return nil, fmt.Errorf("core: rebuild dictionary: %w", err)
		}
	}
	switch {
	case set != nil:
		d.SetRules(set)
	case cat.Has(rules.RuleRelName):
		if err := d.LoadRules(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// New assembles a system over a catalog and its dictionary. The catalog
// and dictionary become version 1's snapshot; mutate them only before
// the system starts serving concurrent callers.
func New(cat *storage.Catalog, d *dict.Dictionary) *System {
	return newSystem(cat, d, maintain.NewState())
}

// newSystem is New with the maintenance state of version 1: all-valid,
// or what a loaded database restored (takeWithheld).
func newSystem(cat *storage.Catalog, d *dict.Dictionary, maint *maintain.State) *System {
	counters := new(quel.Counters)
	sn := newSnapshot(1, cat, d, counters)
	sn.maint = maint
	return &System{
		snap:         sn,
		fs:           fault.OS,
		clock:        fault.Wall,
		degradeAfter: defaultDegradeAfter,
		seqCh:        make(chan struct{}),
		counters:     counters,
	}
}

// current returns the snapshot serving reads right now.
func (s *System) current() *snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap
}

// install publishes a new snapshot; all subsequent reads see it.
func (s *System) install(sn *snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = sn
}

// Version returns the current snapshot's version. It starts at 1 and
// increases by one each time Induce installs a new rule base, so callers
// can tell which knowledge state produced an answer.
func (s *System) Version() uint64 { return s.current().version }

// Catalog returns the catalog backing the current snapshot.
func (s *System) Catalog() *storage.Catalog { return s.current().cat }

// Dictionary returns the intelligent data dictionary of the current
// snapshot.
func (s *System) Dictionary() *dict.Dictionary { return s.current().d }

// Rules returns the current snapshot's rule base.
func (s *System) Rules() *rules.Set { return s.current().d.Rules() }

// Induce runs the Inductive Learning Subsystem over the database and
// atomically installs the result as a new snapshot: over a shallow copy
// of the catalog and a fresh dictionary rebuilt from the declarations,
// every candidate pair is induced, the rule base is stored into the copy
// as rule relations, and the version advances. Queries in flight keep
// the snapshot they started with; queries issued after Induce returns
// see the new rules. Induce holds the writer lock, so writes wait for
// it; concurrent Query calls are never blocked.
func (s *System) Induce(opts induct.Options) (*rules.Set, error) {
	return s.InduceContext(context.Background(), opts)
}

// InduceContext is Induce with a deadline: the context is checked at
// the stage boundaries of the induction pipeline (after acquiring the
// writer lock, within and after induction), so a caller-imposed timeout
// or cancellation abandons the work at the next boundary instead of
// installing a snapshot nobody is waiting for.
func (s *System) InduceContext(ctx context.Context, opts induct.Options) (*rules.Set, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, err := s.reinduceLocked(ctx, opts, true); err != nil {
		return nil, err
	}
	// Still under wmu: the current snapshot is the one just installed.
	return s.current().full, nil
}

// Response is the result of one query: the conventional extensional
// answer plus the derived intensional answer, stamped with the snapshot
// version that produced it. Responses may be served from a per-snapshot
// cache and shared between callers — treat every part of a Response,
// including the extensional relation, as immutable.
type Response struct {
	Version     uint64
	Extensional *relation.Relation
	Analysis    *query.Analysis
	Inference   *infer.Result
	Intensional *answer.Answer

	bodies *bodyMemo // the statement's encoded bodies; nil outside the cache
}

// Body returns the response's encoded body for key, calling encode to
// produce it. A response served from the statement cache keeps the body
// from the second request for a key on, for as long as its cache entry
// lives; any other response encodes every time. The caller must give
// each distinct encoding of a response its own key.
func (r *Response) Body(key string, encode func() ([]byte, error)) ([]byte, error) {
	if r.bodies == nil {
		return encode()
	}
	return r.bodies.get(bodyKey{r.Intensional.Mode, key}, encode)
}

// Query executes a SQL query, returning both answer forms. mode selects
// which inference direction the rendered intensional answer reports.
func (s *System) Query(sql string, mode answer.Mode) (*Response, error) {
	return s.QueryContext(context.Background(), sql, mode)
}

// QueryContext is Query with a deadline: the context is threaded into
// the streaming executor, which checks it at batch boundaries, so a
// caller-imposed timeout abandons a long scan mid-stream rather than
// only between pipeline stages. A statement is planned, inferred and
// executed at most once per snapshot; each mode's response is rendered
// once and then served from the statement's cache entry — a repeated
// query against an unchanged snapshot re-materialises nothing.
func (s *System) QueryContext(ctx context.Context, sql string, mode answer.Mode) (*Response, error) {
	sn := s.current()
	key := NormalizeSQL(sql)
	if st := sn.stmts.get(key); st != nil {
		if r := st.rendered(mode); r != nil {
			return r, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := s.prepare(sn, key)
	if err != nil {
		return nil, err
	}
	return st.respond(ctx, sn.version, mode)
}

// declsFile is the database directory entry holding the dictionary
// declarations.
const declsFile = "dictionary.json"

// walSeqFile is the database directory entry recording the sequence
// number of the last WAL record whose effects the directory contains.
// Replay skips records at or below it, making recovery idempotent: a
// crash between a checkpoint's atomic save and its log reset replays a
// log whose every record the catalog already holds, and each is
// recognised and skipped instead of double-applied.
const walSeqFile = "walseq.json"

// walSeqRecord is the JSON shape of walSeqFile. Version records the
// snapshot version the directory holds, so a reopened system resumes
// numbering where it left off instead of restarting at 1 — the property
// that keeps a leader's version numbers aligned with its followers'
// across restarts. Zero (files written before the field existed) means
// "whatever Open assigns".
type walSeqRecord struct {
	Seq     uint64 `json:"seq"`
	Version uint64 `json:"version,omitempty"`
}

// readWalSeq loads the directory's checkpointed WAL sequence and
// snapshot version; a missing file (a directory saved by a non-durable
// system, or predating the format) means nothing is recorded as
// applied.
func readWalSeq(dir string) (seq, version uint64, err error) {
	data, err := os.ReadFile(filepath.Join(dir, walSeqFile))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: read wal sequence: %w", err)
	}
	var rec walSeqRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return 0, 0, fmt.Errorf("core: parse %s: %w", walSeqFile, err)
	}
	return rec.Seq, rec.Version, nil
}

// Save writes the database, its rule relations, and the dictionary
// declarations to a directory — the complete relocatable unit of
// Section 5.2.2. The whole directory is written atomically (built in a
// temporary sibling and swapped into place), so a crash mid-save never
// corrupts a previously saved database. Stale rules are not persisted:
// the serving rule set is what Save stores, beside the keys of the
// schemes awaiting re-induction, and a load after a crash re-derives
// later staleness deterministically from the replayed WAL.
//
// On a durable system, saving over its own directory is a checkpoint:
// the WAL is truncated in the same critical section, because the saved
// directory already contains every logged mutation. Own-directory
// detection compares inodes (os.SameFile) after the save, so aliases —
// relative paths, symlinked parents — are caught too. The comparison
// failing open is safe: every saved directory records the WAL sequence
// it contains, so a reopen skips the already-applied records instead of
// double-applying them; a missed reset costs log space, not
// correctness.
func (s *System) Save(dir string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.saveLocked(dir); err != nil {
		return err
	}
	if s.log != nil && sameDir(dir, s.dir) {
		return s.log.Reset()
	}
	return nil
}

// sameDir reports whether two paths name the same directory on disk.
// Called after the save, when both paths exist if they alias each
// other; any stat failure means they cannot be the same live directory.
func sameDir(a, b string) bool {
	if filepath.Clean(a) == filepath.Clean(b) {
		return true
	}
	ai, err := os.Stat(a)
	if err != nil {
		return false
	}
	bi, err := os.Stat(b)
	if err != nil {
		return false
	}
	return os.SameFile(ai, bi)
}

// saveLocked writes the current snapshot to dir. Caller holds wmu.
//
//ilint:locked wmu
func (s *System) saveLocked(dir string) error {
	sn := s.current()
	cat, err := persisted(sn)
	if err != nil {
		return err
	}
	return storage.WriteAtomicFS(s.fs, dir, func(tmp string) error {
		if err := cat.WriteIntoFS(s.fs, tmp); err != nil {
			return err
		}
		data, err := dict.MarshalDecls(sn.d.Decls())
		if err != nil {
			return err
		}
		if err := s.fs.WriteFile(filepath.Join(tmp, declsFile), data, 0o644); err != nil {
			return fmt.Errorf("core: save declarations: %w", err)
		}
		seq, err := json.Marshal(walSeqRecord{Seq: s.walSeq, Version: sn.version})
		if err != nil {
			return fmt.Errorf("core: encode wal sequence: %w", err)
		}
		if err := s.fs.WriteFile(filepath.Join(tmp, walSeqFile), seq, 0o644); err != nil {
			return fmt.Errorf("core: save wal sequence: %w", err)
		}
		return nil
	})
}

// Open loads a database directory written by Save: catalog, dictionary
// declarations, and (when present) the induced rule base.
func Open(dir string) (*System, error) {
	if err := storage.RecoverAtomic(dir); err != nil {
		return nil, err
	}
	cat, err := storage.Load(dir)
	if err != nil {
		return nil, err
	}
	var decls *dict.Decls
	if data, err := os.ReadFile(filepath.Join(dir, declsFile)); err == nil {
		if decls, err = dict.UnmarshalDecls(data); err != nil {
			return nil, err
		}
	}
	maint, err := takeWithheld(cat)
	if err != nil {
		return nil, err
	}
	d, err := newDictionary(cat, decls, nil)
	if err != nil {
		return nil, err
	}
	return newSystem(cat, d, maint), nil
}

// persisted is the one decision of which rules leave the process, for
// Save and BootstrapArchive alike: the snapshot's catalog with its rule
// relations re-encoded from the serving set sn.d.Rules(), an empty set
// included, so rules the snapshot withholds never reach disk or the
// wire. The schemes awaiting re-induction travel beside them, as the
// maintain.WithheldRelName relation, so the loader (takeWithheld) still
// re-induces them. The result is a shallow copy; sn's own catalog is not
// written.
func persisted(sn *snapshot) (*storage.Catalog, error) {
	cat := sn.cat.ShallowClone()
	d := dict.New(cat)
	d.SetRules(sn.d.Rules())
	if _, err := d.StoreRules(); err != nil {
		return nil, err
	}
	if r := sn.maint.WithheldRelation(sn.full); r != nil {
		cat.Put(r)
	}
	return cat, nil
}

// takeWithheld removes the withheld-schemes relation persisted wrote
// from a loaded catalog, and returns the maintenance state it encodes:
// all-valid when there is none.
func takeWithheld(cat *storage.Catalog) (*maintain.State, error) {
	if !cat.Has(maintain.WithheldRelName) {
		return maintain.NewState(), nil
	}
	r, err := cat.Get(maintain.WithheldRelName)
	if err != nil {
		return nil, err
	}
	if err := cat.Drop(maintain.WithheldRelName); err != nil {
		return nil, err
	}
	return maintain.Restore(r)
}
