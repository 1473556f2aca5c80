// Package server exposes a core.System over a stdlib-only HTTP/JSON API
// — the serving layer that promotes the paper's one-user-at-a-time
// prototype to a concurrent network service. Endpoints:
//
//	POST /query    SQL in, extensional + intensional answer out
//	POST /explain  SQL in, the typed execution plan out — access paths
//	               with cardinality estimates, join order, and the
//	               semantic rewrites the rule base contributed — without
//	               executing the query
//	POST /mutate   INSERT/DELETE/UPDATE batch, applied atomically
//	POST /induce   re-run rule induction, install a new snapshot
//	POST /maintain re-induce only the schemes holding stale rules
//	GET  /rules    the current rule base with per-rule staleness
//	GET  /healthz  liveness plus version/relation/rule counts
//	GET  /metrics  per-endpoint request counters and latency histograms,
//	               plus the system section: snapshot version, WAL size,
//	               and per-relationship rule staleness
//
// Every request runs under a deadline; /query relies on core's
// snapshot-swap concurrency contract, so any number of queries proceed
// while /induce builds and atomically installs a new rule base, and a
// /mutate that contradicts a rule installs a snapshot whose inference
// set already withholds it. No dependencies beyond the standard
// library.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intensional/internal/answer"
	"intensional/internal/cluster"
	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/maintain"
	"intensional/internal/replica"
	"intensional/internal/rules"
)

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// QueryTimeout bounds /query, /rules, /healthz and /metrics requests
	// (default 10s).
	QueryTimeout time.Duration
	// InduceTimeout bounds /induce requests, which re-run the full
	// induction pipeline (default 2m).
	InduceTimeout time.Duration
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// ErrorLog, when non-nil, receives panic stack traces and other
	// internal failures, one entry per line group.
	ErrorLog io.Writer
	// MaxInFlight bounds concurrently executing handlers (default 64).
	// /healthz and /metrics are exempt, so the system stays observable
	// while saturated.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (default
	// 2×MaxInFlight). When the queue is full, requests are refused
	// immediately with 429 and a Retry-After header.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before a 503 (default 1s).
	QueueWait time.Duration
	// LeaderAddr is the leader's base URL. Set on followers so write
	// requests are refused with 421 pointing at the node that accepts
	// them.
	LeaderAddr string
	// LeaderAddrFunc, when non-nil, supplies the leader's address
	// dynamically — a live-reconfigurable node re-points mid-flight, so
	// the 421 Location must track it. Takes precedence over LeaderAddr.
	LeaderAddrFunc func() string
	// FollowerStatus, when non-nil, supplies the replica loop's
	// progress for /healthz and /metrics on a follower.
	FollowerStatus func() cluster.FollowerStatus
	// Replica is the process's shared replication tracker: it serves
	// /replica/wal and /replica/snapshot and holds the fan-out table
	// reported in /metrics. Nil means the server builds its own with
	// default chunking; pass one to share it with a replica.Node (the
	// demotion fence consults the same acknowledgements /metrics shows).
	Replica *replica.Leader
	// ReplicationTimeout bounds /replica/wal long polls and
	// /replica/snapshot transfers on the leader (default 75s — above
	// the follower's poll wait, so quiet polls park instead of
	// churning 504s).
	ReplicationTimeout time.Duration
}

func (o Options) queryTimeout() time.Duration {
	if o.QueryTimeout > 0 {
		return o.QueryTimeout
	}
	return 10 * time.Second
}

func (o Options) induceTimeout() time.Duration {
	if o.InduceTimeout > 0 {
		return o.InduceTimeout
	}
	return 2 * time.Minute
}

func (o Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 64
}

func (o Options) maxQueue() int {
	if o.MaxQueue > 0 {
		return o.MaxQueue
	}
	return 2 * o.maxInFlight()
}

func (o Options) queueWait() time.Duration {
	if o.QueueWait > 0 {
		return o.QueueWait
	}
	return time.Second
}

func (o Options) replicationTimeout() time.Duration {
	if o.ReplicationTimeout > 0 {
		return o.ReplicationTimeout
	}
	return 75 * time.Second
}

// Server serves intensional answers over HTTP. It is safe for concurrent
// use; all shared state lives in the underlying core.System (snapshot
// contract) and in the internally locked metrics registry.
type Server struct {
	sys   *core.System
	opts  Options
	rep   *replica.Leader
	met   *metrics
	logMu sync.Mutex // serialises access- and error-log lines
	slow  func()     // test hook: injected latency at handler entry

	sem    chan struct{} // in-flight slots; len(sem) = executing handlers
	queued atomic.Int64  // requests waiting for a slot

	queueFull    atomic.Uint64 // 429s: queue already full
	queueTimeout atomic.Uint64 // 503s: no slot within QueueWait
	panics       atomic.Uint64 // handler panics converted to 500s
}

// New builds a Server over a system.
func New(sys *core.System, opts Options) *Server {
	rep := opts.Replica
	if rep == nil {
		rep = replica.NewLeader(sys, replica.LeaderOptions{})
	}
	return &Server{
		sys:  sys,
		opts: opts,
		rep:  rep,
		met:  newMetrics(),
		sem:  make(chan struct{}, opts.maxInFlight()),
	}
}

// Handler returns the route table with admission, timeout, panic
// recovery, metrics, and access-log middleware applied. Method
// mismatches yield 405, unknown paths 404. /healthz and /metrics skip
// admission control so the system stays observable while saturated.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, d time.Duration, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, s.admit(s.withTimeout(d, h))))
	}
	observe := func(pattern string, d time.Duration, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, s.withTimeout(d, h)))
	}
	qt := s.opts.queryTimeout()
	route("POST /query", qt, s.handleQuery)
	route("POST /explain", qt, s.handleExplain)
	route("POST /mutate", qt, s.handleMutate)
	route("POST /induce", s.opts.induceTimeout(), s.handleInduce)
	route("POST /maintain", s.opts.induceTimeout(), s.handleMaintain)
	route("GET /rules", qt, s.handleRules)
	observe("GET /healthz", qt, s.handleHealthz)
	observe("GET /metrics", qt, s.handleMetrics)
	// Replication endpoints skip admission (a parked long poll must not
	// hold an execution slot) and run under their own, longer deadline.
	// The handlers themselves refuse non-durable and follower systems.
	rt := s.opts.replicationTimeout()
	observe("GET /replica/wal", rt, s.rep.WALHandler().ServeHTTP)
	observe("GET /replica/snapshot", rt, s.rep.SnapshotHandler().ServeHTTP)
	return mux
}

// maxBodyBytes bounds request bodies; queries and induction options are
// tiny, so anything larger is a client error.
const maxBodyBytes = 1 << 20

// decodeJSON reads a JSON request body, exactly one value, into dst.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid request body: data after the JSON value")
	}
	return nil
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, data)
}

// writeBody writes an encoded JSON body as the response with the given
// status.
func writeBody(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(data); err != nil {
		// The client went away; there is no one left to tell.
		return
	}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// parseMode maps the request's mode string to its canonical name, the
// inference direction, and the response sections to include.
func parseMode(mode string) (canon string, m answer.Mode, wantExt, wantInt bool, err error) {
	switch canon = strings.ToLower(strings.TrimSpace(mode)); canon {
	case "", "combined":
		return "combined", answer.Combined, true, true, nil
	case "extensional":
		return canon, answer.Combined, true, false, nil
	case "intensional":
		return canon, answer.Combined, false, true, nil
	case "forward":
		return canon, answer.ForwardOnly, true, true, nil
	case "backward":
		return canon, answer.BackwardOnly, true, true, nil
	default:
		return "", 0, false, false, fmt.Errorf("unknown mode %q (want extensional, intensional, combined, forward, or backward)", mode)
	}
}

// parseToken extracts the WAL sequence from a read-your-writes token,
// as issued in mutate responses.
func parseToken(tok string) (uint64, error) {
	if len(tok) > 1 && tok[0] == 'w' {
		if seq, err := strconv.ParseUint(tok[1:], 10, 64); err == nil {
			return seq, nil
		}
	}
	return 0, fmt.Errorf("malformed token %q (want \"w<seq>\" from a mutate response)", tok)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.slow != nil {
		s.slow()
	}
	var req queryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	canon, mode, wantExt, wantInt, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if tok := strings.TrimSpace(req.Token); tok != "" {
		// Read-your-writes: hold the query until this node has applied
		// the tokened write, or 504 so the client can retry — never
		// silently serve an older snapshot.
		seq, err := parseToken(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if err := s.sys.WaitForSeq(r.Context(), seq); err != nil {
			writeError(w, http.StatusGatewayTimeout, fmt.Sprintf(
				"write w%d not yet applied on this replica (at w%d); retry or query the leader",
				seq, s.sys.WalSeq()))
			return
		}
	}
	resp, err := s.sys.QueryContext(r.Context(), req.SQL, mode)
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			// The deadline middleware already answered 504; this write
			// lands in a discarded buffer.
			writeError(w, http.StatusGatewayTimeout, "query abandoned at deadline")
			return
		}
		// Parse, binding, and inference errors are all properties of the
		// request against the current schema: client errors.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The body is a function of the response and the canonical mode, so
	// a repeated statement is served as the bytes stored on its entry.
	data, err := resp.Body(canon, func() ([]byte, error) {
		return json.Marshal(toQueryJSON(resp, canon, wantExt, wantInt))
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	writeBody(w, http.StatusOK, data)
}

// handleExplain prepares (and caches) the statement exactly as /query
// would and returns its plan without running it: the plan shown is the
// plan that executes.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if s.slow != nil {
		s.slow()
	}
	var req explainRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	pl, err := s.sys.Explain(req.SQL)
	if err != nil {
		// Parse, binding, and planning errors are properties of the
		// request against the current schema: client errors.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, explainResponse{Version: s.sys.Version(), Plan: pl})
}

// refuseDegraded answers 503 when the system is in read-only degraded
// mode and reports whether it did. Mutating endpoints call it up front
// so clients get a clear signal instead of a doomed attempt; /query is
// deliberately not gated — serving reads is the point of the mode.
func (s *Server) refuseDegraded(w http.ResponseWriter) bool {
	st := s.sys.Degraded()
	if st == nil {
		return false
	}
	w.Header().Set("Retry-After", "30")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("system is read-only (degraded since %s): %s",
			st.Since.UTC().Format(time.RFC3339), st.Reason))
	return true
}

// leaderAddr resolves where writes currently go: the dynamic source
// when wired (it tracks live reconfiguration), else the static option.
func (s *Server) leaderAddr() string {
	if s.opts.LeaderAddrFunc != nil {
		return s.opts.LeaderAddrFunc()
	}
	return s.opts.LeaderAddr
}

// writeNotLeader answers 421 Misdirected Request — the request is valid
// but this node does not accept writes — with the leader's address when
// known, so clients can redirect.
func (s *Server) writeNotLeader(w http.ResponseWriter, err error) {
	msg := err.Error()
	if addr := s.leaderAddr(); addr != "" {
		w.Header().Set("Location", addr)
		msg += " at " + addr
	}
	writeError(w, http.StatusMisdirectedRequest, msg)
}

// refuseFollower answers 421 when this node is a follower replica and
// reports whether it did. Write endpoints call it up front; the core
// layer enforces the same fence (ErrNotLeader), this just answers
// before parsing a doomed request.
func (s *Server) refuseFollower(w http.ResponseWriter) bool {
	if !s.sys.Follower() {
		return false
	}
	// Resolving the leader address can block behind a role transition in
	// flight (the node mutex is held across promotion). If it comes back
	// empty, re-check the role: when the transition made this node the
	// leader, serve the request instead of answering a Location-less 421.
	if s.leaderAddr() == "" && !s.sys.Follower() {
		return false
	}
	s.writeNotLeader(w, core.ErrNotLeader)
	return true
}

func (s *Server) handleInduce(w http.ResponseWriter, r *http.Request) {
	if s.slow != nil {
		s.slow()
	}
	if s.refuseFollower(w) || s.refuseDegraded(w) {
		return
	}
	opts, ok := induceOptions(w, r)
	if !ok {
		return
	}
	start := time.Now()
	set, err := s.sys.InduceContext(r.Context(), opts)
	if err != nil {
		if !s.writeCommitError(w, r, err) {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, induceResponse{
		Version:   s.sys.Version(),
		Rules:     set.Len(),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// induceOptions decodes and validates an /induce or /maintain body. On a
// bad body it answers 400 and returns false.
func induceOptions(w http.ResponseWriter, r *http.Request) (induct.Options, bool) {
	var req induceRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return induct.Options{}, false
	}
	if req.Nc < 0 || req.NcFraction < 0 || req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "nc, ncFraction, and workers must be non-negative")
		return induct.Options{}, false
	}
	return induct.Options{Nc: req.Nc, NcFraction: req.NcFraction, Workers: req.Workers}, true
}

// writeCommitError answers the errors every commit step (ApplyBatch,
// Induce, Maintain) shares and reports whether err was one of them: the
// request's deadline or cancellation (504), a follower (421), read-only
// degraded mode (503 with Retry-After) and a failed WAL append (500).
// Any other error is the caller's to answer.
func (s *Server) writeCommitError(w http.ResponseWriter, r *http.Request, err error) bool {
	switch {
	case r.Context().Err() != nil && errors.Is(err, r.Context().Err()):
		writeError(w, http.StatusGatewayTimeout, "request abandoned at deadline")
	case errors.Is(err, core.ErrNotLeader):
		// Checked before ErrReadOnly, which it wraps: a follower is
		// permanently read-only for clients — redirect, don't retry.
		s.writeNotLeader(w, err)
	case errors.Is(err, core.ErrReadOnly):
		// The system degraded between the up-front check and the commit
		// (or during this very request).
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, core.ErrLogFailed):
		// Includes core.ErrLogIndeterminate, where a failed fsync leaves
		// the outcome unknown until the next recovery; the body carries
		// that wording.
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		return false
	}
	return true
}

// handleMutate applies a DML batch atomically through the write path.
// The response is sent only after the batch is durable (on a durable
// system) and the new snapshot — with any contradicted rules withheld —
// is installed.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.slow != nil {
		s.slow()
	}
	if s.refuseFollower(w) || s.refuseDegraded(w) {
		return
	}
	var req mutateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	stmts := req.Stmts
	if strings.TrimSpace(req.SQL) != "" {
		if len(stmts) > 0 {
			writeError(w, http.StatusBadRequest, "give either sql or stmts, not both")
			return
		}
		stmts = []string{req.SQL}
	}
	if len(stmts) == 0 {
		writeError(w, http.StatusBadRequest, "missing sql or stmts")
		return
	}
	res, err := s.sys.ApplyBatch(r.Context(), stmts)
	if err != nil {
		// A committed batch with a failed auto-checkpoint returns nil
		// error and reports it in res.CheckpointErr. Errors outside the
		// commit step's — parse errors, unknown tables/columns, arity and
		// type mismatches — are properties of the request.
		if !s.writeCommitError(w, r, err) {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	out := mutateResponse{
		Version:      res.Version,
		Mutations:    make([]mutationJSON, 0, len(res.Mutations)),
		Stale:        res.Stale,
		Refinable:    res.Refinable,
		Checkpointed: res.Checkpointed,
		WalBytes:     s.sys.WalSize(),
		Warning:      res.CheckpointErr,
	}
	if res.Seq > 0 {
		out.WalSeq = res.Seq
		out.Token = fmt.Sprintf("w%d", res.Seq)
	}
	for _, m := range res.Mutations {
		out.Mutations = append(out.Mutations, mutationJSON{
			Kind:     m.Kind,
			Table:    m.Table,
			Inserted: len(m.Inserted),
			Deleted:  len(m.Deleted),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMaintain re-induces exactly the schemes holding stale or
// refinable rules — the lazy counterpart to the -auto-maintain worker.
func (s *Server) handleMaintain(w http.ResponseWriter, r *http.Request) {
	if s.slow != nil {
		s.slow()
	}
	if s.refuseFollower(w) || s.refuseDegraded(w) {
		return
	}
	opts, ok := induceOptions(w, r)
	if !ok {
		return
	}
	start := time.Now()
	res, err := s.sys.Maintain(r.Context(), opts)
	if err != nil {
		if !s.writeCommitError(w, r, err) {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, maintainResponse{
		Version:   res.Version,
		Schemes:   res.Schemes,
		Dropped:   res.Dropped,
		Added:     res.Added,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleRules(w http.ResponseWriter, _ *http.Request) {
	full, maint, version := s.sys.RuleStatus()
	stale, refinable := maint.Counts()
	out := rulesResponse{
		Version:        version,
		Count:          full.Len(),
		Serving:        full.Len() - stale,
		Stale:          stale,
		Refinable:      refinable,
		PendingSchemes: len(maint.SchemeKeys(full)),
	}
	for _, r := range full.Rules() {
		inf := maint.Info(r.ID)
		out.Rules = append(out.Rules, ruleJSON{
			ID:              r.ID,
			Rule:            r.String(),
			Support:         r.Support,
			Status:          inf.Status.String(),
			Stale:           inf.Status == maintain.Stale,
			Counterexamples: inf.Counterexamples,
			Definite:        inf.Definite,
			Example:         inf.Example,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	full, maint, version := s.sys.RuleStatus()
	stale, _ := maint.Counts()
	out := healthzResponse{
		OK:             true,
		Mode:           "ok",
		Version:        version,
		Relations:      s.sys.Catalog().Len(),
		Rules:          s.sys.Rules().Len(),
		Stale:          stale,
		PendingSchemes: len(maint.SchemeKeys(full)),
		Durable:        s.sys.Durable(),
		WalSeq:         s.sys.WalSeq(),
		Replication:    s.replicationStatus(),
	}
	if rep := out.Replication; rep != nil && rep.State != "" {
		// A follower's consistency state is its health mode: "ready" once
		// it has caught the leader's WAL position, "catching-up",
		// "bootstrapping", or "disconnected" before that. It serves reads
		// throughout.
		out.Mode = "follower:" + rep.State
	}
	if st := s.sys.Degraded(); st != nil {
		// Still OK for liveness — the process serves queries — but the
		// mode tells operators mutations are being refused.
		out.Mode = "degraded:read-only"
		out.Degraded = true
		out.DegradedReason = st.Reason
		out.DegradedSince = st.Since.UTC().Format(time.RFC3339)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.met.snapshot()
	snap.System = s.systemMetrics()
	snap.Server = s.serverMetrics()
	snap.Planner = s.plannerMetrics()
	snap.Replication = s.replicationStatus()
	writeJSON(w, http.StatusOK, snap)
}

// replicationStatus builds the replication section of /healthz and
// /metrics: role and durable WAL position on every durable node, plus
// the follower loop's progress when a status provider is wired.
// Non-durable systems have nothing to replicate and report nothing.
func (s *Server) replicationStatus() *replicationJSON {
	if !s.sys.Durable() {
		return nil
	}
	cur := s.sys.WalSeq()
	out := &replicationJSON{Role: string(cluster.RoleLeader), WalSeq: cur}
	if s.sys.Follower() {
		out.Role = string(cluster.RoleFollower)
		out.LeaderAddr = s.leaderAddr()
	}
	if s.opts.FollowerStatus != nil {
		st := s.opts.FollowerStatus()
		out.State = st.State
		out.LeaderSeq = st.LeaderSeq
		out.Lag = st.Lag()
		out.Bootstraps = st.Bootstraps
		out.RecordsApplied = st.RecordsApplied
		out.LastError = st.LastError
		out.BootstrapChunks = st.BootstrapChunks
		out.BootstrapTotalChunks = st.BootstrapTotalChunks
		if !st.LastContact.IsZero() {
			out.LastContact = st.LastContact.UTC().Format(time.RFC3339)
		}
	}
	// The fan-out side: whoever streams from this node, and what their
	// bootstraps cost. Populated on leaders and on followers that other
	// replicas chain from.
	for _, fi := range s.rep.Followers() {
		fj := followerJSON{
			ID:              fi.ID,
			AckedSeq:        fi.AckedSeq,
			BootstrapChunks: fi.BootstrapChunks,
			BootstrapBytes:  fi.BootstrapBytes,
		}
		if cur > fi.AckedSeq {
			fj.Lag = cur - fi.AckedSeq
		}
		if !fi.LastContact.IsZero() {
			fj.LastContact = fi.LastContact.UTC().Format(time.RFC3339)
		}
		out.Followers = append(out.Followers, fj)
	}
	out.ChunkRequests = s.rep.ChunkRequests()
	out.ChunkBytes = s.rep.ChunkBytes()
	out.SnapshotBuilds = s.rep.SnapshotBuilds()
	return out
}

// systemMetrics reads one consistent snapshot of the write-path state:
// version, rule staleness (totals and per relationship), and WAL size.
func (s *Server) systemMetrics() systemJSON {
	full, maint, version := s.sys.RuleStatus()
	stale, refinable := maint.Counts()
	runs, errs := s.sys.AutoMaintainStats()
	out := systemJSON{
		Version:          version,
		Rules:            full.Len(),
		Serving:          full.Len() - stale,
		Stale:            stale,
		Refinable:        refinable,
		Durable:          s.sys.Durable(),
		WalBytes:         s.sys.WalSize(),
		WalSeq:           s.sys.WalSeq(),
		AutoMaintainRuns: runs,
		AutoMaintainErrs: errs,
	}
	if st := s.sys.Degraded(); st != nil {
		out.Degraded = true
		out.DegradedReason = st.Reason
	}
	for _, r := range full.Rules() {
		if maint.Info(r.ID).Status == maintain.Valid {
			continue
		}
		if out.StaleByRelationship == nil {
			out.StaleByRelationship = make(map[string]int)
		}
		out.StaleByRelationship[relationshipKey(r)]++
	}
	return out
}

// plannerMetrics projects the core planner counters onto the wire shape.
func (s *Server) plannerMetrics() plannerJSON {
	st := s.sys.PlannerStats()
	out := plannerJSON{
		FullScans:       st.FullScans,
		IndexScans:      st.IndexScans,
		PlanCacheHits:   st.PlanCacheHits,
		PlanCacheMisses: st.PlanCacheMisses,
		CachedPlans:     st.CachedPlans,
		CachedBodyBytes: st.CachedBodyBytes,
	}
	if total := st.PlanCacheHits + st.PlanCacheMisses; total > 0 {
		out.PlanCacheHitRate = float64(st.PlanCacheHits) / float64(total)
	}
	return out
}

// relationshipKey names the relation or join a rule ranges over: the
// distinct relation names of its clauses, sorted and joined with "+".
func relationshipKey(r *rules.Rule) string {
	seen := map[string]bool{}
	var names []string
	add := func(rel string) {
		u := strings.ToUpper(rel)
		if !seen[u] {
			seen[u] = true
			names = append(names, u)
		}
	}
	for _, c := range r.LHS {
		add(c.Attr.Relation)
	}
	add(r.RHS.Attr.Relation)
	sort.Strings(names)
	return strings.Join(names, "+")
}
