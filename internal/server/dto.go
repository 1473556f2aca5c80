package server

import (
	"intensional/internal/core"
	"intensional/internal/infer"
	"intensional/internal/plan"
	"intensional/internal/relation"
)

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL string `json:"sql"`
	// Mode selects the response shape and inference direction:
	// "extensional", "intensional", "combined" (default), "forward",
	// or "backward".
	Mode string `json:"mode"`
	// Token is a read-your-writes token from an earlier mutate response
	// ("w<seq>"). The query waits until this node has applied that WAL
	// sequence before reading; 504 if it does not arrive in time. On the
	// leader the wait is trivially satisfied.
	Token string `json:"token,omitempty"`
}

// explainRequest is the POST /explain body.
type explainRequest struct {
	SQL string `json:"sql"`
}

// explainResponse is the POST /explain response: the typed plan the
// executor would run for this statement on the stamped snapshot —
// access paths with cardinality estimates, join order, and the
// semantic rewrites the rule base contributed.
type explainResponse struct {
	Version uint64     `json:"version"`
	Plan    *plan.Plan `json:"plan"`
}

// plannerJSON is the GET /metrics planner section: cumulative scan
// counters and prepared-statement cache outcomes.
type plannerJSON struct {
	FullScans       int64 `json:"fullScans"`
	IndexScans      int64 `json:"indexScans"`
	PlanCacheHits   int64 `json:"planCacheHits"`
	PlanCacheMisses int64 `json:"planCacheMisses"`
	// PlanCacheHitRate is hits/(hits+misses); 0 before any preparation.
	PlanCacheHitRate float64 `json:"planCacheHitRate"`
	CachedPlans      int     `json:"cachedPlans"`
	// CachedBodyBytes is the total length of the /query bodies the
	// current snapshot's statement cache holds, read when /metrics is.
	CachedBodyBytes int64 `json:"cachedBodyBytes"`
}

// induceRequest is the POST /induce body, mirroring induct.Options.
type induceRequest struct {
	Nc         int     `json:"nc"`
	NcFraction float64 `json:"ncFraction"`
	Workers    int     `json:"workers"`
}

type induceResponse struct {
	Version   uint64  `json:"version"`
	Rules     int     `json:"rules"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// maintainResponse is the POST /maintain response: the schemes that
// were re-induced and the rule turnover.
type maintainResponse struct {
	Version   uint64   `json:"version"`
	Schemes   []string `json:"schemes,omitempty"`
	Dropped   int      `json:"dropped"`
	Added     int      `json:"added"`
	ElapsedMS float64  `json:"elapsedMs"`
}

// systemJSON is the GET /metrics system section: one consistent
// snapshot of the write-path state.
type systemJSON struct {
	Version   uint64 `json:"version"`
	Rules     int    `json:"rules"`
	Serving   int    `json:"serving"`
	Stale     int    `json:"stale"`
	Refinable int    `json:"refinable"`
	// StaleByRelationship counts non-valid rules per relationship key —
	// the distinct relations a rule ranges over, sorted and joined with
	// "+" (e.g. "CLASS" or "CLASS+SONAR").
	StaleByRelationship map[string]int `json:"staleByRelationship,omitempty"`
	Durable             bool           `json:"durable"`
	WalBytes            int64          `json:"walBytes"`
	// WalSeq is the durable WAL sequence this node has applied — on the
	// leader the last committed batch, on a follower the last replayed
	// record. Equal sequences imply identical snapshots.
	WalSeq           uint64 `json:"walSeq,omitempty"`
	AutoMaintainRuns uint64 `json:"autoMaintainRuns"`
	AutoMaintainErrs uint64 `json:"autoMaintainErrs"`
	// Degraded reports read-only degraded mode: mutations refused with
	// 503 while queries keep serving from the last good snapshot.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
}

// replicationJSON is the replication section of /healthz and /metrics:
// the node's role and durable WAL position on every durable node, plus
// the follower loop's state, lag, and error surface on followers, and
// the fan-out table plus snapshot-transfer counters on the leader.
type replicationJSON struct {
	Role   string `json:"role"`
	WalSeq uint64 `json:"walSeq"`
	// LeaderAddr is where writes go; set on followers.
	LeaderAddr string `json:"leaderAddr,omitempty"`
	// State is one of the cluster.State* constants (follower only).
	State string `json:"state,omitempty"`
	// LeaderSeq and Lag position this follower against the leader's WAL
	// as of the last successful poll.
	LeaderSeq      uint64 `json:"leaderSeq,omitempty"`
	Lag            uint64 `json:"lag,omitempty"`
	Bootstraps     uint64 `json:"bootstraps,omitempty"`
	RecordsApplied uint64 `json:"recordsApplied,omitempty"`
	LastContact    string `json:"lastContact,omitempty"`
	LastError      string `json:"lastError,omitempty"`
	// BootstrapChunks of BootstrapTotalChunks report an in-flight
	// snapshot transfer's progress; both are zero between transfers.
	BootstrapChunks      uint64 `json:"bootstrapChunks,omitempty"`
	BootstrapTotalChunks uint64 `json:"bootstrapTotalChunks,omitempty"`
	// Followers is the fan-out table: one entry per node that has ever
	// streamed from this one, sorted by id.
	Followers []followerJSON `json:"followers,omitempty"`
	// ChunkRequests/ChunkBytes/SnapshotBuilds count bootstrap traffic
	// served: chunks shipped, their volume, and how many distinct
	// archives were encoded (cache effectiveness).
	ChunkRequests  uint64 `json:"chunkRequests,omitempty"`
	ChunkBytes     uint64 `json:"chunkBytes,omitempty"`
	SnapshotBuilds uint64 `json:"snapshotBuilds,omitempty"`
}

// followerJSON is one fan-out table entry: where a downstream replica
// stands against this node's WAL and what its bootstrap cost.
type followerJSON struct {
	ID       string `json:"id"`
	AckedSeq uint64 `json:"ackedSeq"`
	// Lag is this node's WAL position minus the follower's
	// acknowledgement — records committed here it has not confirmed.
	Lag             uint64 `json:"lag"`
	LastContact     string `json:"lastContact,omitempty"`
	BootstrapChunks uint64 `json:"bootstrapChunks,omitempty"`
	BootstrapBytes  uint64 `json:"bootstrapBytes,omitempty"`
}

// mutateRequest is the POST /mutate body: either one statement in sql
// or a batch in stmts (exactly one of the two), applied atomically.
type mutateRequest struct {
	SQL   string   `json:"sql"`
	Stmts []string `json:"stmts"`
}

// mutationJSON reports one statement's effect.
type mutationJSON struct {
	Kind     string `json:"kind"`
	Table    string `json:"table"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
}

// mutateResponse is the POST /mutate response. Stale and Refinable are
// the rule-maintenance totals after the batch; Warning carries a
// committed-but-degraded condition (auto-checkpoint failure).
type mutateResponse struct {
	Version      uint64         `json:"version"`
	Mutations    []mutationJSON `json:"mutations"`
	Stale        int            `json:"stale"`
	Refinable    int            `json:"refinable"`
	Checkpointed bool           `json:"checkpointed,omitempty"`
	WalBytes     int64          `json:"walBytes"`
	// WalSeq is the durable WAL sequence this batch committed at; Token
	// is its read-your-writes form ("w<seq>") — pass it as a /query token
	// on any replica to wait for this write to be visible there.
	WalSeq  uint64 `json:"walSeq,omitempty"`
	Token   string `json:"token,omitempty"`
	Warning string `json:"warning,omitempty"`
}

type rulesResponse struct {
	Version   uint64 `json:"version"`
	Count     int    `json:"count"`
	Serving   int    `json:"serving"`
	Stale     int    `json:"stale"`
	Refinable int    `json:"refinable"`
	// PendingSchemes counts the schemes awaiting re-induction by
	// Maintain (maintain.State.SchemeKeys), including those a restart
	// restored, whose stale rules Stale no longer counts.
	PendingSchemes int        `json:"pendingSchemes"`
	Rules          []ruleJSON `json:"rules,omitempty"`
}

type ruleJSON struct {
	ID      int    `json:"id"`
	Rule    string `json:"rule"`
	Support int    `json:"support"`
	Status  string `json:"status"`
	// Stale duplicates Status == "stale" for cheap client checks; stale
	// rules are withheld from inference until re-induction.
	Stale           bool   `json:"stale,omitempty"`
	Counterexamples int    `json:"counterexamples,omitempty"`
	Definite        bool   `json:"definite,omitempty"`
	Example         string `json:"example,omitempty"`
}

type healthzResponse struct {
	OK bool `json:"ok"`
	// Mode is "ok", "degraded:read-only", or — on a follower — the
	// replication state prefixed "follower:" ("follower:ready",
	// "follower:catching-up", ...). The process stays live (OK true)
	// while degraded or catching up: queries serve from the last
	// applied snapshot.
	Mode           string `json:"mode"`
	Version        uint64 `json:"version"`
	Relations      int    `json:"relations"`
	Rules          int    `json:"rules"`
	Stale          int    `json:"stale"`
	PendingSchemes int    `json:"pendingSchemes"` // as rulesResponse's
	Durable        bool   `json:"durable"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	DegradedSince  string `json:"degradedSince,omitempty"`
	// WalSeq is the durable WAL sequence this node has applied.
	WalSeq uint64 `json:"walSeq,omitempty"`
	// Replication reports the node's role and follower progress.
	Replication *replicationJSON `json:"replication,omitempty"`
}

// relationJSON is the wire form of an extensional answer. Cells are
// typed JSON values: null, string, or number.
type relationJSON struct {
	Name    string       `json:"name"`
	Columns []columnJSON `json:"columns"`
	Rows    [][]any      `json:"rows"`
}

type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type factJSON struct {
	Attr     string `json:"attr"`
	Interval string `json:"interval"`
	Derived  bool   `json:"derived"`
	Via      []int  `json:"via,omitempty"`
	Subtype  string `json:"subtype,omitempty"`
}

type descriptionJSON struct {
	Clause      string `json:"clause"`
	Consequence string `json:"consequence"`
	Via         int    `json:"via"`
	Subtype     string `json:"subtype,omitempty"`
}

// queryResponse is the POST /query response: the extensional rows,
// the rendered intensional sentences, and the structured inference
// behind them, stamped with the snapshot version that produced it.
type queryResponse struct {
	Version      uint64            `json:"version"`
	Mode         string            `json:"mode"`
	RowCount     int               `json:"rowCount"`
	Extensional  *relationJSON     `json:"extensional,omitempty"`
	Intensional  []string          `json:"intensional,omitempty"`
	Facts        []factJSON        `json:"facts,omitempty"`
	Descriptions []descriptionJSON `json:"descriptions,omitempty"`
	Conjunctive  bool              `json:"conjunctive"`
	Empty        bool              `json:"empty"`
}

func valueToJSON(v relation.Value) any {
	switch v.Kind() {
	case relation.KindNull:
		return nil
	case relation.KindString:
		return v.Str()
	case relation.KindInt:
		return v.Int64()
	default:
		return v.Float64()
	}
}

func relationToJSON(r *relation.Relation) *relationJSON {
	out := &relationJSON{Name: r.Name(), Rows: make([][]any, 0, r.Len())}
	for _, col := range r.Schema().Columns() {
		out.Columns = append(out.Columns, columnJSON{Name: col.Name, Type: col.Type.String()})
	}
	for _, row := range r.Rows() {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = valueToJSON(v)
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

func factToJSON(f infer.Fact) factJSON {
	return factJSON{
		Attr:     f.Attr.String(),
		Interval: f.Interval.String(),
		Derived:  f.Derived,
		Via:      f.Via,
		Subtype:  f.Subtype,
	}
}

func descriptionToJSON(d infer.Description) descriptionJSON {
	return descriptionJSON{
		Clause:      d.Clause.String(),
		Consequence: d.Consequence.String(),
		Via:         d.Via,
		Subtype:     d.Subtype,
	}
}

// toQueryJSON projects a core.Response onto the wire shape. mode is the
// canonical mode name parseMode returns, echoed back as is, so the
// encoded body is a function of the response and mode alone;
// wantExt/wantInt select the sections.
func toQueryJSON(resp *core.Response, mode string, wantExt, wantInt bool) queryResponse {
	out := queryResponse{
		Version:     resp.Version,
		Mode:        mode,
		RowCount:    resp.Extensional.Len(),
		Conjunctive: resp.Inference.Conjunctive,
		Empty:       resp.Inference.Empty,
	}
	if wantExt {
		out.Extensional = relationToJSON(resp.Extensional)
	}
	if wantInt {
		out.Intensional = resp.Intensional.Lines
		for _, f := range resp.Inference.Facts {
			out.Facts = append(out.Facts, factToJSON(f))
		}
		for _, d := range resp.Inference.Descriptions {
			out.Descriptions = append(out.Descriptions, descriptionToJSON(d))
		}
	}
	return out
}
