package core

import (
	"context"
	"strings"
	"sync"
	"unicode"

	"intensional/internal/answer"
	"intensional/internal/infer"
	"intensional/internal/plan"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/semopt"
)

// NormalizeSQL collapses runs of whitespace outside string literals to
// single spaces and trims the ends, so that formatting variants of one
// statement share a cache entry. Literals are kept byte for byte, by the
// lexer's rule: ' or " opens one, the same quote closes it, no escapes.
// It is the statement cache key and the text that is planned; matching
// stays case-sensitive because string literals are.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	var quote rune // the open literal's delimiter; 0 outside literals
	space := false
	for _, r := range sql {
		switch {
		case quote == 0 && unicode.IsSpace(r):
			space = b.Len() > 0
			continue
		case quote == 0 && (r == '\'' || r == '"'):
			quote = r
		case r == quote:
			quote = 0
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(r)
	}
	return b.String()
}

// stmt is one statement's entry in a snapshot's cache: the plan, the one
// inference result its rewrites were advised from, and, once queried,
// the extensional answer (executed at most once, whatever the mode), a
// response per answer mode sharing both, and the responses' encoded
// bodies.
type stmt struct {
	prep   *query.Prepared
	inf    *infer.Result
	bodies *bodyMemo

	mu   sync.Mutex
	ext  *relation.Relation        // guarded by mu
	resp map[answer.Mode]*Response // guarded by mu
}

// rendered returns the response already rendered for mode, or nil.
func (st *stmt) rendered(mode answer.Mode) *Response {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.resp[mode]
}

// respond returns the response for mode, rendering it on first request.
// The lock is held across execution, so concurrent first queries wait
// for one run instead of each scanning.
func (st *stmt) respond(ctx context.Context, version uint64, mode answer.Mode) (*Response, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r := st.resp[mode]; r != nil {
		return r, nil
	}
	if st.ext == nil {
		ext, err := st.prep.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		st.ext = ext
	}
	r := &Response{
		Version:     version,
		Extensional: st.ext,
		Analysis:    st.prep.Analysis,
		Inference:   st.inf,
		Intensional: answer.Render(st.prep.Analysis, st.inf, mode),
		bodies:      st.bodies,
	}
	st.resp[mode] = r
	return r, nil
}

// bodyKey names one encoded body of a statement: the response's answer
// mode and the caller's key for the encoding.
type bodyKey struct {
	mode answer.Mode
	key  string
}

// bodyMemo holds a statement's encoded response bodies. A body is stored
// the second time its key is requested; the first request only marks
// the key, so a statement that is never repeated pins no bytes.
type bodyMemo struct {
	mu sync.Mutex
	m  map[bodyKey][]byte // guarded by mu; nil marks a key requested once
}

// get returns the stored body for k, or encodes it. Encoding runs
// outside the lock; concurrent requests for one key may each encode,
// and any of their identical results may be the one kept.
func (b *bodyMemo) get(k bodyKey, encode func() ([]byte, error)) ([]byte, error) {
	b.mu.Lock()
	data, seen := b.m[k]
	if !seen {
		b.m[k] = nil
	}
	b.mu.Unlock()
	if data != nil {
		return data, nil
	}
	data, err := encode()
	if err != nil || !seen {
		return data, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k] = data
	return data, nil
}

// size is the total length of the stored bodies.
func (b *bodyMemo) size() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, data := range b.m {
		n += int64(len(data))
	}
	return n
}

// stmtCache holds one snapshot's statements, keyed by normalized SQL. It
// dies with its snapshot, so nothing in it outlives the data and rule
// base it was derived from.
type stmtCache struct {
	mu sync.Mutex
	m  map[string]*stmt // guarded by mu
}

// maxCachedStmts bounds the cache; past it the whole cache is dropped,
// which keeps eviction deterministic.
const maxCachedStmts = 1024

func newStmtCache() *stmtCache {
	return &stmtCache{m: make(map[string]*stmt)}
}

func (c *stmtCache) get(k string) *stmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

func (c *stmtCache) put(k string, st *stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= maxCachedStmts {
		c.m = make(map[string]*stmt)
	}
	c.m[k] = st
}

func (c *stmtCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// bodyBytes is the total length of the encoded bodies the cache holds.
func (c *stmtCache) bodyBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, st := range c.m {
		n += st.bodies.size()
	}
	return n
}

// prepare returns the snapshot's entry for a normalized statement,
// planning it on first use. It is the serving path's one inference call:
// the rewriter hook derives the result, advises the rewrites from it, and
// the entry keeps it for every answer mode.
//
// Applying the advice is safe because the dictionary serves only rules
// consistent with this snapshot's data (maintenance retires contradicted
// rules before publishing), so an implied restriction removes only
// non-answers, a redundant one is logically equal, and an Empty proof
// means no stored tuple qualifies.
func (s *System) prepare(sn *snapshot, key string) (*stmt, error) {
	if st := sn.stmts.get(key); st != nil {
		s.planHits.Add(1)
		return st, nil
	}
	s.planMisses.Add(1)
	st := &stmt{
		resp:   make(map[answer.Mode]*Response),
		bodies: &bodyMemo{m: make(map[bodyKey][]byte)},
	}
	prep, err := sn.q.Prepare(key, func(an *query.Analysis) (*query.Rewrites, error) {
		res, err := sn.inf.Derive(an)
		if err != nil {
			return nil, err
		}
		st.inf = res
		return semopt.Advise(an, res), nil
	})
	if err != nil {
		return nil, err
	}
	st.prep = prep
	sn.stmts.put(key, st)
	return st, nil
}

// Prepare plans a SQL query against the current snapshot, applying the
// rule base's semantic rewrites, and caches the result as a prepared
// statement keyed by normalized SQL. Repeated calls with the same
// statement against an unchanged snapshot return the cached plan.
func (s *System) Prepare(sql string) (*query.Prepared, error) {
	st, err := s.prepare(s.current(), NormalizeSQL(sql))
	if err != nil {
		return nil, err
	}
	return st.prep, nil
}

// Explain returns the typed execution plan for a SQL query — access
// paths with cardinality estimates, join order, and the semantic
// rewrites the rule base contributed — without executing it. The plan
// shown is the plan that runs: Explain prepares (and caches) the same
// statement Query executes.
func (s *System) Explain(sql string) (*plan.Plan, error) {
	p, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return p.Describe(), nil
}

// PlannerStats is a point-in-time report of planner behaviour for
// metrics: cumulative scan counters over the system's lifetime and the
// prepared-statement cache's hit rate.
type PlannerStats struct {
	// FullScans and IndexScans count executed access paths by kind.
	FullScans  int64
	IndexScans int64
	// IndexFallbacks counts access paths that wanted an index but
	// degraded to a full scan (stale index, mixed-kind column,
	// incomparable probe). Nonzero and climbing means some query is
	// quietly running O(n); the reason is logged when it happens.
	IndexFallbacks int64
	// PlanCacheHits / PlanCacheMisses are cumulative statement-cache
	// outcomes of planning requests (a query answered from an already
	// rendered response plans nothing and counts neither); CachedPlans is
	// the current snapshot's cache size.
	PlanCacheHits   int64
	PlanCacheMisses int64
	CachedPlans     int
	// CachedBodyBytes is the total length of the encoded response bodies
	// the current snapshot's cache holds (see Response.Body).
	CachedBodyBytes int64
}

// PlannerStats reports the planner counters and prepared-statement
// cache state.
func (s *System) PlannerStats() PlannerStats {
	sn := s.current()
	return PlannerStats{
		FullScans:       s.counters.FullScans.Load(),
		IndexScans:      s.counters.IndexScans.Load(),
		IndexFallbacks:  s.counters.IndexFallbacks.Load(),
		PlanCacheHits:   s.planHits.Load(),
		PlanCacheMisses: s.planMisses.Load(),
		CachedPlans:     sn.stmts.len(),
		CachedBodyBytes: sn.stmts.bodyBytes(),
	}
}
