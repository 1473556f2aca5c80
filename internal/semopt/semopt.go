// Package semopt implements semantic query optimization over the induced
// knowledge — the companion technique the paper cites as [CHU90]
// ("Semantic Query Optimization via Database Restructuring") and [KING81]
// (QUIST). The same rule base that produces intensional answers also
// improves query processing:
//
//   - Empty proof: a restriction no stored value satisfies proves the
//     answer empty without scanning.
//   - Implied restrictions: forward-derived facts are additional filters
//     a processor may push into the plan (e.g. "Displacement > 8000"
//     implies "Type = SSBN", letting a type-partitioned store skip the
//     SSN partition).
//   - Redundant restrictions: a restriction whose interval is implied by
//     another restriction on the same attribute can be dropped from the
//     filter.
package semopt

import (
	"intensional/internal/dict"
	"intensional/internal/infer"
	"intensional/internal/query"
)

// Analyze derives the optimizer's advice for a query analysis using the
// dictionary's rule base and active domains.
func Analyze(an *query.Analysis, d *dict.Dictionary) (*query.Rewrites, error) {
	res, err := infer.New(d).Derive(an)
	if err != nil {
		return nil, err
	}
	return Advise(an, res), nil
}

// Advise turns the inference result for an analysis into the
// optimizer's advice. It derives nothing itself, so the one result a
// statement is inferred with serves both its rewrites and its
// intensional answer. A non-conjunctive analysis gets no advice.
func Advise(an *query.Analysis, res *infer.Result) *query.Rewrites {
	rw := &query.Rewrites{}
	if !res.Conjunctive {
		return rw
	}
	if res.Empty {
		rw.Empty = true
		rw.Because = res.EmptyBecause
		return rw
	}

	// Forward facts become implied restrictions.
	for _, f := range res.Forward() {
		r := query.Restriction{Attr: f.Attr, HasInterval: true, Interval: f.Interval}
		switch {
		case f.Interval.IsPoint():
			r.Op = "="
			r.Val = f.Interval.Lo.Value
		case !f.Interval.Lo.Unbounded && !f.Interval.Hi.Unbounded:
			// Render a closed range as the pair of comparisons; keep the
			// interval for programmatic consumers and describe with >=.
			r.Op = ">="
			r.Val = f.Interval.Lo.Value
		}
		rw.Implied = append(rw.Implied, r)
	}

	// Redundancy: restriction i is implied by restriction j (i != j) on
	// the same attribute when j's interval lies within i's.
	for i, ri := range an.Restrictions {
		if !ri.HasInterval {
			continue
		}
		for j, rj := range an.Restrictions {
			if i == j || !rj.HasInterval {
				continue
			}
			if !ri.Attr.EqualFold(rj.Attr) {
				continue
			}
			if rj.Interval.Within(ri.Interval) && !ri.Interval.Within(rj.Interval) {
				rw.Redundant = append(rw.Redundant, i)
				break
			}
		}
	}
	return rw
}
