package induct

import (
	"context"
	"fmt"
	"strings"

	"intensional/internal/dict"
	"intensional/internal/relation"
	"intensional/internal/rules"
)

// Comparison is one piece of induced inter-object knowledge (Section
// 3.1): across every instance of a relationship, the left attribute
// stands in Op relation to the right attribute — e.g. the VISIT
// relationship satisfies SHIP.Draft < PORT.Depth.
type Comparison struct {
	Rel     string // relationship name
	L, R    rules.AttrRef
	Op      string // strongest operator holding on every instance: < <= = >= >
	Support int    // relationship instances witnessing it
}

// String renders the comparison.
func (c Comparison) String() string {
	return fmt.Sprintf("%s: %s %s %s (support %d)", c.Rel, c.L, c.Op, c.R, c.Support)
}

// InduceComparisons scans a relationship's instances for attribute pairs
// across its participants that satisfy a uniform comparison, returning
// the strongest operator that holds for each pair. Pairs are drawn from
// numeric attributes only (string comparisons across objects are rarely
// meaningful constraints). Relationships with fewer than Nc instances
// yield nothing.
func (in *Inducer) InduceComparisons(r *dict.Relationship) ([]Comparison, error) {
	joined, colFor, err := in.materialise(context.Background(), r)
	if err != nil {
		return nil, err
	}
	if joined.Len() < in.opts.effectiveNc(joined.Len()) || joined.Len() == 0 {
		return nil, nil
	}
	parts := r.Participants()

	// Numeric attributes per participant (and the hierarchy levels above
	// them, which materialise already joined in).
	numeric := func(object string) []rules.AttrRef {
		var out []rules.AttrRef
		cat := in.d.Catalog()
		cur := object
		for depth := 0; depth < 8; depth++ {
			rel, err := cat.Get(cur)
			if err != nil {
				break
			}
			for _, col := range rel.Schema().Columns() {
				if col.Type == relation.TInt || col.Type == relation.TFloat {
					out = append(out, rules.Attr(rel.Name(), col.Name))
				}
			}
			link, ok := in.d.LevelAbove(cur)
			if !ok {
				break
			}
			cur = link.To.Relation
		}
		return out
	}

	var out []Comparison
	for ai, a := range parts {
		for bi, b := range parts {
			if ai >= bi {
				continue // unordered pairs; the operator encodes direction
			}
			for _, la := range numeric(a) {
				lc, ok := colFor[la.Key()]
				if !ok {
					continue
				}
				li, ok := joined.Schema().Index(lc)
				if !ok {
					continue
				}
				for _, rb := range numeric(b) {
					rc, ok := colFor[rb.Key()]
					if !ok {
						continue
					}
					ri, ok := joined.Schema().Index(rc)
					if !ok {
						continue
					}
					if op, support := strongestOp(joined, li, ri); op != "" {
						if support < in.opts.effectiveNc(joined.Len()) {
							continue
						}
						out = append(out, Comparison{
							Rel: r.Name, L: la, R: rb, Op: op, Support: support,
						})
					}
				}
			}
		}
	}
	return out, nil
}

// strongestOp returns the most specific comparison holding between two
// columns on every non-null row, and the number of witnessing rows.
func strongestOp(rel *relation.Relation, li, ri int) (string, int) {
	var sawLess, sawEqual, sawGreater bool
	support := 0
	for _, t := range rel.Rows() {
		l, r := t[li], t[ri]
		if l.IsNull() || r.IsNull() {
			continue
		}
		c, err := l.Compare(r)
		if err != nil {
			return "", 0
		}
		support++
		switch {
		case c < 0:
			sawLess = true
		case c == 0:
			sawEqual = true
		default:
			sawGreater = true
		}
	}
	if support == 0 {
		return "", 0
	}
	switch {
	case sawLess && !sawEqual && !sawGreater:
		return "<", support
	case !sawLess && sawEqual && !sawGreater:
		return "=", support
	case !sawLess && !sawEqual && sawGreater:
		return ">", support
	case sawLess && sawEqual && !sawGreater:
		return "<=", support
	case !sawLess && sawEqual && sawGreater:
		return ">=", support
	default:
		return "", 0
	}
}

// RenderComparisons formats induced inter-object knowledge, one line per
// comparison.
func RenderComparisons(cs []Comparison) string {
	var b strings.Builder
	for _, c := range cs {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}
