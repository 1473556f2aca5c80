package infer_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"intensional/internal/dict"
	"intensional/internal/induct"
	"intensional/internal/infer"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/storage"
)

// randomBandDB builds a single-relation database R(X, T) where T is a
// deterministic banding of X (so induction finds clean rules), with a
// hierarchy classified by T.
func randomBandDB(rr *rand.Rand) (*storage.Catalog, *dict.Dictionary, []int64, error) {
	// Random band edges over 0..99.
	nBands := 2 + rr.Intn(4)
	edgeSet := map[int64]bool{}
	for len(edgeSet) < nBands-1 {
		edgeSet[int64(1+rr.Intn(98))] = true
	}
	var edges []int64
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	band := func(x int64) string {
		b := 0
		for _, e := range edges {
			if x >= e {
				b++
			}
		}
		return fmt.Sprintf("band%d", b)
	}

	cat := storage.NewCatalog()
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "X", Type: relation.TInt},
		relation.Column{Name: "T", Type: relation.TString},
	))
	n := 5 + rr.Intn(60)
	for i := 0; i < n; i++ {
		x := int64(rr.Intn(100))
		r.MustInsert(relation.Int(x), relation.String(band(x)))
	}
	cat.Put(r)
	d := dict.New(cat)
	h := &dict.Hierarchy{Object: "R", ClassifyingAttr: "T"}
	for b := 0; b < nBands; b++ {
		name := fmt.Sprintf("band%d", b)
		h.Subtypes = append(h.Subtypes, dict.Subtype{Name: name, Value: relation.String(name)})
	}
	if err := d.AddHierarchy(h); err != nil {
		return nil, nil, nil, err
	}
	return cat, d, edges, nil
}

// TestInferenceSoundOnRandomDBsProperty: on random banded databases with
// induced rules, for random conditions,
//
//   - every forward fact holds for every tuple of the extensional answer
//     (the "contains the answer" direction of Section 4), and
//   - every backward description's covered tuples satisfy the
//     description's consequence (the rule-soundness direction).
func TestInferenceSoundOnRandomDBsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		cat, d, _, err := randomBandDB(rr)
		if err != nil {
			return false
		}
		set, err := induct.New(d, induct.Options{Nc: 1 + rr.Intn(3)}).InduceAll()
		if err != nil {
			return false
		}
		d.SetRules(set)
		p := infer.New(d)
		q := query.New(cat, nil, nil)

		ops := []string{"=", "<", "<=", ">", ">="}
		for trial := 0; trial < 4; trial++ {
			op := ops[rr.Intn(len(ops))]
			v := rr.Intn(100)
			sql := fmt.Sprintf("SELECT X, T FROM R WHERE X %s %d", op, v)
			ext, an, err := execute(q, sql)
			if err != nil {
				return false
			}
			res, err := p.Derive(an)
			if err != nil {
				return false
			}
			if res.Empty {
				if ext.Len() != 0 {
					t.Logf("seed %d: declared empty but %d answers", seed, ext.Len())
					return false
				}
				continue
			}
			xi := ext.Schema().MustIndex("X")
			ti := ext.Schema().MustIndex("T")
			// Forward facts contain the answer.
			for _, f := range res.Forward() {
				for _, row := range ext.Rows() {
					var val relation.Value
					switch f.Attr.Attribute {
					case "X":
						val = row[xi]
					case "T":
						val = row[ti]
					default:
						continue
					}
					if !f.Interval.Contains(val) {
						t.Logf("seed %d: fact %s violated by answer row %v (query %s)",
							seed, f, row, sql)
						return false
					}
				}
			}
			// Backward descriptions are sound rules on the data.
			rel, _ := cat.Get("R")
			rxi := rel.Schema().MustIndex("X")
			rti := rel.Schema().MustIndex("T")
			for _, desc := range res.Descriptions {
				for _, row := range rel.Rows() {
					var lv, cv relation.Value
					switch desc.Clause.Attr.Attribute {
					case "X":
						lv = row[rxi]
					case "T":
						lv = row[rti]
					default:
						continue
					}
					switch desc.Consequence.Attr.Attribute {
					case "X":
						cv = row[rxi]
					case "T":
						cv = row[rti]
					default:
						continue
					}
					if desc.Clause.Contains(lv) && !desc.Consequence.Contains(cv) {
						t.Logf("seed %d: description %s unsound on row %v", seed, desc, row)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
