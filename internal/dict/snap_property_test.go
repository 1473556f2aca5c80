package dict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// referenceSnap is the specification SnapToObserved's binary search
// must meet: test every stored value with Contains and keep the least
// and the greatest inside the interval, the earlier row of two that
// neither is less than.
func referenceSnap(vs []relation.Value, iv rules.Interval) (rules.Interval, bool) {
	var lo, hi relation.Value
	found := false
	for _, v := range vs {
		if v.IsNull() || !iv.Contains(v) {
			continue
		}
		if !found {
			lo, hi, found = v, v, true
		}
		if v.Less(lo) {
			lo = v
		}
		if hi.Less(v) {
			hi = v
		}
	}
	if !found {
		return rules.Interval{}, false
	}
	return rules.Range(lo, hi), true
}

// sameValue reports whether two endpoints are one value: Equal, and of
// one kind, so Int(3) and Float(3) still differ.
func sameValue(a, b relation.Value) bool { return a.Equal(b) && a.Kind() == b.Kind() }

// snapColumn is one generated attribute and its stored values.
type snapColumn struct {
	name string
	typ  relation.Type
	vals []relation.Value
}

func genSnapColumns(rr *rand.Rand) []snapColumn {
	n := rr.Intn(40)
	ints := make([]relation.Value, n)
	for i := range ints {
		ints[i] = relation.Int(int64(rr.Intn(60) - 30))
	}
	nums := make([]relation.Value, n)
	for i := range nums {
		if rr.Intn(2) == 0 {
			nums[i] = relation.Int(int64(rr.Intn(20) - 10))
		} else {
			nums[i] = relation.Float(float64(rr.Intn(80)-40) / 4)
		}
	}
	nums = append(nums, relation.Float(0), relation.Float(math.Copysign(0, -1)))
	strs := make([]relation.Value, n)
	for i := range strs {
		strs[i] = relation.String(fmt.Sprintf("s%02d", rr.Intn(50)))
	}
	if n > 0 {
		ints[rr.Intn(n)] = relation.Null()
	}
	return []snapColumn{
		{"I", relation.TInt, ints},
		{"F", relation.TFloat, nums},
		{"S", relation.TString, strs},
	}
}

// genProbe draws a value near the column's: an observed value, an
// unobserved one of the same kind, or one of the other kind.
func genProbe(rr *rand.Rand, c snapColumn) relation.Value {
	switch rr.Intn(6) {
	case 0:
		if len(c.vals) > 0 {
			if v := c.vals[rr.Intn(len(c.vals))]; !v.IsNull() {
				return v
			}
		}
		return relation.Int(0)
	case 1:
		return relation.String(fmt.Sprintf("s%02d", rr.Intn(50)) + "x")
	case 2:
		return relation.Float(float64(rr.Intn(100)-50) / 3)
	case 3:
		return relation.Float(math.Copysign(0, -1))
	default:
		return relation.Int(int64(rr.Intn(80) - 40))
	}
}

func genBound(rr *rand.Rand, c snapColumn) rules.Bound {
	switch rr.Intn(5) {
	case 0:
		return rules.Unbound()
	case 1:
		return rules.Opened(genProbe(rr, c))
	default:
		return rules.Closed(genProbe(rr, c))
	}
}

// TestSnapToObservedMatchesLinearProperty: on random columns of every
// kind, and for random intervals (open, closed, unbounded, empty, points
// on and off observed values, -0, bounds of the other kind),
// SnapToObserved returns exactly what a scan of every stored value
// returns.
func TestSnapToObservedMatchesLinearProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rr := rand.New(rand.NewSource(seed))
		cols := genSnapColumns(rr)
		schema := make([]relation.Column, len(cols))
		width := 0
		for i, c := range cols {
			schema[i] = relation.Column{Name: c.name, Type: c.typ}
			width = max(width, len(c.vals))
		}
		rows := make([]relation.Tuple, width)
		for r := range rows {
			rows[r] = make(relation.Tuple, len(cols))
			for i, c := range cols {
				if r < len(c.vals) {
					rows[r][i] = c.vals[r]
				}
			}
		}
		cat := storage.NewCatalog()
		rel := relation.New("T", relation.MustSchema(schema...))
		for _, row := range rows {
			if err := rel.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		cat.Put(rel)
		d := New(cat)
		for _, c := range cols {
			attr := rules.Attr("T", c.name)
			stored, err := rel.Column(c.name)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 40; k++ {
				var iv rules.Interval
				if k%5 == 0 {
					iv = rules.Point(genProbe(rr, c))
				} else {
					iv = rules.Interval{Lo: genBound(rr, c), Hi: genBound(rr, c)}
				}
				want, wantOK := referenceSnap(stored, iv)
				got, gotOK, err := d.SnapToObserved(attr, iv)
				if err != nil {
					t.Fatal(err)
				}
				if gotOK != wantOK || got.String() != want.String() ||
					!sameValue(got.Lo.Value, want.Lo.Value) || !sameValue(got.Hi.Value, want.Hi.Value) {
					t.Fatalf("seed %d %s: snap %s = %s, %v; linear scan gives %s, %v",
						seed, c.name, iv, got, gotOK, want, wantOK)
				}
			}
		}
	}
}
