package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"intensional/internal/relation"
)

// runValue draws a value of the given kind: 0 int, 1 float (ints and
// floats mix), 2 string.
func runValue(rr *rand.Rand, kind int) relation.Value {
	switch kind {
	case 0:
		return relation.Int(int64(rr.Intn(60)))
	case 1:
		return relation.Float(float64(rr.Intn(240)) / 4)
	default:
		return relation.String(fmt.Sprintf("k%02d", rr.Intn(60)))
	}
}

// runRules draws one attribute's rules the way induction lays out a
// scheme — ascending, disjoint ranges and points — with now and then a
// rule that breaks the order: an overlapping or reversed range, or a
// value of another kind.
func runRules(rr *rand.Rand, kind int) []*Rule {
	x, y := Attr("R", "X"), Attr("R", "Y")
	var out []*Rule
	for n := rr.Intn(30); n > 0; n-- {
		a, b := runValue(rr, kind), runValue(rr, kind)
		if b.Less(a) {
			a, b = b, a
		}
		switch rr.Intn(12) {
		case 0:
			a, b = b, a
		case 1, 2:
			a = runValue(rr, (kind+2)%3)
		case 3, 4, 5:
			b = a
		}
		out = append(out, &Rule{LHS: []Clause{RangeClause(x, a, b)}, RHS: PointClause(y, relation.Int(int64(n)))})
	}
	// Mostly keep induction's ascending order.
	if rr.Intn(4) != 0 {
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].LHS[0].Lo.Less(out[j-1].LHS[0].Lo); j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	return out
}

func runBound(rr *rand.Rand, kind int) Bound {
	switch rr.Intn(8) {
	case 0:
		return Unbound()
	case 1:
		return Opened(runValue(rr, kind))
	case 2:
		return Opened(runValue(rr, (kind+1)%3))
	case 3:
		return Closed(runValue(rr, (kind+1)%3))
	default:
		return Closed(runValue(rr, kind))
	}
}

// TestSubsumingMatchesLinearProperty: for every run of random rule
// bases, every start position and random conditions — points, ranges,
// reversed (empty) ranges, open and unbounded ends, other-kind bounds —
// Subsuming returns the first premise at or after the start that
// subsumes the condition, as testing each premise in turn does.
func TestSubsumingMatchesLinearProperty(t *testing.T) {
	multi := 0
	for seed := int64(0); seed < 400; seed++ {
		rr := rand.New(rand.NewSource(seed))
		kind := rr.Intn(3)
		s := NewSet()
		for _, r := range runRules(rr, kind) {
			s.Add(r)
		}
		for _, run := range s.PremiseRuns() {
			if len(run.Rules) > 1 {
				multi++
			}
			for k := 0; k < 30; k++ {
				cond := Interval{Lo: runBound(rr, kind), Hi: runBound(rr, kind)}
				if k%3 == 0 {
					cond = Point(run.Rules[rr.Intn(len(run.Rules))].LHS[0].Lo)
				}
				from := rr.Intn(len(run.Rules) + 1)
				want := len(run.Rules)
				for i := from; i < len(run.Rules); i++ {
					if run.Rules[i].LHS[0].Interval().Subsumes(cond) {
						want = i
						break
					}
				}
				if got := run.Subsuming(from, cond); got != want {
					t.Fatalf("seed %d: Subsuming(%d, %s) = %d, want %d over\n%s", seed, from, cond, got, want, s)
				}
			}
		}
	}
	if multi < 200 {
		t.Errorf("only %d runs of more than one rule", multi)
	}
}
