package induct

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"intensional/internal/dict"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/storage"
)

// renderRules serialises a pair's rules for comparison: text and
// support, in order.
func renderRules(rs []*rules.Rule) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s (support %d)\n", r, r.Support)
	}
	return b.String()
}

// agreeWithQUEL induces p with the ordered pass and with the paper's
// QUEL statements, and fails unless both give the same rules in the same
// order with the same supports. It also fails if the ordered pass did
// not run, so a comparison never silently degenerates into the QUEL
// path against itself.
func agreeWithQUEL(t *testing.T, in *Inducer, p Pair, label string) {
	t.Helper()
	ctx := context.Background()
	xi, yi, err := p.columns()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.Source.Index(xi)
	if err != nil {
		t.Fatalf("%s: index refused X: %v", label, err)
	}
	ordered, ok, err := in.inducePairOrdered(ctx, p, ix, yi)
	if err != nil || !ok {
		t.Fatalf("%s: ordered pass did not run (ok=%v, err=%v)", label, ok, err)
	}
	want, err := in.InducePairQUEL(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := renderRules(ordered), renderRules(want); got != w {
		t.Fatalf("%s: ordered pass\n%s\nQUEL statements\n%s\nsource:\n%s", label, got, w, p.Source)
	}
	served, err := in.InducePairContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := renderRules(served), renderRules(want); got != w {
		t.Fatalf("%s: InducePairContext\n%s\nwant\n%s", label, got, w)
	}
}

// bandPair wraps a two-column relation R(X, Y) as a candidate pair.
func bandPair(rel *relation.Relation) Pair {
	return Pair{Source: rel, XCol: "X", YCol: "Y", X: rules.Attr("R", "X"), Y: rules.Attr("R", "Y")}
}

// xPools are the X domains the generator draws from, each sorted
// ascending so bands are value ranges. "mixed" puts ints and floats in
// one float column: signed zeros, and neighbours of 2^53 where an int
// and a float can be equal or differ by one.
var xPools = map[string]struct {
	typ  relation.Type
	vals [][]relation.Value // equal values share a slot
}{
	"int": {relation.TInt, func() [][]relation.Value {
		var out [][]relation.Value
		for i := int64(-20); i < 40; i++ {
			out = append(out, []relation.Value{relation.Int(i * 3)})
		}
		return out
	}()},
	"string": {relation.TString, func() [][]relation.Value {
		var out [][]relation.Value
		for i := 0; i < 60; i++ {
			out = append(out, []relation.Value{relation.String(fmt.Sprintf("S%03d", i*7))})
		}
		return out
	}()},
	"mixed": {relation.TFloat, [][]relation.Value{
		{relation.Float(-1e300)},
		{relation.Int(-(1 << 53) - 1)},
		{relation.Int(-(1 << 53)), relation.Float(-(1 << 53))},
		{relation.Float(-2.5)},
		{relation.Int(-1), relation.Float(-1)},
		{relation.Float(math.Copysign(0, -1)), relation.Int(0), relation.Float(0)},
		{relation.Float(0.5)},
		{relation.Int(1), relation.Float(1)},
		{relation.Int(2)},
		{relation.Float(2.25)},
		{relation.Int(1<<53 - 1), relation.Float(1<<53 - 1)},
		{relation.Int(1 << 53), relation.Float(1 << 53)},
		{relation.Int(1<<53 + 1)},
		{relation.Int(1<<53 + 2), relation.Float(1<<53 + 2)},
		{relation.Int(1<<53 + 3)},
		{relation.Float(1e300)},
	}},
}

// yPools are the Y domains: class labels, and numeric classes whose
// equal values have several forms (0, -0 and 0.0; 1 and 1.0).
var yPools = map[string]struct {
	typ  relation.Type
	vals [][]relation.Value
}{
	"string": {relation.TString, [][]relation.Value{
		{relation.String("a")}, {relation.String("b")}, {relation.String("c")},
	}},
	"numeric": {relation.TFloat, [][]relation.Value{
		{relation.Float(math.Copysign(0, -1)), relation.Int(0), relation.Float(0)},
		{relation.Int(1), relation.Float(1)},
		{relation.Float(1.5)},
	}},
}

// genBand builds a random band relation: X slots are walked in order
// and cut into bands of one class each; every slot present gets one to
// three rows (in shuffled order) in one of its equal forms. Some slots
// turn inconsistent (a row of another class), some rows lose their Y,
// some slots have only null Ys, and a few rows have a null X.
func genBand(rng *rand.Rand, xKind, yKind string) *relation.Relation {
	xp, yp := xPools[xKind], yPools[yKind]
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "X", Type: xp.typ},
		relation.Column{Name: "Y", Type: yp.typ},
	))
	pick := func(vals []relation.Value) relation.Value { return vals[rng.Intn(len(vals))] }
	var rows []relation.Tuple
	class, left := rng.Intn(len(yp.vals)), 1+rng.Intn(6)
	for _, slot := range xp.vals {
		if left == 0 {
			class, left = rng.Intn(len(yp.vals)), 1+rng.Intn(6)
		}
		left--
		if rng.Intn(5) == 0 {
			continue // X value absent
		}
		n := 1 + rng.Intn(3)
		allNull := rng.Intn(10) == 0
		for i := 0; i < n; i++ {
			y := pick(yp.vals[class])
			switch {
			case allNull || rng.Intn(8) == 0:
				y = relation.Null()
			case rng.Intn(12) == 0:
				y = pick(yp.vals[(class+1+rng.Intn(len(yp.vals)-1))%len(yp.vals)])
			}
			rows = append(rows, relation.Tuple{pick(slot), y})
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		rows = append(rows, relation.Tuple{relation.Null(), pick(yp.vals[rng.Intn(len(yp.vals))])})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, t := range rows {
		if err := rel.Insert(t); err != nil {
			panic(err)
		}
	}
	return rel
}

var seedFlag = flag.Int64("seed", 0, "seed for TestOrderedPassMatchesQUEL; 0 draws one from the clock")

// TestOrderedPassMatchesQUEL is the differential property test of the
// ordered pass against the paper's QUEL statements, over random band
// relations with every X and Y domain, under absolute and fractional
// support thresholds. The seed is logged; rerun a failure with
// `go test ./internal/induct -run TestOrderedPassMatchesQUEL -seed N`.
func TestOrderedPassMatchesQUEL(t *testing.T) {
	seed := *seedFlag
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		xKind := []string{"int", "string", "mixed"}[i%3]
		yKind := []string{"string", "numeric"}[(i/3)%2]
		rel := genBand(rng, xKind, yKind)
		opts := Options{Nc: rng.Intn(4)}
		if rng.Intn(2) == 0 {
			opts.NcFraction = []float64{0.02, 0.05, 0.2}[rng.Intn(3)]
		}
		cat := storage.NewCatalog()
		cat.Put(rel)
		label := fmt.Sprintf("seed %d case %d (X %s, Y %s, %+v)", seed, i, xKind, yKind, opts)
		agreeWithQUEL(t, New(dict.New(cat), opts), bandPair(rel), label)
	}
}

// TestOrderedPassCases pins the algorithm's edge cases one by one, each
// against the QUEL statements and against the rules it must produce.
func TestOrderedPassCases(t *testing.T) {
	i, f, s, null := relation.Int, relation.Float, relation.String, relation.Null()
	negZero := f(math.Copysign(0, -1))
	for _, c := range []struct {
		name string
		typ  relation.Type
		rows [][2]relation.Value
		want string
	}{
		{"inconsistent group at a run boundary breaks the run", relation.TInt,
			[][2]relation.Value{{i(1), s("a")}, {i(2), s("a")}, {i(3), s("a")}, {i(3), s("b")}, {i(4), s("b")}, {i(5), s("b")}},
			"if 1 <= R.X <= 2 then R.Y = a (support 2)\nif 4 <= R.X <= 5 then R.Y = b (support 2)\n"},
		{"inconsistent group inside a run splits it", relation.TInt,
			[][2]relation.Value{{i(1), s("a")}, {i(2), s("b")}, {i(2), s("a")}, {i(3), s("a")}},
			"if R.X = 1 then R.Y = a (support 1)\nif R.X = 3 then R.Y = a (support 1)\n"},
		{"a group whose only Ys are null does not break the run", relation.TInt,
			[][2]relation.Value{{i(1), s("a")}, {i(2), null}, {i(2), null}, {i(3), s("a")}},
			"if 1 <= R.X <= 3 then R.Y = a (support 2)\n"},
		{"null Ys are skipped inside a group and null Xs are ignored", relation.TInt,
			[][2]relation.Value{{i(1), s("a")}, {i(1), null}, {null, s("b")}, {i(1), s("a")}},
			"if R.X = 1 then R.Y = a (support 2)\n"},
		{"duplicate X rows count toward support", relation.TString,
			[][2]relation.Value{{s("k1"), s("a")}, {s("k1"), s("a")}, {s("k2"), s("a")}, {s("k3"), s("b")}},
			"if k1 <= R.X <= k2 then R.Y = a (support 3)\nif R.X = k3 then R.Y = b (support 1)\n"},
		{"signed zeros are one X; its first row with a Y names it", relation.TFloat,
			[][2]relation.Value{{negZero, null}, {i(0), s("a")}, {f(0), s("a")}, {negZero, s("a")}},
			"if R.X = 0 then R.Y = a (support 3)\n"},
		{"2^53 ± 1 as int and float", relation.TFloat,
			[][2]relation.Value{{i(1<<53 - 1), s("a")}, {f(1 << 53), s("a")}, {i(1 << 53), s("b")}, {i(1<<53 + 1), s("a")}},
			"if R.X = 9007199254740991 then R.Y = a (support 1)\nif R.X = 9007199254740993 then R.Y = a (support 1)\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rel := relation.New("R", relation.MustSchema(
				relation.Column{Name: "X", Type: c.typ},
				relation.Column{Name: "Y", Type: relation.TString},
			))
			for _, r := range c.rows {
				if err := rel.Insert(relation.Tuple{r[0], r[1]}); err != nil {
					t.Fatal(err)
				}
			}
			cat := storage.NewCatalog()
			cat.Put(rel)
			in := New(dict.New(cat), Options{})
			agreeWithQUEL(t, in, bandPair(rel), c.name)
			got, err := in.InducePair(bandPair(rel))
			if err != nil {
				t.Fatal(err)
			}
			if r := renderRules(got); r != c.want {
				t.Errorf("rules\n%s\nwant\n%s", r, c.want)
			}
		})
	}
}

// TestOrderedPassMatchesQUELOnShipDB compares the two forms on every
// candidate pair of the paper's test bed, including the inter-object
// pairs induced from the materialised INSTALL relationship join.
func TestOrderedPassMatchesQUELOnShipDB(t *testing.T) {
	for _, opts := range []Options{{Nc: 1}, {Nc: 3}, {NcFraction: 0.2}} {
		in := shipInducer(t, opts)
		pairs, err := in.CandidatePairs(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		joined := 0
		for _, p := range pairs {
			if !strings.EqualFold(p.Source.Name(), p.X.Relation) {
				joined++
			}
			agreeWithQUEL(t, in, p, fmt.Sprintf("%s %+v", p.Scheme(), opts))
		}
		if joined == 0 {
			t.Fatal("no candidate pair drawn from a relationship join")
		}
	}
}

// TestRefusedColumnTakesQUELPath checks that a column the index refuses
// — here an X holding NaN — is induced by the QUEL statements.
func TestRefusedColumnTakesQUELPath(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "X", Type: relation.TFloat},
		relation.Column{Name: "Y", Type: relation.TString},
	))
	for _, r := range [][2]relation.Value{
		{relation.Float(1), relation.String("a")},
		{relation.Float(2), relation.String("a")},
		{relation.Float(math.NaN()), relation.String("b")},
		{relation.Float(3), relation.String("a")},
	} {
		if err := rel.Insert(relation.Tuple{r[0], r[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rel.Index(0); err == nil {
		t.Fatal("the index accepted a NaN column; this case no longer exercises the fallback")
	}
	cat := storage.NewCatalog()
	cat.Put(rel)
	in := New(dict.New(cat), Options{})
	got, err := in.InducePair(bandPair(rel))
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.InducePairQUEL(context.Background(), bandPair(rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || renderRules(got) != renderRules(want) {
		t.Errorf("refused column induced\n%s\nwant the QUEL statements'\n%s", renderRules(got), renderRules(want))
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// n-th call on, so a test can end a pass part-way through its walk.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestInduceHonoursCancellation checks that induction stops on a
// cancelled context: before any pair starts, and part-way through an
// ordered pass, which checks its context every ctxCheckGroups groups.
func TestInduceHonoursCancellation(t *testing.T) {
	in := shipInducer(t, Options{Nc: 1})
	pairs, err := in.CandidatePairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		in := shipInducer(t, Options{Nc: 1, Workers: workers})
		if _, err := in.InducePairsContext(ctx, pairs); err != context.Canceled {
			t.Errorf("workers=%d: InducePairsContext on a cancelled context returned %v", workers, err)
		}
		if _, err := in.InduceAllContext(ctx); err != context.Canceled {
			t.Errorf("workers=%d: InduceAllContext on a cancelled context returned %v", workers, err)
		}
	}

	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "X", Type: relation.TInt},
		relation.Column{Name: "Y", Type: relation.TString},
	))
	for i := 0; i < 3*ctxCheckGroups; i++ {
		rel.MustInsert(relation.Int(int64(i)), relation.String(fmt.Sprint(i/100)))
	}
	ix, err := rel.Index(0)
	if err != nil {
		t.Fatal(err)
	}
	// Two checks pass (at groups 0 and ctxCheckGroups); the third ends
	// the walk.
	_, ok, err := in.inducePairOrdered(&cancelAfter{context.Background(), 2}, bandPair(rel), ix, 1)
	if err != context.Canceled || ok {
		t.Errorf("ordered pass cancelled mid-walk returned ok=%v, err=%v", ok, err)
	}
}
