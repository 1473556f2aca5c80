// Benchmarks regenerating the cost side of every experiment in
// DESIGN.md's index: rule induction over the paper's test bed (E1),
// extensional query processing and inference for Examples 1–3 (E2–E4),
// Table 1 characteristic induction (E5), rule-relation encoding (E8),
// the Nc sweep (A1), the join-strategy ablation, and the scaling studies
// B1 (induction vs database size) and B2 (inference vs rule-base size).
package intensional_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"intensional"
	"intensional/internal/dict"
	"intensional/internal/id3"
	"intensional/internal/induct"
	"intensional/internal/infer"
	"intensional/internal/quel"
	"intensional/internal/query"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/server"
	"intensional/internal/shipdb"
	"intensional/internal/storage"
	"intensional/internal/synth"
)

const (
	example1SQL = `SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000`
	example2SQL = `SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = "SSBN"`
	example3SQL = `SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE
		FROM SUBMARINE, CLASS, INSTALL
		WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP
		AND INSTALL.SONAR = "BQS-04"`
)

func shipDict(b *testing.B) *dict.Dictionary {
	b.Helper()
	d, err := shipdb.Dictionary(shipdb.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkInduceShipDB measures full rule induction over the Appendix C
// instance (experiment E1).
func BenchmarkInduceShipDB(b *testing.B) {
	d := shipDict(b)
	in := induct.New(d, induct.Options{Nc: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.InduceAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInduceNcSweep measures induction at each pruning threshold of
// ablation A1 (the threshold changes pruning work, not scan work).
func BenchmarkInduceNcSweep(b *testing.B) {
	for _, nc := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("Nc=%d", nc), func(b *testing.B) {
			d := shipDict(b)
			in := induct.New(d, induct.Options{Nc: nc})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.InduceAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInduceScaling is study B1: intra-object induction cost versus
// database size, on synthetic fleets of 120 to 120k ships.
func BenchmarkInduceScaling(b *testing.B) {
	for _, shipsPerClass := range []int{1, 10, 100, 1000} {
		nShips := 12 * 10 * shipsPerClass
		b.Run(fmt.Sprintf("ships=%d", nShips), func(b *testing.B) {
			cat := synth.Fleet(synth.FleetConfig{ClassesPerType: 10, ShipsPerClass: shipsPerClass, Seed: 1})
			d, err := synth.FleetDictionary(cat)
			if err != nil {
				b.Fatal(err)
			}
			in := induct.New(d, induct.Options{Nc: 2})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.InduceAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInduceParallel sweeps Options.Workers over the 10⁴-ship B1
// fleet: the candidate pairs are induced concurrently while the rule set
// stays byte-identical to the serial run (see
// TestInduceAllParallelMatchesSerial). workers=1 is the serial baseline
// the speedup criterion is measured against.
func BenchmarkInduceParallel(b *testing.B) {
	cat := synth.Fleet(synth.FleetConfig{ClassesPerType: 10, ShipsPerClass: 100, Seed: 1})
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			in := induct.New(d, induct.Options{Nc: 2, Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.InduceAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchInfer measures Derive alone for one example query and rule base.
func benchInfer(b *testing.B, sql string) {
	d := shipDict(b)
	set, err := induct.New(d, induct.Options{Nc: 3}).InduceAll()
	if err != nil {
		b.Fatal(err)
	}
	d.SetRules(set)
	prep, err := query.New(d.Catalog(), nil).Prepare(sql, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := infer.New(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Derive(prep.Analysis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferForward measures Example 1's forward inference (E2).
func BenchmarkInferForward(b *testing.B) { benchInfer(b, example1SQL) }

// BenchmarkInferBackward measures Example 2's backward inference (E3).
func BenchmarkInferBackward(b *testing.B) { benchInfer(b, example2SQL) }

// BenchmarkInferCombined measures Example 3's combined inference (E4).
func BenchmarkInferCombined(b *testing.B) { benchInfer(b, example3SQL) }

// BenchmarkInferScaling is study B2: inference cost versus rule-base
// size, with a point condition over synthetic rule bases.
func BenchmarkInferScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			cat := storage.NewCatalog()
			r := relation.New("R", relation.MustSchema(
				relation.Column{Name: "X", Type: relation.TInt},
				relation.Column{Name: "Y", Type: relation.TString},
			))
			for i := 0; i < n; i++ {
				r.MustInsert(relation.Int(int64(i*10+5)), relation.String(fmt.Sprintf("c%d", i)))
			}
			cat.Put(r)
			d := dict.New(cat)
			d.SetRules(synth.RuleSetOfSize(n))
			an := &query.Analysis{
				Conjunctive: true,
				Tables:      []string{"R"},
				Restrictions: []query.Restriction{{
					Attr: rules.Attr("R", "X"), Op: "=", Val: relation.Int(int64(n/2*10 + 5)),
					HasInterval: true, Interval: rules.Point(relation.Int(int64(n/2*10 + 5))),
				}},
			}
			p := infer.New(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Derive(an); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pointFleet is BenchmarkInferPoint's fixture, built once: the 60k-ship
// fleet (20 classes per type, 250 ships per class, seed 1) with its rules
// induced at Nc = 2, and the analyses of 64 point lookups on SHIP.Id
// spread over the fleet.
var pointFleet = sync.OnceValues(func() (*pointFixture, error) {
	cat := synth.Fleet(synth.FleetConfig{ClassesPerType: 20, ShipsPerClass: 250, Seed: 1})
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		return nil, err
	}
	set, err := induct.New(d, induct.Options{Nc: 2}).InduceAll()
	if err != nil {
		return nil, err
	}
	d.SetRules(set)
	ships, err := cat.Get(synth.FleetShip)
	if err != nil {
		return nil, err
	}
	ids, err := ships.Column("Id")
	if err != nil {
		return nil, err
	}
	q := query.New(cat, nil)
	fx := &pointFixture{p: infer.New(d)}
	for i := 0; i < 64; i++ {
		sql := fmt.Sprintf(`SELECT Id, Name, Class FROM SHIP WHERE Id = '%s'`, ids[i*len(ids)/64].Str())
		prep, err := q.Prepare(sql, nil)
		if err != nil {
			return nil, err
		}
		fx.analyses = append(fx.analyses, prep.Analysis)
	}
	return fx, nil
})

type pointFixture struct {
	p        *infer.Processor
	analyses []*query.Analysis
}

// BenchmarkInferPoint measures Derive for a point lookup on SHIP.Id over
// the benchmark-scale fleet: snapping the condition to the 60k observed
// ids and chaining through the induced rule base. The ids' sorted-value
// cache is filled before timing starts.
func BenchmarkInferPoint(b *testing.B) {
	fx, err := pointFleet()
	if err != nil {
		b.Fatal(err)
	}
	for _, an := range fx.analyses {
		if _, err := fx.p.Derive(an); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.p.Derive(fx.analyses[i%len(fx.analyses)]); err != nil {
			b.Fatal(err)
		}
	}
}

// runSQL prepares sql as written and executes it: the whole extensional
// path.
func runSQL(q *query.Processor, sql string) error {
	prep, err := q.Prepare(sql, nil)
	if err != nil {
		return err
	}
	_, err = prep.Run()
	return err
}

// benchQuery measures extensional query processing alone.
func benchQuery(b *testing.B, sql string) {
	q := query.New(shipdb.Catalog(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSQL(q, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryExample1/2/3 measure the extensional answers of
// Examples 1–3 (tables of Section 6).
func BenchmarkQueryExample1(b *testing.B) { benchQuery(b, example1SQL) }
func BenchmarkQueryExample2(b *testing.B) { benchQuery(b, example2SQL) }
func BenchmarkQueryExample3(b *testing.B) { benchQuery(b, example3SQL) }

// BenchmarkEndToEnd measures the full pipeline: parse, extensional
// answer, inference, rendering (Example 3, combined mode).
func BenchmarkEndToEnd(b *testing.B) {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		b.Fatal(err)
	}
	sys := intensional.New(cat, d)
	if _, err := sys.Induce(intensional.InduceOptions{Nc: 3}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(example3SQL, intensional.Combined); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Characteristics measures the per-type range induction
// behind Table 1 (E5).
func BenchmarkTable1Characteristics(b *testing.B) {
	cat := synth.Fleet(synth.FleetConfig{ClassesPerType: 10, ShipsPerClass: 10, Seed: 1})
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		b.Fatal(err)
	}
	cls, err := cat.Get(synth.FleetClass)
	if err != nil {
		b.Fatal(err)
	}
	in := induct.New(d, induct.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.InduceCharacteristics(cls, "Type", "Displacement",
			rules.Attr(synth.FleetClass, "Type"), rules.Attr(synth.FleetClass, "Displacement")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuleRelationRoundtrip measures the Section 5.2.2 encoding
// and decoding of the ship rule base (E8).
func BenchmarkRuleRelationRoundtrip(b *testing.B) {
	d := shipDict(b)
	set, err := induct.New(d, induct.Options{Nc: 1}).InduceAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := rules.Encode(set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rules.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinStrategy measures the relationship join induction runs,
// on the induction join sizes of study B1: one planned QUEL retrieve
// whose targets rename every column "Relation.Attribute", executed by
// the streaming hash join.
func BenchmarkJoinStrategy(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		l := relation.New("L", relation.MustSchema(
			relation.Column{Name: "K", Type: relation.TInt},
			relation.Column{Name: "A", Type: relation.TInt},
		))
		r := relation.New("R", relation.MustSchema(
			relation.Column{Name: "K2", Type: relation.TInt},
			relation.Column{Name: "B", Type: relation.TInt},
		))
		for i := 0; i < n; i++ {
			l.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%7)))
			r.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%11)))
		}
		cat := storage.NewCatalog()
		cat.Put(l)
		cat.Put(r)
		st := &quel.RetrieveStmt{Where: &quel.BinExpr{Op: "=",
			L: quel.ColOperand{Col: quel.ColRef{Var: "L", Attr: "K"}},
			R: quel.ColOperand{Col: quel.ColRef{Var: "R", Attr: "K2"}},
		}}
		for _, rel := range []*relation.Relation{l, r} {
			for _, c := range rel.Schema().Columns() {
				st.Target = append(st.Target, quel.Target{
					As:  rel.Name() + "." + c.Name,
					Col: quel.ColRef{Var: rel.Name(), Attr: c.Name},
				})
			}
		}
		ranges := map[string]string{"l": "L", "r": "R"}
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rp, err := quel.NewPlanner(cat, nil).PlanRetrieve(st, ranges)
				if err != nil {
					b.Fatal(err)
				}
				res, err := rp.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Rel.Len() != n {
					b.Fatalf("join = %d rows, want %d", res.Rel.Len(), n)
				}
			}
		})
	}
}

// BenchmarkDecisionTree measures the Quinlan-style tree inducer of
// ablation A5 on growing employee databases.
func BenchmarkDecisionTree(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			cat := synth.Employees(n, 1)
			emp, err := cat.Get(synth.Employee)
			if err != nil {
				b.Fatal(err)
			}
			attrs := []rules.AttrRef{rules.Attr(synth.Employee, "Age")}
			y := rules.Attr(synth.Employee, "Position")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := id3.Build(emp, []string{"Age"}, "Position", attrs, y,
					id3.Options{MinLeaf: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInduceComparisons measures inter-object comparison induction
// (experiment A4) on growing harbor databases.
func BenchmarkInduceComparisons(b *testing.B) {
	for _, visits := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("visits=%d", visits), func(b *testing.B) {
			cat := synth.Harbor(synth.HarborConfig{Ships: 100, Ports: 20, Visits: visits, Seed: 1})
			d, err := synth.HarborDictionary(cat)
			if err != nil {
				b.Fatal(err)
			}
			in := induct.New(d, induct.Options{Nc: 2})
			rel := d.Relationships()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.InduceComparisons(rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregateQuery measures the summarised-answer path (grouped
// aggregates over the joined ship data).
func BenchmarkAggregateQuery(b *testing.B) {
	q := query.New(shipdb.Catalog(), nil)
	const sql = `SELECT CLASS.Type, COUNT(*), MIN(Displacement), MAX(Displacement)
		FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class GROUP BY CLASS.Type`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runSQL(q, sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryStreaming is the streaming operator pipeline's
// allocation gate, on a wide multi-join query: two hash joins over
// 20k-row relations whose intermediate is large, a residual
// cross-variable filter, and a selective projection. Intermediate rows
// live one batch at a time, so B/op and allocs/op stay near the size of
// the inputs' hash tables; bench-check fails if they grow by a quarter.
func BenchmarkQueryStreaming(b *testing.B) {
	const n = 20000
	cat := storage.NewCatalog()
	mk := func(name, k, x string, mod int64) {
		r, err := cat.Create(name, relation.MustSchema(
			relation.Column{Name: k, Type: relation.TInt},
			relation.Column{Name: x, Type: relation.TInt},
		))
		if err != nil {
			b.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			r.MustInsert(relation.Int(i), relation.Int(i%mod))
		}
	}
	mk("A", "K", "G", 97)
	mk("B", "K", "V", 89)
	mk("C", "K", "W", 11)
	const sql = `SELECT A.K, C.W FROM A, B, C
		WHERE A.K = B.K AND B.K = C.K AND A.G = B.V`
	prep, err := query.New(cat, nil).Prepare(sql, nil)
	if err != nil {
		b.Fatal(err)
	}
	// K = i, G = i mod 97, V = i mod 89: the rows with i mod 97 = i mod 89.
	const want = 267
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := prep.Run()
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != want {
				b.Fatalf("streaming returned %d rows, want %d", got.Len(), want)
			}
		}
	})
}

// BenchmarkIndexedSelection measures the planner's lazy secondary index
// against the scan fallback for point queries on a large relation.
func BenchmarkIndexedSelection(b *testing.B) {
	const n = 120000
	cat := storage.NewCatalog()
	r, err := cat.Create("BIG", relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Int(int64(i)))
	}
	b.Run("indexed", func(b *testing.B) {
		sess := quel.NewSession(quel.NewPlanner(cat, nil))
		if _, err := sess.Exec("range of r is BIG"); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Exec("retrieve (r.K) where r.K = 60000"); err != nil {
			b.Fatal(err) // warm the index outside the timer
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec("retrieve (r.K) where r.K = 60000"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		pred, err := relation.Cmp(r.Schema(), "K", "=", relation.Int(60000))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := r.Select(pred); got.Len() != 1 {
				b.Fatal("scan mismatch")
			}
		}
	})
}

// inducedShipSystem builds the ship test bed with rules induced, for
// the planning benchmarks.
func inducedShipSystem(b *testing.B) *intensional.System {
	b.Helper()
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		b.Fatal(err)
	}
	sys := intensional.New(cat, d)
	if _, err := sys.Induce(intensional.InduceOptions{Nc: 3}); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkExplain measures plan rendering for Example 1: after the
// first call the statement is cached, so this is the steady-state cost
// of serving POST /explain.
func BenchmarkExplain(b *testing.B) {
	sys := inducedShipSystem(b)
	if _, err := sys.Explain(example1SQL); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Explain(example1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedHit measures a prepared-statement cache hit —
// normalize the SQL, look up the snapshot's plan — the per-request
// planning cost of a repeated /query statement.
func BenchmarkPreparedHit(b *testing.B) {
	sys := inducedShipSystem(b)
	if _, err := sys.Prepare(example1SQL); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Prepare(example1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryServedHit measures POST /query for a repeated Example 1
// statement through the server's whole middleware stack: the response
// and its encoded body are both cached, so this is the per-request cost
// of serving stored bytes.
func BenchmarkQueryServedHit(b *testing.B) {
	h := server.New(inducedShipSystem(b), server.Options{}).Handler()
	body := fmt.Sprintf(`{"sql":%q,"mode":"combined"}`, example1SQL)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	// The first request encodes the body, the second stores it.
	serve()
	serve()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkPreparedCold is the baseline BenchmarkPreparedHit is judged
// against: full parse, binding, analysis, and planning on every
// iteration, with no plan cache.
func BenchmarkPreparedCold(b *testing.B) {
	q := query.New(shipdb.Catalog(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Prepare(example1SQL, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveOpen measures relocation of database + knowledge (the
// Section 5.2.2 scenario).
func BenchmarkSaveOpen(b *testing.B) {
	cat := shipdb.Catalog()
	d, err := shipdb.Dictionary(cat)
	if err != nil {
		b.Fatal(err)
	}
	sys := intensional.New(cat, d)
	if _, err := sys.Induce(intensional.InduceOptions{Nc: 3}); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Save(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := intensional.Open(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInduceMaintainFleet times Maintain's locked re-induction on
// the benchmark's fleet (60 000 ships, Nc = 2) with one stale scheme,
// SHIP.Id → SHIP.Class. Each iteration first inserts, untimed, a ship
// whose Id falls inside one of that scheme's rules but whose Class
// differs, then times the pass that re-induces the scheme. Writers wait
// for this pass.
func BenchmarkInduceMaintainFleet(b *testing.B) {
	cat := intensional.FleetCatalog(20, 250, 1)
	d, err := intensional.FleetDictionary(cat)
	if err != nil {
		b.Fatal(err)
	}
	sys := intensional.New(cat, d)
	opts := intensional.InduceOptions{Nc: 2}
	if _, err := sys.Induce(opts); err != nil {
		b.Fatal(err)
	}
	scheme := rules.Scheme{X: rules.Attr("SHIP", "Id"), Y: rules.Attr("SHIP", "Class")}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idRules := sys.Rules().ByScheme(scheme)
		target, other := idRules[i%len(idRules)], idRules[(i+1)%len(idRules)]
		ins := fmt.Sprintf("INSERT INTO SHIP VALUES ('%sz', NULL, '%s')", target.LHS[0].Lo, other.RHS.Lo)
		if _, err := sys.Apply(ctx, ins); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := sys.Maintain(ctx, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Schemes) != 1 || res.Schemes[0] != scheme.Key() {
			b.Fatalf("re-induced schemes %v, want [%s]", res.Schemes, scheme.Key())
		}
	}
}
