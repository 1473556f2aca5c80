package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"intensional/internal/exec"
	"intensional/internal/relation"
)

func mustInsert(t *testing.T, r *relation.Relation, rows ...relation.Tuple) {
	t.Helper()
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
}

// numbers builds a relation K:int, V:string with rows (i, label(i)).
func numbers(t *testing.T, name string, n int, label func(int) string) *relation.Relation {
	t.Helper()
	r := relation.New(name, relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
		relation.Column{Name: "V", Type: relation.TString},
	))
	for i := 0; i < n; i++ {
		mustInsert(t, r, relation.Tuple{relation.Int(int64(i)), relation.String(label(i))})
	}
	return r
}

func collect(t *testing.T, op exec.Operator) []relation.Tuple {
	t.Helper()
	rows, err := exec.Collect(context.Background(), op, 0)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return rows
}

func keys(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// counting wraps an operator and counts Next calls, to prove early exit
// stops pulling.
type counting struct {
	exec.Operator
	nexts int
}

func (c *counting) Next(b *exec.Batch) error {
	c.nexts++
	return c.Operator.Next(b)
}

func TestFullScanStreamsInRowOrder(t *testing.T) {
	rel := numbers(t, "R", 3*exec.BatchSize+17, func(i int) string { return fmt.Sprint("v", i) })
	opens := 0
	rows := collect(t, exec.NewFullScan(rel, func() { opens++ }))
	if opens != 1 {
		t.Fatalf("onOpen fired %d times, want 1", opens)
	}
	if len(rows) != rel.Len() {
		t.Fatalf("got %d rows, want %d", len(rows), rel.Len())
	}
	for i, row := range rows {
		if row[0].Int64() != int64(i) {
			t.Fatalf("row %d out of order: %s", i, row)
		}
	}
}

func TestIndexScanServesFromIndex(t *testing.T) {
	rel := numbers(t, "R", 100, func(i int) string { return fmt.Sprint("v", i%7) })
	var indexScans, fullScans int
	op := exec.NewIndexScan(rel, 0, ">=", relation.Int(97), nil, exec.IndexScanHooks{
		OnIndexScan: func() { indexScans++ },
		OnFullScan:  func() { fullScans++ },
	})
	rows := collect(t, op)
	if indexScans != 1 || fullScans != 0 {
		t.Fatalf("indexScans=%d fullScans=%d, want 1/0", indexScans, fullScans)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i, row := range rows {
		if row[0].Int64() != int64(97+i) {
			t.Fatalf("row %d: got %s, want K=%d (row order)", i, row, 97+i)
		}
	}
}

// TestIndexScanRebuildsStaleIndexOnce: a row inserted in place after
// the relation's index was built is seen by the next scan, which is
// served by one rebuilt index that later scans share.
func TestIndexScanRebuildsStaleIndexOnce(t *testing.T) {
	rel := numbers(t, "R", 50, func(i int) string { return "x" })
	planned, err := rel.Index(0)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, rel, relation.Tuple{relation.Int(7), relation.String("dup")})
	indexScans := 0
	hooks := exec.IndexScanHooks{
		OnIndexScan: func() { indexScans++ },
		OnFallback:  func(reason string) { t.Fatalf("unexpected fallback: %s", reason) },
	}
	rows := collect(t, exec.NewIndexScan(rel, 0, "=", relation.Int(7), nil, hooks))
	if indexScans != 1 {
		t.Fatalf("indexScans=%d, want 1", indexScans)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (original 7 plus the duplicate)", len(rows))
	}
	rebuilt, err := rel.Index(0)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == planned || !rebuilt.Fresh() {
		t.Fatalf("index after the insert: same as before = %v, fresh = %v; want a new, fresh one",
			rebuilt == planned, rebuilt.Fresh())
	}
	collect(t, exec.NewIndexScan(rel, 0, "=", relation.Int(7), nil, hooks))
	if again, _ := rel.Index(0); again != rebuilt {
		t.Error("a second scan rebuilt the index again")
	}
}

// TestIndexScanFallsBackLoudly: a column the relation refuses to index
// (here, one holding a NaN) degrades the scan to a full scan that
// re-checks the selection, and says why.
func TestIndexScanFallsBackLoudly(t *testing.T) {
	rel := relation.New("F", relation.MustSchema(relation.Column{Name: "X", Type: relation.TFloat}))
	for i := 0; i < 30; i++ {
		mustInsert(t, rel, relation.Tuple{relation.Float(float64(i))})
	}
	mustInsert(t, rel, relation.Tuple{relation.Float(5)}, relation.Tuple{relation.Float(math.NaN())})
	var reason string
	fullScans := 0
	op := exec.NewIndexScan(rel, 0, "=", relation.Float(5),
		func(tu relation.Tuple) bool { return tu[0].Float64() == 5 },
		exec.IndexScanHooks{
			OnIndexScan: func() { t.Fatal("index scan fired for an unindexable column") },
			OnFullScan:  func() { fullScans++ },
			OnFallback:  func(r string) { reason = r },
		})
	rows := collect(t, op)
	if fullScans != 1 {
		t.Fatalf("fullScans=%d, want 1", fullScans)
	}
	if !strings.Contains(reason, "NaN") {
		t.Fatalf("fallback reason %q does not mention the NaN", reason)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (selection re-checked during fallback)", len(rows))
	}
}

func TestFilterRefillsBatches(t *testing.T) {
	rel := numbers(t, "R", 4*exec.BatchSize, func(i int) string { return "x" })
	op := exec.NewFilter(func(tu relation.Tuple) bool { return tu[0].Int64()%2 == 0 },
		exec.NewFullScan(rel, nil))
	rows := collect(t, op)
	if len(rows) != 2*exec.BatchSize {
		t.Fatalf("got %d rows, want %d", len(rows), 2*exec.BatchSize)
	}
	for i, row := range rows {
		if row[0].Int64() != int64(2*i) {
			t.Fatalf("row %d: got %s", i, row)
		}
	}
}

func TestProjectRowsAreRetainable(t *testing.T) {
	rel := numbers(t, "R", 2*exec.BatchSize, func(i int) string { return fmt.Sprint("v", i) })
	schema := relation.MustSchema(relation.Column{Name: "V", Type: relation.TString})
	op := exec.NewProject(schema, []int{1}, exec.NewFullScan(rel, nil))
	rows := collect(t, op)
	if len(rows) != rel.Len() {
		t.Fatalf("got %d rows, want %d", len(rows), rel.Len())
	}
	// Rows collected from earlier batches must not have been overwritten
	// by later ones — the arena contract.
	for i, row := range rows {
		if len(row) != 1 || row[0].String() != fmt.Sprint("v", i) {
			t.Fatalf("row %d was clobbered: %s", i, row)
		}
	}
	// An identity projection hands the input tuples through uncopied.
	ident := collect(t, exec.NewProject(rel.Schema(), []int{0, 1}, exec.NewFullScan(rel, nil)))
	if len(ident) != rel.Len() || &ident[0][0] != &rel.Row(0)[0] {
		t.Error("identity projection copied its input rows")
	}
}

func TestDistinctKeepsFirstOccurrence(t *testing.T) {
	rel := numbers(t, "R", 300, func(i int) string { return fmt.Sprint("v", i%5) })
	schema := relation.MustSchema(relation.Column{Name: "V", Type: relation.TString})
	op := exec.NewDistinct(
		exec.NewProject(schema, []int{1}, exec.NewFullScan(rel, nil)))
	rows := collect(t, op)
	if len(rows) != 5 {
		t.Fatalf("got %d distinct rows, want 5", len(rows))
	}
	for i, row := range rows {
		if row[0].String() != fmt.Sprint("v", i) {
			t.Fatalf("distinct row %d: got %s, want first-seen order", i, row)
		}
	}
}

func TestSortOrdersAndIsStable(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
		relation.Column{Name: "Seq", Type: relation.TInt},
	))
	for i := 0; i < 400; i++ {
		mustInsert(t, rel, relation.Tuple{relation.Int(int64(i % 3)), relation.Int(int64(i))})
	}
	op := exec.NewSort([]exec.SortSpec{{Col: 0, Desc: true}}, exec.NewFullScan(rel, nil))
	rows := collect(t, op)
	if len(rows) != 400 {
		t.Fatalf("got %d rows, want 400", len(rows))
	}
	lastK, lastSeq := int64(3), int64(-1)
	for i, row := range rows {
		k, seq := row[0].Int64(), row[1].Int64()
		if k > lastK {
			t.Fatalf("row %d: key %d after %d in a descending sort", i, k, lastK)
		}
		if k == lastK && seq < lastSeq {
			t.Fatalf("row %d: sort is not stable (seq %d after %d)", i, seq, lastSeq)
		}
		if k < lastK {
			lastSeq = -1
		}
		lastK, lastSeq = k, seq
	}
}

func TestHashJoinMatchesNestedLoopReference(t *testing.T) {
	left := numbers(t, "L", 200, func(i int) string { return fmt.Sprint("l", i) })
	right := relation.New("R2", relation.MustSchema(
		relation.Column{Name: "K2", Type: relation.TInt},
		relation.Column{Name: "W", Type: relation.TString},
	))
	for i := 0; i < 300; i++ {
		mustInsert(t, right, relation.Tuple{relation.Int(int64(i % 50)), relation.String(fmt.Sprint("r", i))})
	}
	schema := relation.MustSchema(
		relation.Column{Name: "K", Type: relation.TInt},
		relation.Column{Name: "V", Type: relation.TString},
		relation.Column{Name: "K2", Type: relation.TInt},
		relation.Column{Name: "W", Type: relation.TString},
	)
	op := exec.NewHashJoin(schema,
		exec.NewFullScan(left, nil), exec.NewFullScan(right, nil),
		exec.KeyOf([]int{0}), exec.KeyOf([]int{0}))
	got := collect(t, op)

	// Reference: probe order outer, build arrival order inner.
	var want []string
	for _, l := range left.Rows() {
		for _, r := range right.Rows() {
			if l[0].Equal(r[0]) {
				want = append(want, append(l.Clone(), r...).String())
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i, k := range keys(got) {
		if k != want[i] {
			t.Fatalf("row %d: got %s, want %s", i, k, want[i])
		}
	}
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	left := numbers(t, "L", 100, func(i int) string { return "x" })
	right := numbers(t, "R", 0, nil)
	schema := relation.MustSchema(
		relation.Column{Name: "A", Type: relation.TInt},
		relation.Column{Name: "B", Type: relation.TString},
		relation.Column{Name: "C", Type: relation.TInt},
		relation.Column{Name: "D", Type: relation.TString},
	)
	op := exec.NewHashJoin(schema,
		exec.NewFullScan(left, nil), exec.NewFullScan(right, nil),
		exec.KeyOf([]int{0}), exec.KeyOf([]int{0}))
	if rows := collect(t, op); len(rows) != 0 {
		t.Fatalf("got %d rows from an empty build side", len(rows))
	}
}

func TestCrossJoinPairsEverything(t *testing.T) {
	left := numbers(t, "L", 7, func(i int) string { return "l" })
	right := numbers(t, "R", 11, func(i int) string { return "r" })
	schema := relation.MustSchema(
		relation.Column{Name: "A", Type: relation.TInt},
		relation.Column{Name: "B", Type: relation.TString},
		relation.Column{Name: "C", Type: relation.TInt},
		relation.Column{Name: "D", Type: relation.TString},
	)
	op := exec.NewCrossJoin(schema,
		exec.NewFullScan(left, nil), exec.NewFullScan(right, nil))
	rows := collect(t, op)
	if len(rows) != 7*11 {
		t.Fatalf("got %d rows, want %d", len(rows), 7*11)
	}
	// Probe-major order: row i pairs left[i/11] with right[i%11].
	for i, row := range rows {
		if row[0].Int64() != int64(i/11) || row[2].Int64() != int64(i%11) {
			t.Fatalf("row %d: got %s", i, row)
		}
	}

	empty := numbers(t, "E", 0, nil)
	op = exec.NewCrossJoin(schema,
		exec.NewFullScan(left, nil), exec.NewFullScan(empty, nil))
	if rows := collect(t, op); len(rows) != 0 {
		t.Fatalf("got %d rows from an empty build side", len(rows))
	}
}

func TestAggregateSemantics(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "G", Type: relation.TString},
		relation.Column{Name: "N", Type: relation.TInt},
	))
	mustInsert(t, rel,
		relation.Tuple{relation.String("b"), relation.Int(10)},
		relation.Tuple{relation.String("a"), relation.Null()},
		relation.Tuple{relation.String("b"), relation.Int(4)},
		relation.Tuple{relation.String("a"), relation.Int(2)},
	)
	schema := relation.MustSchema(
		relation.Column{Name: "G", Type: relation.TString},
		relation.Column{Name: "Stars", Type: relation.TInt},
		relation.Column{Name: "Ns", Type: relation.TInt},
		relation.Column{Name: "Sum", Type: relation.TInt},
		relation.Column{Name: "Avg", Type: relation.TFloat},
		relation.Column{Name: "Min", Type: relation.TInt},
		relation.Column{Name: "Max", Type: relation.TInt},
	)
	items := []exec.AggItem{
		{Kind: exec.AggGroup, Arg: 0},
		{Kind: exec.AggCount, Arg: -1},
		{Kind: exec.AggCount, Arg: 1},
		{Kind: exec.AggSum, Arg: 1},
		{Kind: exec.AggAvg, Arg: 1},
		{Kind: exec.AggMin, Arg: 1},
		{Kind: exec.AggMax, Arg: 1},
	}
	op := exec.NewAggregate(schema, []int{0}, items, exec.NewFullScan(rel, nil))
	rows := collect(t, op)
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2", len(rows))
	}
	// Groups come in first-seen order: b before a.
	b, a := rows[0], rows[1]
	if b[0].String() != "b" || a[0].String() != "a" {
		t.Fatalf("group order: got %s then %s, want b then a", b[0], a[0])
	}
	if b[1].Int64() != 2 || b[2].Int64() != 2 || b[3].Int64() != 14 ||
		b[4].Float64() != 7 || b[5].Int64() != 4 || b[6].Int64() != 10 {
		t.Fatalf("group b: got %s", b)
	}
	// COUNT(*) counts the null row, COUNT(N) does not.
	if a[1].Int64() != 2 || a[2].Int64() != 1 || a[3].Int64() != 2 {
		t.Fatalf("group a: got %s", a)
	}

	// Grand total over empty input still emits one row; SUM/AVG are null.
	emptyRel := numbers(t, "E", 0, nil)
	gtSchema := relation.MustSchema(
		relation.Column{Name: "Count", Type: relation.TInt},
		relation.Column{Name: "Sum", Type: relation.TInt},
	)
	op = exec.NewAggregate(gtSchema, nil,
		[]exec.AggItem{{Kind: exec.AggCount, Arg: -1}, {Kind: exec.AggSum, Arg: 0}},
		exec.NewFullScan(emptyRel, nil))
	rows = collect(t, op)
	if len(rows) != 1 {
		t.Fatalf("grand total over empty input: got %d rows, want 1", len(rows))
	}
	if rows[0][0].Int64() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("grand total: got %s, want (0, null)", rows[0])
	}
}

func TestDrainEarlyExitStopsPipeline(t *testing.T) {
	rel := numbers(t, "R", 20*exec.BatchSize, func(i int) string { return "x" })
	src := &counting{Operator: exec.NewFullScan(rel, nil)}
	n := 0
	err := exec.Drain(context.Background(), src, func(relation.Tuple) bool {
		n++
		return n < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("yield saw %d rows, want 5", n)
	}
	if src.nexts != 1 {
		t.Fatalf("source Next called %d times after early exit, want 1", src.nexts)
	}
}

func TestDrainHonorsCancellation(t *testing.T) {
	rel := numbers(t, "R", 10*exec.BatchSize, func(i int) string { return "x" })
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := exec.Drain(ctx, exec.NewFullScan(rel, nil), func(relation.Tuple) bool {
		n++
		if n == exec.BatchSize {
			cancel() // takes effect at the next batch boundary
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if n >= 10*exec.BatchSize {
		t.Fatalf("drain consumed the whole input despite cancellation")
	}
}

func TestValuesAndEmpty(t *testing.T) {
	schema := relation.MustSchema(relation.Column{Name: "K", Type: relation.TInt})
	rows := collect(t, exec.NewValues(schema, []relation.Tuple{
		{relation.Int(1)}, {relation.Int(2)},
	}))
	if len(rows) != 2 || rows[0][0].Int64() != 1 || rows[1][0].Int64() != 2 {
		t.Fatalf("values: got %v", keys(rows))
	}
	if rows := collect(t, exec.NewEmpty(schema)); len(rows) != 0 {
		t.Fatalf("empty emitted %d rows", len(rows))
	}
}
