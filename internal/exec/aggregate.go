package exec

import (
	"context"
	"strings"

	"intensional/internal/relation"
)

// AggKind selects what one output column of an Aggregate computes.
type AggKind uint8

const (
	// AggGroup passes a GROUP BY column's value through.
	AggGroup AggKind = iota
	// AggCount counts rows (Arg < 0, COUNT(*)) or non-null arguments.
	AggCount
	// AggSum sums non-null arguments; null over an empty group.
	AggSum
	// AggAvg averages non-null arguments; null over an empty group.
	AggAvg
	// AggMin takes the smallest non-null argument.
	AggMin
	// AggMax takes the largest non-null argument.
	AggMax
)

// AggItem is one output column of an Aggregate: what to compute and the
// input column it reads (-1 for COUNT(*)).
type AggItem struct {
	Kind AggKind
	Arg  int
}

// Aggregate groups its input on the GroupBy columns and folds each
// group through the item accumulators. It materializes only the group
// accumulators and the (one-row-per-group) output — the input streams
// through. Groups are emitted in first-seen input order. With no
// GroupBy columns, exactly one row is produced even on empty input —
// SQL's grand-total rule.
type Aggregate struct {
	schema  *relation.Schema
	groupBy []int
	items   []AggItem
	input   Operator

	keyIdx []int // per AggGroup item: position of Arg in groupBy; -1 otherwise

	ctx   context.Context
	out   []relation.Tuple
	pos   int
	ready bool
}

// NewAggregate builds an aggregation. groupBy lists the input columns to
// group on; items define the output columns in order.
func NewAggregate(schema *relation.Schema, groupBy []int, items []AggItem, input Operator) *Aggregate {
	keyIdx := make([]int, len(items))
	for i, it := range items {
		keyIdx[i] = -1
		if it.Kind != AggGroup {
			continue
		}
		for gi, gp := range groupBy {
			if gp == it.Arg {
				keyIdx[i] = gi
				break
			}
		}
	}
	return &Aggregate{schema: schema, groupBy: groupBy, items: items,
		input: input, keyIdx: keyIdx}
}

// Schema returns the aggregate output schema.
func (a *Aggregate) Schema() *relation.Schema { return a.schema }

// Open opens the input.
func (a *Aggregate) Open(ctx context.Context) error {
	a.ctx = ctx
	a.out = nil
	a.pos = 0
	a.ready = false
	return a.input.Open(ctx)
}

// acc accumulates one group across every item.
type acc struct {
	key      []relation.Value
	count    []int64
	sumI     []int64
	sumF     []float64
	isFloat  []bool
	min, max []relation.Value
}

func newAcc(key []relation.Value, n int) *acc {
	return &acc{
		key:   key,
		count: make([]int64, n), sumI: make([]int64, n), sumF: make([]float64, n),
		isFloat: make([]bool, n),
		min:     make([]relation.Value, n), max: make([]relation.Value, n),
	}
}

// Next folds the whole input on the first call and then emits the
// grouped output in batches.
func (a *Aggregate) Next(b *Batch) error {
	b.Reset()
	if !a.ready {
		if err := a.fold(); err != nil {
			return err
		}
		a.ready = true
	}
	for a.pos < len(a.out) && !b.Full() {
		b.Append(a.out[a.pos])
		a.pos++
	}
	return nil
}

func (a *Aggregate) fold() error {
	groups := map[string]*acc{}
	var order []string // first-seen group emission order
	in := getBatch()
	defer putBatch(in)
	for {
		if err := a.ctx.Err(); err != nil {
			return err
		}
		if err := a.input.Next(in); err != nil {
			return err
		}
		if in.Len() == 0 {
			break
		}
		for r := 0; r < in.Len(); r++ {
			row := in.Row(r)
			var kb strings.Builder
			key := make([]relation.Value, len(a.groupBy))
			for i, gp := range a.groupBy {
				key[i] = row[gp]
				kb.WriteString(row[gp].Key())
				kb.WriteByte('\x1f')
			}
			k := kb.String()
			g, ok := groups[k]
			if !ok {
				g = newAcc(key, len(a.items))
				groups[k] = g
				order = append(order, k)
			}
			for i, it := range a.items {
				if it.Kind == AggGroup {
					continue
				}
				if it.Arg < 0 { // COUNT(*)
					g.count[i]++
					continue
				}
				v := row[it.Arg]
				if v.IsNull() {
					continue
				}
				g.count[i]++
				switch v.Kind() {
				case relation.KindInt:
					g.sumI[i] += v.Int64()
					g.sumF[i] += v.Float64()
				case relation.KindFloat:
					g.isFloat[i] = true
					g.sumF[i] += v.Float64()
				}
				if g.min[i].IsNull() || v.Less(g.min[i]) {
					g.min[i] = v
				}
				if g.max[i].IsNull() || g.max[i].Less(v) {
					g.max[i] = v
				}
			}
		}
	}
	// A grand total (no GROUP BY) produces exactly one row, even when
	// the input is empty.
	if len(a.groupBy) == 0 && len(groups) == 0 {
		groups[""] = newAcc(nil, len(a.items))
		order = append(order, "")
	}

	a.out = make([]relation.Tuple, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := make(relation.Tuple, len(a.items))
		for i, it := range a.items {
			switch it.Kind {
			case AggGroup:
				if gi := a.keyIdx[i]; gi >= 0 {
					row[i] = g.key[gi]
				}
			case AggCount:
				row[i] = relation.Int(g.count[i])
			case AggSum:
				if g.count[i] == 0 {
					row[i] = relation.Null()
				} else if g.isFloat[i] {
					row[i] = relation.Float(g.sumF[i])
				} else {
					row[i] = relation.Int(g.sumI[i])
				}
			case AggAvg:
				if g.count[i] == 0 {
					row[i] = relation.Null()
				} else {
					row[i] = relation.Float(g.sumF[i] / float64(g.count[i]))
				}
			case AggMin:
				row[i] = g.min[i]
			case AggMax:
				row[i] = g.max[i]
			}
		}
		a.out = append(a.out, row)
	}
	return nil
}

// Close releases the grouped output and the input.
func (a *Aggregate) Close() error {
	a.out = nil
	return a.input.Close()
}
