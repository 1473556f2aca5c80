package exec

import (
	"context"
	"sort"

	"intensional/internal/relation"
)

// FullScan streams every row of a relation, in row order, one batch at
// a time. It emits the relation's own tuple headers — no copying.
type FullScan struct {
	rel    *relation.Relation
	onOpen func() // optional: scan-counter hook, fired once per run

	ctx context.Context
	pos int
}

// NewFullScan builds a full scan over rel. onOpen, when non-nil, fires
// once per Open (the full-scan counter hook).
func NewFullScan(rel *relation.Relation, onOpen func()) *FullScan {
	return &FullScan{rel: rel, onOpen: onOpen}
}

// Schema returns the scanned relation's schema.
func (s *FullScan) Schema() *relation.Schema { return s.rel.Schema() }

// Open positions the scan at the first row.
func (s *FullScan) Open(ctx context.Context) error {
	s.ctx = ctx
	s.pos = 0
	if s.onOpen != nil {
		s.onOpen()
	}
	return nil
}

// Next emits the next batch of rows.
func (s *FullScan) Next(b *Batch) error {
	b.Reset()
	if err := s.ctx.Err(); err != nil {
		return err
	}
	n := s.rel.Len()
	for s.pos < n && !b.Full() {
		b.Append(s.rel.Row(s.pos))
		s.pos++
	}
	return nil
}

// Close releases nothing; full scans hold no resources.
func (s *FullScan) Close() error { return nil }

// IndexScanHooks wires an index scan to the planner's observability:
// the scan and fallback counters. Every field is optional.
type IndexScanHooks struct {
	// OnIndexScan fires when the index serves the scan.
	OnIndexScan func()
	// OnFullScan fires when the scan degrades to a full scan.
	OnFullScan func()
	// OnFallback reports why the index could not serve the scan.
	OnFallback func(reason string)
}

// IndexScan streams the rows a secondary index selects for "column op
// value", in row order. The index is the relation's own (Relation.Index),
// fetched at Open, so a relation written since planning is served from
// an index of its current rows. If the relation cannot index the column,
// the scan degrades — loudly, through the hooks — to a full scan that
// re-checks the selection per row.
type IndexScan struct {
	rel   *relation.Relation
	col   int
	op    string
	val   relation.Value
	sel   Pred // the selection predicate, re-checked only in fallback mode
	hooks IndexScanHooks

	ctx      context.Context
	rows     []int // matched row positions when the index served
	pos      int
	fallback bool // degrade to full scan + sel recheck
}

// NewIndexScan builds an index scan over column col of rel. sel must
// decide the same "column op value" condition the index serves; it is
// consulted only when the scan degrades to a full scan.
func NewIndexScan(rel *relation.Relation, col int,
	op string, val relation.Value, sel Pred, hooks IndexScanHooks) *IndexScan {
	return &IndexScan{rel: rel, col: col, op: op, val: val, sel: sel, hooks: hooks}
}

// Schema returns the scanned relation's schema.
func (s *IndexScan) Schema() *relation.Schema { return s.rel.Schema() }

// Open performs the index lookup or arms the fallback full scan.
func (s *IndexScan) Open(ctx context.Context) error {
	s.ctx = ctx
	s.pos = 0
	s.fallback = false
	ix, err := s.rel.Index(s.col)
	var rows []int
	if err == nil {
		rows, err = ix.Lookup(s.op, s.val)
	}
	if err != nil {
		if s.hooks.OnFallback != nil {
			s.hooks.OnFallback(err.Error())
		}
		if s.hooks.OnFullScan != nil {
			s.hooks.OnFullScan()
		}
		s.fallback = true
		s.rows = nil
		return nil
	}
	if s.hooks.OnIndexScan != nil {
		s.hooks.OnIndexScan()
	}
	sort.Ints(rows) // restore row order for stable results
	s.rows = rows
	return nil
}

// Next emits the next batch of matching rows.
func (s *IndexScan) Next(b *Batch) error {
	b.Reset()
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if s.fallback {
		n := s.rel.Len()
		for s.pos < n && !b.Full() {
			t := s.rel.Row(s.pos)
			s.pos++
			if s.sel == nil || s.sel(t) {
				b.Append(t)
			}
		}
		return nil
	}
	for s.pos < len(s.rows) && !b.Full() {
		b.Append(s.rel.Row(s.rows[s.pos]))
		s.pos++
	}
	return nil
}

// Close drops the matched-row list.
func (s *IndexScan) Close() error {
	s.rows = nil
	return nil
}

// Values streams a fixed row list — the source for the zero-variable
// retrieve (one empty row) and a convenient test double.
type Values struct {
	schema *relation.Schema
	rows   []relation.Tuple

	ctx context.Context
	pos int
}

// NewValues builds a fixed-row source.
func NewValues(schema *relation.Schema, rows []relation.Tuple) *Values {
	return &Values{schema: schema, rows: rows}
}

// Schema returns the fixed rows' schema.
func (v *Values) Schema() *relation.Schema { return v.schema }

// Open positions the source at the first row.
func (v *Values) Open(ctx context.Context) error {
	v.ctx = ctx
	v.pos = 0
	return nil
}

// Next emits the next batch of fixed rows.
func (v *Values) Next(b *Batch) error {
	b.Reset()
	if err := v.ctx.Err(); err != nil {
		return err
	}
	for v.pos < len(v.rows) && !b.Full() {
		b.Append(v.rows[v.pos])
		v.pos++
	}
	return nil
}

// Close releases nothing.
func (v *Values) Close() error { return nil }

// Empty produces no rows at all — the operator form of a result the
// semantic optimizer proved empty. Its pipeline scans zero batches of
// anything.
type Empty struct {
	schema *relation.Schema
}

// NewEmpty builds a zero-row source with the given output schema.
func NewEmpty(schema *relation.Schema) *Empty {
	return &Empty{schema: schema}
}

// Schema returns the would-be output schema.
func (e *Empty) Schema() *relation.Schema { return e.schema }

// Open does nothing.
func (e *Empty) Open(context.Context) error { return nil }

// Next always reports end of stream.
func (e *Empty) Next(b *Batch) error {
	b.Reset()
	return nil
}

// Close releases nothing.
func (e *Empty) Close() error { return nil }
