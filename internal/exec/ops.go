package exec

import (
	"context"
	"sort"

	"intensional/internal/relation"
)

// Filter streams the input rows satisfying a predicate. One Next call
// pulls as many input batches as it takes to fill the output batch (or
// hit end of stream), so a selective filter still hands its consumer
// full batches.
type Filter struct {
	pred  Pred
	input Operator

	child *Batch // pooled scratch
	ci    int
	done  bool
}

// NewFilter builds a filter.
func NewFilter(pred Pred, input Operator) *Filter {
	return &Filter{pred: pred, input: input}
}

// Schema returns the input schema (filtering preserves row type).
func (f *Filter) Schema() *relation.Schema { return f.input.Schema() }

// Open opens the input.
func (f *Filter) Open(ctx context.Context) error {
	f.done = false
	f.ci = 0
	f.child = getBatch()
	return f.input.Open(ctx)
}

// Next emits the next batch of qualifying rows.
func (f *Filter) Next(b *Batch) error {
	b.Reset()
	for !b.Full() && !f.done {
		if f.ci >= f.child.Len() {
			if err := f.input.Next(f.child); err != nil {
				return err
			}
			if f.child.Len() == 0 {
				f.done = true
				break
			}
			f.ci = 0
		}
		t := f.child.Row(f.ci)
		f.ci++
		if f.pred(t) {
			b.Append(t)
		}
	}
	return nil
}

// Close releases the scratch batch and the input.
func (f *Filter) Close() error {
	putBatch(f.child)
	f.child = nil
	return f.input.Close()
}

// Project streams a column subset (or reordering) of its input, carving
// output rows out of one arena allocation per batch. An identity
// projection — every input column, in order — passes input rows through
// uncopied: published tuples are immutable, so sharing one is safe.
type Project struct {
	schema   *relation.Schema
	cols     []int // input column position per output column
	input    Operator
	identity bool

	out   arena
	child *Batch
	ci    int
	done  bool
}

// NewProject builds a projection; cols maps each output column to its
// input position.
func NewProject(schema *relation.Schema, cols []int, input Operator) *Project {
	identity := len(cols) == input.Schema().Len()
	for i, c := range cols {
		identity = identity && c == i
	}
	return &Project{schema: schema, cols: cols, input: input, identity: identity}
}

// Schema returns the projected output schema.
func (p *Project) Schema() *relation.Schema { return p.schema }

// Open opens the input.
func (p *Project) Open(ctx context.Context) error {
	p.done = false
	p.ci = 0
	p.out = newArena(len(p.cols))
	p.child = getBatch()
	return p.input.Open(ctx)
}

// Next emits the next batch of projected rows.
func (p *Project) Next(b *Batch) error {
	b.Reset()
	if p.done {
		return nil
	}
	for !b.Full() {
		if p.ci >= p.child.Len() {
			if err := p.input.Next(p.child); err != nil {
				return err
			}
			if p.child.Len() == 0 {
				p.done = true
				return nil
			}
			p.ci = 0
		}
		t := p.child.Row(p.ci)
		p.ci++
		if p.identity {
			b.Append(t)
			continue
		}
		row := p.out.next()
		for i, src := range p.cols {
			row[i] = t[src]
		}
		b.Append(row)
	}
	return nil
}

// Close releases the scratch batch and the input.
func (p *Project) Close() error {
	putBatch(p.child)
	p.child = nil
	return p.input.Close()
}

// Distinct streams the first occurrence of each distinct row, tracking
// seen keys as it goes — no buffering of the rows themselves.
type Distinct struct {
	input Operator

	seen  map[string]struct{}
	child *Batch
	ci    int
	done  bool
}

// NewDistinct builds a duplicate eliminator.
func NewDistinct(input Operator) *Distinct {
	return &Distinct{input: input}
}

// Schema returns the input schema.
func (d *Distinct) Schema() *relation.Schema { return d.input.Schema() }

// Open opens the input and resets the seen set.
func (d *Distinct) Open(ctx context.Context) error {
	d.done = false
	d.ci = 0
	d.seen = make(map[string]struct{}, BatchSize)
	d.child = getBatch()
	return d.input.Open(ctx)
}

// Next emits the next batch of first-seen rows.
func (d *Distinct) Next(b *Batch) error {
	b.Reset()
	for !b.Full() && !d.done {
		if d.ci >= d.child.Len() {
			if err := d.input.Next(d.child); err != nil {
				return err
			}
			if d.child.Len() == 0 {
				d.done = true
				break
			}
			d.ci = 0
		}
		t := d.child.Row(d.ci)
		d.ci++
		k := t.Key()
		if _, dup := d.seen[k]; dup {
			continue
		}
		d.seen[k] = struct{}{}
		b.Append(t)
	}
	return nil
}

// Close releases the seen set, the scratch batch, and the input.
func (d *Distinct) Close() error {
	d.seen = nil
	putBatch(d.child)
	d.child = nil
	return d.input.Close()
}

// SortSpec orders one column of a Sort operator's input.
type SortSpec struct {
	Col  int
	Desc bool
}

// Sort orders its whole input — the one operator that materializes by
// necessity, which is why the planner keeps it last in the tree. Rows
// are buffered on the first Next and emitted in batches; ordering is
// stable and null-first (relation.SortCompare).
type Sort struct {
	keys  []SortSpec
	input Operator

	ctx    context.Context
	rows   []relation.Tuple
	sorted bool
	pos    int
}

// NewSort builds a sort.
func NewSort(keys []SortSpec, input Operator) *Sort {
	return &Sort{keys: keys, input: input}
}

// Schema returns the input schema.
func (s *Sort) Schema() *relation.Schema { return s.input.Schema() }

// Open opens the input.
func (s *Sort) Open(ctx context.Context) error {
	s.ctx = ctx
	s.rows = nil
	s.sorted = false
	s.pos = 0
	return s.input.Open(ctx)
}

// Next drains and sorts the input on first call, then emits batches of
// ordered rows.
func (s *Sort) Next(b *Batch) error {
	b.Reset()
	if !s.sorted {
		sb := getBatch()
		defer putBatch(sb)
		for {
			if err := s.ctx.Err(); err != nil {
				return err
			}
			if err := s.input.Next(sb); err != nil {
				return err
			}
			if sb.Len() == 0 {
				break
			}
			for i := 0; i < sb.Len(); i++ {
				s.rows = append(s.rows, sb.Row(i))
			}
		}
		sort.SliceStable(s.rows, func(a, b int) bool {
			for _, k := range s.keys {
				c := relation.SortCompare(s.rows[a][k.Col], s.rows[b][k.Col])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		s.sorted = true
	}
	for s.pos < len(s.rows) && !b.Full() {
		b.Append(s.rows[s.pos])
		s.pos++
	}
	return nil
}

// Close releases the buffered rows and the input.
func (s *Sort) Close() error {
	s.rows = nil
	return s.input.Close()
}
