// Package exec is the streaming execution layer: a tree of batched
// iterators that produces query results without materializing every
// intermediate relation. Each operator implements the Open/Next/Close
// contract and carries its output schema, mirroring the typed plan.Plan
// nodes the planner builds. A Tree pairs each plan node with the factory
// of the operator that executes it — the lowering builds both in one
// pass, so an operator tree is constructed directly from the plan nodes
// it executes and the plan EXPLAIN renders is exactly the tree that
// runs.
//
// # Iterator contract
//
// Open prepares the operator (and its inputs) for one run; Next fills
// the caller's Batch with up to BatchSize rows, an empty batch meaning
// end of stream; Close releases resources. A tree is single-use: build
// a fresh one per execution. Close is idempotent and safe on an
// operator whose Open failed partway.
//
// Rows flow as relation.Tuple headers. Operators that synthesize rows
// (joins, projections) carve them out of one per-batch value arena, so
// a consumer may retain any emitted tuple indefinitely while the
// pipeline still allocates per batch, not per row. Batches themselves
// are pooled scratch buffers: an operator must copy the tuple headers
// it wants to keep across Next calls (the backing values are stable).
//
// # Early exit and cancellation
//
// A consumer that stops pulling terminates the whole pipeline — no
// operator computes rows nobody asked for, which is what makes
// existence-style probes cheap. Context cancellation is
// checked at batch boundaries (in the source operators and in Drain),
// never per row, so cancellation costs nothing on the hot path and
// still stops a run within one batch.
//
// # What still materializes
//
// Sort buffers its whole input before emitting (a total order needs
// every row), and HashJoin/CrossJoin materialize their build (right)
// side into the hash table. Everything else streams.
package exec

import (
	"context"
	"sync"

	"intensional/internal/plan"
	"intensional/internal/relation"
)

// BatchSize is the number of rows one Next call delivers at most —
// large enough to amortize per-call overhead across rows, small enough
// that in-flight memory stays a constant independent of input
// cardinality.
const BatchSize = 256

// Batch is a bounded buffer of rows flowing between operators. The
// producer resets and fills it; the consumer reads Len rows. Tuple
// headers in a batch are overwritten by the next Next call, but the
// values they point at are stable — copy the header to keep a row.
type Batch struct {
	rows []relation.Tuple
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns the i-th row.
func (b *Batch) Row(i int) relation.Tuple { return b.rows[i] }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.rows = b.rows[:0] }

// Append adds a row to the batch.
func (b *Batch) Append(t relation.Tuple) { b.rows = append(b.rows, t) }

// Full reports whether the batch has reached BatchSize rows.
func (b *Batch) Full() bool { return len(b.rows) >= BatchSize }

// batchPool recycles batch buffers across operators and runs — the hot
// query path allocates no new batch once the pool is warm.
var batchPool = sync.Pool{
	New: func() any { return &Batch{rows: make([]relation.Tuple, 0, BatchSize)} },
}

func getBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	return b
}

func putBatch(b *Batch) {
	if b != nil {
		batchPool.Put(b)
	}
}

// Operator is one node of a streaming execution tree. See the package
// comment for the contract.
type Operator interface {
	// Open prepares the operator and its inputs for one run.
	Open(ctx context.Context) error
	// Next fills b with up to BatchSize rows; an empty batch is end of
	// stream. b is reset by the callee.
	Next(b *Batch) error
	// Close releases resources. Idempotent; safe after a failed Open.
	Close() error
	// Schema is the operator's output row type, carried the same way
	// plan.Plan nodes carry theirs.
	Schema() *relation.Schema
}

// Tree is the executable form of one planned statement: the root of the
// plan tree EXPLAIN renders, paired with the factory of the operator tree
// that executes exactly that node. Each call to New builds a fresh
// single-use operator tree, so one Tree — immutable once built — serves
// any number of concurrent runs.
type Tree struct {
	Node plan.Node
	New  func() Operator
}

// Wrap tops t with node, whose operator op builds over a fresh instance
// of t's operator tree. node must take t.Node as its input.
func (t Tree) Wrap(node plan.Node, op func(input Operator) Operator) Tree {
	input := t.New
	return Tree{Node: node, New: func() Operator { return op(input()) }}
}

// Run executes a fresh operator tree to completion and returns its rows
// as a relation called name.
func (t Tree) Run(ctx context.Context, name string) (*relation.Relation, error) {
	op := t.New()
	rows, err := Collect(ctx, op, t.Node.EstRows())
	if err != nil {
		return nil, err
	}
	return relation.FromRows(name, op.Schema(), rows), nil
}

// Pred decides whether a row qualifies.
type Pred func(relation.Tuple) bool

// KeyFn appends a row's hash key (join keys) to dst and returns the
// extended buffer. Callers pass a reused scratch buffer, so building a
// key allocates nothing.
type KeyFn func(dst []byte, t relation.Tuple) []byte

// KeyOf returns a KeyFn over the given column positions, composing
// each value's collision-free Key.
func KeyOf(cols []int) KeyFn {
	if len(cols) == 1 {
		// Single-column keys (the common join) need no composition: a
		// value's Key is already collision-free on its own.
		c := cols[0]
		return func(dst []byte, t relation.Tuple) []byte { return t[c].AppendKey(dst) }
	}
	return func(dst []byte, t relation.Tuple) []byte {
		for _, c := range cols {
			dst = append(t[c].AppendKey(dst), '\x1f')
		}
		return dst
	}
}

// Drain opens op, streams every row into yield, and closes it. A yield
// returning false stops the pipeline early: no further batch is pulled
// from any operator. The context is checked once per batch. Drain
// always closes the tree; the first error wins.
func Drain(ctx context.Context, op Operator, yield func(relation.Tuple) bool) error {
	err := drain(ctx, op, yield)
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	return err
}

func drain(ctx context.Context, op Operator, yield func(relation.Tuple) bool) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	b := getBatch()
	defer putBatch(b)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op.Next(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		for i := 0; i < b.Len(); i++ {
			if !yield(b.Row(i)) {
				return nil
			}
		}
	}
}

// Collect drains op into a row slice. sizeHint pre-sizes the slice; it
// is a hint, not a bound.
func Collect(ctx context.Context, op Operator, sizeHint int) ([]relation.Tuple, error) {
	if sizeHint < 0 {
		sizeHint = 0
	}
	if sizeHint > 4096 {
		sizeHint = 4096
	}
	rows := make([]relation.Tuple, 0, sizeHint)
	err := Drain(ctx, op, func(t relation.Tuple) bool {
		rows = append(rows, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// arena carves output tuples out of flat value chunks — one allocation
// per chunk, not per row. Chunks grow geometrically from a few rows up
// to BatchSize, so a tiny result allocates a tiny chunk while a long
// stream settles at one allocation per batch. Carved tuples are full
// slices the consumer may retain indefinitely: handed-out memory is
// never reused, the arena only carves forward.
type arena struct {
	buf   []relation.Value
	width int
	chunk int // rows in the next chunk; doubles up to BatchSize
}

func newArena(width int) arena { return arena{width: width, chunk: 8} }

// next returns a fresh zeroed tuple of the arena's width.
func (a *arena) next() relation.Tuple {
	if len(a.buf) < a.width {
		a.buf = make([]relation.Value, a.chunk*a.width)
		if a.chunk < BatchSize {
			a.chunk *= 2
		}
	}
	t := a.buf[:a.width:a.width]
	a.buf = a.buf[a.width:]
	return relation.Tuple(t)
}
