package exec

import (
	"context"

	"intensional/internal/relation"
)

// HashJoin joins a streamed probe (left) input against a materialized
// build (right) input. Open drains the right side into a hash table —
// the one materialization a hash join cannot avoid — and Next streams
// probe batches through it, emitting the concatenation left++right for
// every key match. Output order is probe order, then build arrival
// order within a key — deterministic, so one plan returns the same row
// sequence on every run.
type HashJoin struct {
	schema   *relation.Schema
	left     Operator
	right    Operator
	leftKey  KeyFn
	rightKey KeyFn

	table  map[string]int     // join key → index into groups
	groups [][]relation.Tuple // build rows per key, in arrival order
	key    []byte             // scratch buffer the KeyFns append into
	out    arena
	probe  *Batch // current probe-side batch (pooled)
	pi     int    // cursor into probe
	match  []relation.Tuple
	mi     int
	done   bool
}

// NewHashJoin builds a hash join. schema is the concatenated output row
// type; leftKey/rightKey must extract equal keys for joining rows.
func NewHashJoin(schema *relation.Schema, left, right Operator,
	leftKey, rightKey KeyFn) *HashJoin {
	return &HashJoin{schema: schema, left: left, right: right,
		leftKey: leftKey, rightKey: rightKey}
}

// Schema returns the concatenated output schema.
func (j *HashJoin) Schema() *relation.Schema { return j.schema }

// Open opens both inputs and materializes the build side.
func (j *HashJoin) Open(ctx context.Context) error {
	j.done = false
	j.pi = 0
	j.match = nil
	j.mi = 0
	j.out = newArena(j.schema.Len())
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.table = make(map[string]int)
	j.groups = nil
	b := getBatch()
	defer putBatch(b)
	for {
		if err := j.right.Next(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for i := 0; i < b.Len(); i++ {
			t := b.Row(i)
			j.key = j.rightKey(j.key[:0], t)
			// Look up before inserting: m[string(buf)] does not copy
			// the key, so only a new key pays for its string.
			if g, ok := j.table[string(j.key)]; ok {
				j.groups[g] = append(j.groups[g], t)
				continue
			}
			j.table[string(j.key)] = len(j.groups)
			j.groups = append(j.groups, []relation.Tuple{t})
		}
	}
	j.probe = getBatch()
	return nil
}

// Next emits the next batch of joined rows, carved out of one arena
// allocation per batch.
func (j *HashJoin) Next(b *Batch) error {
	b.Reset()
	if j.done {
		return nil
	}
	for !b.Full() {
		for j.mi >= len(j.match) {
			// Advance to the next probe row that has matches.
			j.pi++
			if j.pi >= j.probe.Len() {
				if err := j.left.Next(j.probe); err != nil {
					return err
				}
				if j.probe.Len() == 0 {
					j.done = true
					return nil
				}
				j.pi = 0
			}
			j.key = j.leftKey(j.key[:0], j.probe.Row(j.pi))
			j.match = nil
			if g, ok := j.table[string(j.key)]; ok {
				j.match = j.groups[g]
			}
			j.mi = 0
		}
		l := j.probe.Row(j.pi)
		r := j.match[j.mi]
		j.mi++
		row := j.out.next()
		copy(row, l)
		copy(row[len(l):], r)
		b.Append(row)
	}
	return nil
}

// Close releases the hash table and both inputs.
func (j *HashJoin) Close() error {
	j.table = nil
	j.groups = nil
	j.match = nil
	putBatch(j.probe)
	j.probe = nil
	err := j.left.Close()
	if cerr := j.right.Close(); err == nil {
		err = cerr
	}
	return err
}

// CrossJoin pairs every probe (left) row with every build (right) row.
// Like HashJoin it materializes only the build side.
type CrossJoin struct {
	schema *relation.Schema
	left   Operator
	right  Operator

	rows  []relation.Tuple // materialized build side
	out   arena
	probe *Batch
	pi    int
	ri    int
	done  bool
}

// NewCrossJoin builds a cross join.
func NewCrossJoin(schema *relation.Schema, left, right Operator) *CrossJoin {
	return &CrossJoin{schema: schema, left: left, right: right}
}

// Schema returns the concatenated output schema.
func (j *CrossJoin) Schema() *relation.Schema { return j.schema }

// Open opens both inputs and materializes the build side.
func (j *CrossJoin) Open(ctx context.Context) error {
	j.done = false
	j.pi = 0
	j.ri = 0
	j.out = newArena(j.schema.Len())
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	j.rows = j.rows[:0]
	b := getBatch()
	defer putBatch(b)
	for {
		if err := j.right.Next(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			break
		}
		for i := 0; i < b.Len(); i++ {
			j.rows = append(j.rows, b.Row(i))
		}
	}
	j.probe = getBatch()
	j.ri = len(j.rows) // force the first probe pull
	j.pi = j.probe.Len()
	return nil
}

// Next emits the next batch of paired rows.
func (j *CrossJoin) Next(b *Batch) error {
	b.Reset()
	if j.done {
		return nil
	}
	for !b.Full() {
		for j.ri >= len(j.rows) {
			// Advance to the next probe row.
			j.pi++
			if j.pi >= j.probe.Len() {
				if err := j.left.Next(j.probe); err != nil {
					return err
				}
				if j.probe.Len() == 0 {
					j.done = true
					return nil
				}
				j.pi = 0
			}
			j.ri = 0
			if len(j.rows) == 0 {
				// Empty build side: no output at all.
				j.done = true
				return nil
			}
		}
		l := j.probe.Row(j.pi)
		r := j.rows[j.ri]
		j.ri++
		row := j.out.next()
		copy(row, l)
		copy(row[len(l):], r)
		b.Append(row)
	}
	return nil
}

// Close releases the build rows and both inputs.
func (j *CrossJoin) Close() error {
	j.rows = nil
	putBatch(j.probe)
	j.probe = nil
	err := j.left.Close()
	if cerr := j.right.Close(); err == nil {
		err = cerr
	}
	return err
}
