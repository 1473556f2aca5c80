package relation

import (
	"fmt"
	"strings"
	"sync"
)

// Tuple is one row of a relation. Its length and value kinds must match
// the relation's schema.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Key returns a map key identifying the tuple's values, for duplicate
// elimination and hash joins.
func (t Tuple) Key() string {
	var buf [128]byte // holds most keys, so the string is the one allocation
	b := buf[:0]
	for _, v := range t {
		b = append(v.AppendKey(b), '\x1f')
	}
	return string(b)
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a named multiset of tuples over a schema. Any number of
// goroutines may read a Relation concurrently — its column indexes
// (Index) are built under their own locks; mutation requires exclusive
// access (the induction pipeline treats catalog relations and
// materialised joins as immutable while workers run).
type Relation struct {
	name    string
	schema  *Schema
	rows    []Tuple
	version uint64 // bumped on every mutation; indexes snapshot it

	ixOnce sync.Once
	ixs    []indexSlot // one per column, allocated by ixOnce
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{name: name, schema: schema}
}

// FromRows builds a relation directly over an existing row slice,
// skipping per-row conformance checks — the adoption path the streaming
// executor uses to publish pipeline output without re-validating rows a
// typed operator tree produced by construction. The caller transfers
// ownership of rows and guarantees every tuple matches the schema.
func FromRows(name string, schema *Schema, rows []Tuple) *Relation {
	return &Relation{name: name, schema: schema, rows: rows}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Rows returns the underlying tuple slice. Callers must not mutate it.
func (r *Relation) Rows() []Tuple { return r.rows }

// Version identifies the relation's mutation state; it changes on every
// insert, delete, or update, invalidating indexes built earlier.
func (r *Relation) Version() uint64 { return r.version }

// Row returns the i-th tuple.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Insert appends a tuple after checking arity and type conformance.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation %s: arity mismatch: tuple has %d values, schema %d columns",
			r.name, len(t), r.schema.Len())
	}
	for i, v := range t {
		if !v.Conforms(r.schema.Col(i).Type) {
			return fmt.Errorf("relation %s: value %#v does not conform to column %s %s",
				r.name, v, r.schema.Col(i).Name, r.schema.Col(i).Type)
		}
	}
	r.rows = append(r.rows, t)
	r.version++
	return nil
}

// MustInsert inserts a tuple built from the given values, panicking on a
// schema violation. Intended for statically known test-bed data.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertStrings parses one string per column and inserts the tuple.
func (r *Relation) InsertStrings(fields ...string) error {
	if len(fields) != r.schema.Len() {
		return fmt.Errorf("relation %s: arity mismatch: %d fields, schema %d columns",
			r.name, len(fields), r.schema.Len())
	}
	t := make(Tuple, len(fields))
	for i, f := range fields {
		v, err := ParseValue(f, r.schema.Col(i).Type)
		if err != nil {
			return fmt.Errorf("relation %s column %s: %w", r.name, r.schema.Col(i).Name, err)
		}
		t[i] = v
	}
	r.rows = append(r.rows, t)
	r.version++
	return nil
}

// Set replaces the value at row i, column c, after checking type
// conformance — the mutation primitive behind QUEL's replace. The row is
// replaced copy-on-write: tuples handed out earlier (Select outputs,
// Rows callers) keep their old values rather than observing in-place
// mutation.
func (r *Relation) Set(i, c int, v Value) error {
	if i < 0 || i >= len(r.rows) {
		return fmt.Errorf("relation %s: row %d out of range", r.name, i)
	}
	if c < 0 || c >= r.schema.Len() {
		return fmt.Errorf("relation %s: column %d out of range", r.name, c)
	}
	if !v.Conforms(r.schema.Col(c).Type) {
		return fmt.Errorf("relation %s: value %#v does not conform to column %s %s",
			r.name, v, r.schema.Col(c).Name, r.schema.Col(c).Type)
	}
	row := r.rows[i].Clone()
	row[c] = v
	r.rows[i] = row
	r.version++
	return nil
}

// Clone returns a deep copy of the relation (schema shared, rows copied).
func (r *Relation) Clone() *Relation {
	rows := make([]Tuple, len(r.rows))
	for i, t := range r.rows {
		rows[i] = t.Clone()
	}
	return &Relation{name: r.name, schema: r.schema, rows: rows}
}

// Column returns all values of the named column in row order.
func (r *Relation) Column(name string) ([]Value, error) {
	i, ok := r.schema.Index(name)
	if !ok {
		return nil, fmt.Errorf("relation %s: no column %q", r.name, name)
	}
	out := make([]Value, len(r.rows))
	for j, t := range r.rows {
		out[j] = t[i]
	}
	return out, nil
}

// String renders the relation as an aligned text table, the format the
// command-line tools print extensional answers in.
func (r *Relation) String() string {
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.rows))
	for j, t := range r.rows {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells[j] = row
	}
	var b strings.Builder
	writeRow := func(row []string) {
		b.WriteByte('|')
		for i, c := range row {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteByte('\n')
	}
	sep := func() {
		b.WriteByte('+')
		for _, w := range widths {
			b.WriteString(strings.Repeat("-", w+2))
			b.WriteByte('+')
		}
		b.WriteByte('\n')
	}
	sep()
	writeRow(names)
	sep()
	for _, row := range cells {
		writeRow(row)
	}
	sep()
	return b.String()
}
