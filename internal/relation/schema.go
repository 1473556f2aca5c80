package relation

import (
	"fmt"
	"strings"
)

// Type is a column's declared storage type.
type Type uint8

// Column storage types. Richer domains (ranges, derived domains, object
// domains) live in the KER layer; the relational substrate stores only
// these base types.
const (
	TString Type = iota
	TInt
	TFloat
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Comparable reports whether v orders against the values a column of
// type t stores: a string against a string column, a number against a
// numeric one. A null orders against nothing.
func (t Type) Comparable(v Value) bool {
	if t == TString {
		return v.Kind() == KindString
	}
	return v.IsNumeric()
}

// Column is a named, typed attribute of a relation schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns with name-based lookup.
// Column names are case-preserving but matched case-insensitively,
// following QUEL/INGRES convention.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from the given columns. Duplicate column names
// (case-insensitive) are an error.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if key == "" {
			return nil, fmt.Errorf("relation: empty column name at position %d", i)
		}
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; for statically known schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// MustIndex returns the position of the named column or panics.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.Index(name)
	if !ok {
		panic(fmt.Sprintf("relation: no column %q in schema %s", name, s))
	}
	return i
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return names
}

// Equal reports whether the two schemas have identical column names
// (case-insensitive) and types in the same order.
func (s *Schema) Equal(t *Schema) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i := range s.cols {
		if !strings.EqualFold(s.cols[i].Name, t.cols[i].Name) || s.cols[i].Type != t.cols[i].Type {
			return false
		}
	}
	return true
}

// String renders the schema as "(name type, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}
