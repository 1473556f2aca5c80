// Package relation implements the in-memory data type the intensional
// query processing system is built on: typed values with a total order,
// schemas, tuples, relations with insert, delete and copy-on-write
// update, and secondary indexes. The relational operators themselves —
// selection, projection, join, sort, distinct, aggregation — live in one
// place, the streaming executor (internal/exec) that QUEL plans feed;
// the paper's Rule Induction Algorithm and the query processor both run
// there, as they ran on one INGRES in the original prototype.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the runtime representation of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero Kind, so the zero Value
// is a null.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single attribute value: a null, string, integer, or float.
// Values are immutable; the zero Value is null.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
}

// Null returns the null value.
func Null() Value { return Value{} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// Int64 returns the integer payload. It is only meaningful for KindInt.
func (v Value) Int64() int64 { return v.i }

// Float64 returns the numeric payload, converting integers to float64.
func (v Value) Float64() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsNaN reports whether the value is a float NaN, which Compare finds
// equal to every number.
func (v Value) IsNaN() bool { return v.kind == KindFloat && math.IsNaN(v.f) }

// String renders the value for display. Strings render without quotes;
// use GoString for an unambiguous form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return "?"
	}
}

// GoString renders the value unambiguously (strings quoted).
func (v Value) GoString() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// Comparable reports whether two values can be ordered relative to each
// other: same kind, or both numeric. Nulls compare only with nulls.
func (v Value) Comparable(w Value) bool {
	if v.kind == w.kind {
		return true
	}
	return v.IsNumeric() && w.IsNumeric()
}

// Compare orders v relative to w, returning -1, 0, or +1. Ints and floats
// compare numerically with each other; strings compare lexicographically
// (the paper's induced rules use lexicographic ranges such as
// "SSN623 <= Id <= SSN635"). Comparing incomparable kinds returns an error.
// Null compares equal to null and is not comparable to anything else.
func (v Value) Compare(w Value) (int, error) {
	if !v.Comparable(w) {
		return 0, fmt.Errorf("relation: cannot compare %s with %s", v.kind, w.kind)
	}
	switch {
	case v.kind == KindNull:
		return 0, nil
	case v.kind == KindString:
		return strings.Compare(v.s, w.s), nil
	case v.kind == KindInt && w.kind == KindInt:
		switch {
		case v.i < w.i:
			return -1, nil
		case v.i > w.i:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindInt: // int vs float: exact, no rounding through float64
		return compareIntFloat(v.i, w.f), nil
	case w.kind == KindInt:
		return -compareIntFloat(w.i, v.f), nil
	default: // both float
		switch {
		case v.f < w.f:
			return -1, nil
		case v.f > w.f:
			return 1, nil
		}
		return 0, nil
	}
}

// compareIntFloat orders an int64 against a float64 without converting
// the integer to float64, which would round above 2^53 and make distinct
// integers compare equal to the same float.
func compareIntFloat(i int64, f float64) int {
	if f != f { // NaN: numerically unordered; treat as equal like < and > both failing
		return 0
	}
	// Every float64 ≥ 2^63 exceeds any int64; every float64 < -2^63 is
	// below any int64. In between, trunc(f) converts to int64 exactly.
	if f >= 1<<63 {
		return -1
	}
	if f < -(1 << 63) {
		return 1
	}
	t := math.Trunc(f)
	ti := int64(t)
	switch {
	case i < ti:
		return -1
	case i > ti:
		return 1
	case f > t: // i == trunc(f), positive fraction remains: i < f
		return -1
	case f < t: // negative fraction: i > f
		return 1
	}
	return 0
}

// MustCompare is Compare but panics on incomparable kinds. It is intended
// for callers that have already verified comparability via the schema.
func (v Value) MustCompare(w Value) int {
	c, err := v.Compare(w)
	if err != nil {
		panic(err)
	}
	return c
}

// Equal reports whether the two values are equal under Compare semantics.
// Incomparable values are unequal.
func (v Value) Equal(w Value) bool {
	c, err := v.Compare(w)
	return err == nil && c == 0
}

// Less reports v < w, treating incomparable values as unordered (false).
func (v Value) Less(w Value) bool {
	c, err := v.Compare(w)
	return err == nil && c < 0
}

// Key returns a map-key form of the value that is equal exactly when the
// values are Equal. Numerics are normalised to their float64 rendering so
// Int(3) and Float(3) share a key — but only when the integer survives
// the float64 round trip. Integers beyond that (magnitude above 2^53 and
// not exactly representable) format exactly under a distinct prefix, so
// Int(1<<53) and Int(1<<53+1) never collide; no float64 can equal such
// an integer, so Equal agrees.
func (v Value) Key() string {
	var buf [64]byte // holds most keys, so the string is the one allocation
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to dst and returns the extended
// buffer. A caller that reuses dst builds keys without allocating, and
// can probe a string-keyed map with m[string(buf)], which Go does without
// a copy.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, '\x00')
	case KindString:
		return append(append(dst, 's'), v.s...)
	case KindInt:
		if f := float64(v.i); f < 1<<63 && int64(f) == v.i {
			return strconv.AppendFloat(append(dst, 'n'), f, 'g', -1, 64)
		}
		return strconv.AppendInt(append(dst, 'i'), v.i, 10)
	default:
		f := v.f
		if f == 0 {
			f = 0 // -0 equals 0, so it writes 0's key
		}
		return strconv.AppendFloat(append(dst, 'n'), f, 'g', -1, 64)
	}
}

// ParseValue parses s into a value of the requested type.
func ParseValue(s string, t Type) (Value, error) {
	switch t {
	case TString:
		return String(s), nil
	case TInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case TFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse float %q: %w", s, err)
		}
		return Float(f), nil
	default:
		return Value{}, fmt.Errorf("relation: parse into unknown type %v", t)
	}
}

// Conforms reports whether the value may be stored in a column of type t.
// Null conforms to every type; ints conform to float columns.
func (v Value) Conforms(t Type) bool {
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return t == TString
	case KindInt:
		return t == TInt || t == TFloat
	case KindFloat:
		return t == TFloat
	default:
		return false
	}
}
