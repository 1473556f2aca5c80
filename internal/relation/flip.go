package relation

import "fmt"

// FlipOp mirrors a comparison operator when its operands swap sides:
// "x op y" holds exactly when "y FlipOp(op) x" does. Equality and
// inequality are symmetric and map to themselves, as does any operator
// the table does not know. Both the QUEL planner and the SQL analyser
// normalise "constant op column" conditions through this one table, so a
// new operator (say, a BETWEEN lowering) cannot be mirrored in one layer
// and missed in the other.
func FlipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// CompareOp resolves a comparison operator — one of "=", "!=", "<>",
// "<", "<=", ">", ">=" — to a test over the three-way result of
// Value.Compare. Every layer that compiles "x op y" resolves the
// operator here, once, when the predicate is built, so an operator the
// table does not know is a compile-time error rather than a predicate
// that is quietly false on every row.
func CompareOp(op string) (func(c int) bool, error) {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }, nil
	case "!=", "<>":
		return func(c int) bool { return c != 0 }, nil
	case "<":
		return func(c int) bool { return c < 0 }, nil
	case "<=":
		return func(c int) bool { return c <= 0 }, nil
	case ">":
		return func(c int) bool { return c > 0 }, nil
	case ">=":
		return func(c int) bool { return c >= 0 }, nil
	default:
		return nil, fmt.Errorf("relation: unknown comparison operator %q", op)
	}
}
