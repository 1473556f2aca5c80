package relation

import "testing"

func TestFlipOp(t *testing.T) {
	cases := []struct {
		op, want string
	}{
		{"<", ">"},
		{"<=", ">="},
		{">", "<"},
		{">=", "<="},
		{"=", "="},
		{"!=", "!="},
		{"<>", "<>"},
	}
	for _, c := range cases {
		if got := FlipOp(c.op); got != c.want {
			t.Errorf("FlipOp(%q) = %q, want %q", c.op, got, c.want)
		}
		// Flipping is an involution: mirroring twice restores the operator.
		if got := FlipOp(FlipOp(c.op)); got != c.op {
			t.Errorf("FlipOp(FlipOp(%q)) = %q, want %q", c.op, got, c.op)
		}
	}
}

// TestFlipOpSemantics checks the table against the comparison semantics
// it mirrors: for every operator and value pair, "a op b" must equal
// "b FlipOp(op) a".
func TestFlipOpSemantics(t *testing.T) {
	holds := func(a Value, op string, b Value) bool {
		c := a.MustCompare(b)
		switch op {
		case "=":
			return c == 0
		case "!=":
			return c != 0
		case "<":
			return c < 0
		case "<=":
			return c <= 0
		case ">":
			return c > 0
		case ">=":
			return c >= 0
		}
		t.Fatalf("unknown operator %q", op)
		return false
	}
	vals := []Value{Int(1), Int(2), Int(3)}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, a := range vals {
			for _, b := range vals {
				if holds(a, op, b) != holds(b, FlipOp(op), a) {
					t.Errorf("%v %s %v != %v %s %v", a, op, b, b, FlipOp(op), a)
				}
			}
		}
	}
}

// TestCompareOp pins the operator table and that an operator outside it
// is an error when the predicate is built, not a predicate that is
// false on every row.
func TestCompareOp(t *testing.T) {
	for _, c := range []struct {
		op         string
		lt, eq, gt bool
	}{
		{"=", false, true, false},
		{"!=", true, false, true},
		{"<>", true, false, true},
		{"<", true, false, false},
		{"<=", true, true, false},
		{">", false, false, true},
		{">=", false, true, true},
	} {
		holds, err := CompareOp(c.op)
		if err != nil {
			t.Fatalf("CompareOp(%q): %v", c.op, err)
		}
		if holds(-1) != c.lt || holds(0) != c.eq || holds(1) != c.gt {
			t.Errorf("CompareOp(%q) = %v/%v/%v on -1/0/1, want %v/%v/%v",
				c.op, holds(-1), holds(0), holds(1), c.lt, c.eq, c.gt)
		}
	}
	for _, op := range []string{"", "==", "~", "=<"} {
		if _, err := CompareOp(op); err == nil {
			t.Errorf("CompareOp(%q): expected an error", op)
		}
	}
	s := MustSchema(Column{Name: "K", Type: TInt})
	if _, err := Cmp(s, "K", "~", Int(1)); err == nil {
		t.Error("Cmp with an unknown operator: expected an error")
	}
}
