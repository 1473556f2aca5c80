package relation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{String("SSBN"), KindString, "SSBN"},
		{Int(7250), KindInt, "7250"},
		{Float(2.5), KindFloat, "2.5"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%#v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%#v: String() = %q, want %q", c.v, got, c.str)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassifies")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2), Int(2), 0},
		{String("BQQ-2"), String("BQQ-8"), -1},
		{String("SSN623"), String("SSN635"), -1},
		{String("a"), String("a"), 0},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%#v, %#v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%#v, %#v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareIncomparable(t *testing.T) {
	pairs := [][2]Value{
		{String("x"), Int(1)},
		{Int(1), String("x")},
		{Null(), Int(1)},
		{String("x"), Null()},
		{Float(1), String("x")},
	}
	for _, p := range pairs {
		if _, err := p[0].Compare(p[1]); err == nil {
			t.Errorf("Compare(%#v, %#v): want error", p[0], p[1])
		}
		if p[0].Equal(p[1]) {
			t.Errorf("Equal(%#v, %#v): want false", p[0], p[1])
		}
		if p[0].Less(p[1]) {
			t.Errorf("Less(%#v, %#v): want false", p[0], p[1])
		}
	}
}

func TestMustComparePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompare on incomparable kinds should panic")
		}
	}()
	String("x").MustCompare(Int(1))
}

func TestValueKeyEquality(t *testing.T) {
	if Int(3).Key() != Float(3).Key() {
		t.Error("Int(3) and Float(3) should share a key")
	}
	if Int(3).Key() == String("3").Key() {
		t.Error("Int(3) and String(\"3\") must not share a key")
	}
	if Null().Key() == String("").Key() {
		t.Error("Null and empty string must not share a key")
	}
}

// TestValueKeyInt53Boundary pins the contract that keys collide exactly
// when Equal holds, across the 2^53 boundary where float64 loses integer
// precision. Int(1<<53) and Int(1<<53+1) used to collide because both
// routed through float64 formatting.
func TestValueKeyInt53Boundary(t *testing.T) {
	big := int64(1) << 53
	pairs := []struct {
		a, b Value
	}{
		{Int(big), Int(big + 1)},
		{Int(big + 1), Int(big + 2)},
		{Int(-big), Int(-big - 1)},
		{Int(1<<62 + 1), Int(1 << 62)},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1)},
	}
	for _, p := range pairs {
		checkAppendKey(t, p.a)
		checkAppendKey(t, p.b)
		if p.a.Key() == p.b.Key() {
			t.Errorf("%v and %v share key %q", p.a, p.b, p.a.Key())
		}
		if p.a.Equal(p.b) {
			t.Errorf("%v and %v compare equal", p.a, p.b)
		}
	}
	// Int/float unification survives for exactly representable values,
	// including at the boundary itself.
	for _, i := range []int64{0, 3, -7, big, -big, 1 << 60} {
		checkAppendKey(t, Int(i))
		checkAppendKey(t, Float(float64(i)))
		if Int(i).Key() != Float(float64(i)).Key() {
			t.Errorf("Int(%d) and Float of same value should share a key", i)
		}
		if !Int(i).Equal(Float(float64(i))) {
			t.Errorf("Int(%d) should equal Float of same value", i)
		}
	}
	// Compare must agree with Key at the boundary: float64(1<<53) equals
	// the int 1<<53 but not 1<<53+1, even though float64 conversion of
	// the latter would round onto it.
	if Int(big + 1).Equal(Float(float64(big))) {
		t.Error("Int(2^53+1) must not equal Float(2^53)")
	}
	if c, err := Int(big + 1).Compare(Float(float64(big))); err != nil || c != 1 {
		t.Errorf("Int(2^53+1) vs Float(2^53): got %d, %v; want 1", c, err)
	}
	if c, err := Int(-big - 1).Compare(Float(float64(-big))); err != nil || c != -1 {
		t.Errorf("Int(-2^53-1) vs Float(-2^53): got %d, %v; want -1", c, err)
	}
	// MaxInt64 rounds up to 2^63 as a float; the float is strictly larger.
	if c, err := Int(math.MaxInt64).Compare(Float(9.223372036854776e18)); err != nil || c != -1 {
		t.Errorf("MaxInt64 vs 2^63 float: got %d, %v; want -1", c, err)
	}
}

// checkAppendKey asserts that AppendKey appends exactly Key's bytes,
// after whatever dst already holds.
func checkAppendKey(t *testing.T, v Value) {
	t.Helper()
	if got := string(v.AppendKey(nil)); got != v.Key() {
		t.Errorf("%#v: AppendKey(nil) = %q, Key = %q", v, got, v.Key())
	}
	if got := string(v.AppendKey([]byte("pre"))); got != "pre"+v.Key() {
		t.Errorf("%#v: AppendKey(\"pre\") = %q, want %q", v, got, "pre"+v.Key())
	}
}

// TestValueKeyBytes pins the key bytes themselves, so a change to
// AppendKey that Key would follow still shows: hash-join probes and
// stored keys built by either must agree with the keys of earlier
// releases. Signed zeros share 0's key, as they compare equal, and
// every NaN shares one.
func TestValueKeyBytes(t *testing.T) {
	big := int64(1) << 53
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "\x00"},
		{String(""), "s"},
		{String("SSN623"), "sSSN623"},
		{Int(3), "n3"},
		{Float(3), "n3"},
		{Float(2.5), "n2.5"},
		{Int(big), "n9.007199254740992e+15"},
		{Int(big + 1), "i9007199254740993"},
		{Int(-big - 1), "i-9007199254740993"},
		{Int(math.MaxInt64), "i9223372036854775807"},
		{Int(math.MinInt64), "n-9.223372036854776e+18"},
		{Float(0), "n0"},
		{Float(math.Copysign(0, -1)), "n0"},
		{Float(math.NaN()), "nNaN"},
		{Float(math.Inf(1)), "n+Inf"},
	}
	for _, c := range cases {
		checkAppendKey(t, c.v)
		if got := c.v.Key(); got != c.want {
			t.Errorf("%#v.Key() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("7250", TInt)
	if err != nil || !v.Equal(Int(7250)) {
		t.Errorf("ParseValue int: %v %v", v, err)
	}
	v, err = ParseValue(" 2.5 ", TFloat)
	if err != nil || !v.Equal(Float(2.5)) {
		t.Errorf("ParseValue float: %v %v", v, err)
	}
	v, err = ParseValue("Ohio", TString)
	if err != nil || !v.Equal(String("Ohio")) {
		t.Errorf("ParseValue string: %v %v", v, err)
	}
	if _, err = ParseValue("xyz", TInt); err == nil {
		t.Error("ParseValue bad int: want error")
	}
	if _, err = ParseValue("1.2.3", TFloat); err == nil {
		t.Error("ParseValue bad float: want error")
	}
}

func TestConforms(t *testing.T) {
	cases := []struct {
		v    Value
		t    Type
		want bool
	}{
		{Null(), TString, true},
		{Null(), TInt, true},
		{String("x"), TString, true},
		{String("x"), TInt, false},
		{Int(1), TInt, true},
		{Int(1), TFloat, true},
		{Int(1), TString, false},
		{Float(1), TFloat, true},
		{Float(1), TInt, false},
	}
	for _, c := range cases {
		if got := c.v.Conforms(c.t); got != c.want {
			t.Errorf("Conforms(%#v, %v) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
}

// genValue produces a random comparable value for property tests; all
// values drawn from the same call share a kind class (numeric or string).
func genValue(r *rand.Rand, stringKind bool) Value {
	if stringKind {
		const letters = "ABCDEFGHIJ"
		n := r.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return String(string(b))
	}
	if r.Intn(2) == 0 {
		return Int(int64(r.Intn(2001) - 1000))
	}
	return Float(float64(r.Intn(2001)-1000) / 4)
}

// Property: Compare is a total order on comparable values — antisymmetric
// and transitive, and consistent with Equal and Less.
func TestCompareTotalOrderProperty(t *testing.T) {
	prop := func(seed int64, stringKind bool) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := genValue(rr, stringKind), genValue(rr, stringKind), genValue(rr, stringKind)
		ab := a.MustCompare(b)
		ba := b.MustCompare(a)
		if ab != -ba {
			return false
		}
		if (ab == 0) != a.Equal(b) {
			return false
		}
		if (ab < 0) != a.Less(b) {
			return false
		}
		// transitivity: a<=b and b<=c implies a<=c
		if ab <= 0 && b.MustCompare(c) <= 0 && a.MustCompare(c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Key agrees with Equal.
func TestKeyAgreesWithEqualProperty(t *testing.T) {
	prop := func(seed int64, stringKind bool) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := genValue(rr, stringKind), genValue(rr, stringKind)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
