package term

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// A Term is a 32-byte value: every fact row, atom and provenance frame holds
// terms inline, so their size is most of a session's resident heap.
func TestTermSize(t *testing.T) {
	if got := unsafe.Sizeof(Term{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Term{}) = %d, want 32", got)
	}
}

// reprCases are the edge values of the representation: the zero value and
// the empty string/variable/null (which share an empty payload), signed
// zero, NaN, the infinities, the int64 extremes, numerically equal int and
// float constants, and both booleans.
var reprCases = []struct {
	name string
	t    Term
	// key, display, quote and str are Key, Display, Quote and String.
	key, display, quote, str string
	// f and fok are AsFloat's results.
	f   float64
	fok bool
	// Accessors.
	nm, sv string
	iv     int64
	fv     float64
	bv     bool
	// eq[j] is Equal against reprCases[j] ('1' or '0'); cmp[j] is Compare
	// against it ('<', '=', '>', or 'x' when not comparable).
	eq, cmp string
}{
	{"zero", Term{}, "s:", "", `""`, "", 0, false, "", "", 0, 0, false,
		"11000000000000000", "==xxxxxxxxxxxxx<x"},
	{`Str("")`, Str(""), "s:", "", `""`, "", 0, false, "", "", 0, 0, false,
		"11000000000000000", "==xxxxxxxxxxxxx<x"},
	{`Var("")`, Var(""), "?", "<>", "<>", "", 0, false, "", "", 0, 0, false,
		"00100000000000000", "xxxxxxxxxxxxxxxxx"},
	{`Null("")`, Null(""), "~", "ν", "ν", "ν", 0, false, "", "", 0, 0, false,
		"00010000000000000", "xxxxxxxxxxxxxxxxx"},
	{"Int(3)", Int(3), "n:3", "3", "3", "3", 3, true, "", "", 3, 0, false,
		"00001100000000000", "xxxx==>>=<>><xxx>"},
	{"Float(3)", Float(3), "n:3", "3", "3", "3", 3, true, "", "", 0, 3, false,
		"00001100000000000", "xxxx==>>=<>><xxx>"},
	{"Float(-0)", Float(math.Copysign(0, -1)), "n:0", "0", "0", "0", math.Copysign(0, -1), true, "", "", 0, math.Copysign(0, -1), false,
		"00000011000000000", "xxxx<<===<>><xxx<"},
	{"Float(0)", Float(0), "n:0", "0", "0", "0", 0, true, "", "", 0, 0, false,
		"00000011000000000", "xxxx<<===<>><xxx<"},
	{"NaN", Float(math.NaN()), "n:NaN", "NaN", "NaN", "NaN", math.NaN(), true, "", "", 0, math.NaN(), false,
		"00000000000000000", "xxxx=========xxx="},
	{"+Inf", Float(math.Inf(1)), "n:+Inf", "+Inf", "+Inf", "+Inf", math.Inf(1), true, "", "", 0, math.Inf(1), false,
		"00000000010000000", "xxxx>>>>==>>>xxx>"},
	{"-Inf", Float(math.Inf(-1)), "n:-Inf", "-Inf", "-Inf", "-Inf", math.Inf(-1), true, "", "", 0, math.Inf(-1), false,
		"00000000001000000", "xxxx<<<<=<=<<xxx<"},
	{"MinInt64", Int(math.MinInt64), "n:-9223372036854775808", "-9223372036854775808", "-9223372036854775808", "-9223372036854775808",
		-9223372036854775808, true, "", "", math.MinInt64, 0, false,
		"00000000000100000", "xxxx<<<<=<>=<xxx<"},
	// Key goes through float64, and 2^63 converts back to int64 per the
	// platform; the value shown is amd64's.
	{"MaxInt64", Int(math.MaxInt64), "n:9.223372036854776e+18", "9223372036854775807", "9223372036854775807", "9223372036854775807",
		9223372036854775807, true, "", "", math.MaxInt64, 0, false,
		"00000000000010000", "xxxx>>>>=<>>=xxx>"},
	{"true", Bool(true), "b:true", "true", "true", "true", 0, false, "", "", 0, 0, true,
		"00000000000001000", "xxxxxxxxxxxxx=>xx"},
	{"false", Bool(false), "b:false", "false", "false", "false", 0, false, "", "", 0, 0, false,
		"00000000000000100", "xxxxxxxxxxxxx<=xx"},
	{`Str("3")`, Str("3"), "s:3", "3", `"3"`, "3", 0, false, "", "3", 0, 0, false,
		"00000000000000010", ">>xxxxxxxxxxxxx=x"},
	{"Float(0.215)", Float(0.05 + 0.165), "n:0.215", "0.215", "0.215", "0.215", 0.05 + 0.165, true, "", "", 0, 0.05 + 0.165, false,
		"00000000000000001", "xxxx<<>>=<>><xxx="},
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestReprSemantics pins the observable semantics of every accessor and of
// Equal and Compare over the representation's edge values.
func TestReprSemantics(t *testing.T) {
	for _, c := range reprCases {
		tm := c.t
		if got := tm.Key(); got != c.key && !(c.name == "MaxInt64" && runtime.GOARCH != "amd64") {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.key)
		}
		if got := tm.Display(); got != c.display {
			t.Errorf("%s: Display() = %q, want %q", c.name, got, c.display)
		}
		if got := tm.Quote(); got != c.quote {
			t.Errorf("%s: Quote() = %q, want %q", c.name, got, c.quote)
		}
		if got := tm.String(); got != c.str {
			t.Errorf("%s: String() = %q, want %q", c.name, got, c.str)
		}
		if f, ok := tm.AsFloat(); !sameFloat(f, c.f) || ok != c.fok {
			t.Errorf("%s: AsFloat() = %v, %v, want %v, %v", c.name, f, ok, c.f, c.fok)
		}
		if got := tm.Name(); got != c.nm {
			t.Errorf("%s: Name() = %q, want %q", c.name, got, c.nm)
		}
		if got := tm.StringVal(); got != c.sv {
			t.Errorf("%s: StringVal() = %q, want %q", c.name, got, c.sv)
		}
		if got := tm.IntVal(); got != c.iv {
			t.Errorf("%s: IntVal() = %d, want %d", c.name, got, c.iv)
		}
		if got := tm.FloatVal(); !sameFloat(got, c.fv) {
			t.Errorf("%s: FloatVal() = %v, want %v", c.name, got, c.fv)
		}
		if got := tm.BoolVal(); got != c.bv {
			t.Errorf("%s: BoolVal() = %v, want %v", c.name, got, c.bv)
		}
		for j, d := range reprCases {
			want := c.eq[j] == '1'
			if got := tm.Equal(d.t); got != want {
				t.Errorf("%s.Equal(%s) = %v, want %v", c.name, d.name, got, want)
			}
			got := byte('x')
			if cmp, ok := tm.Compare(d.t); ok {
				switch {
				case cmp < 0:
					got = '<'
				case cmp > 0:
					got = '>'
				default:
					got = '='
				}
			}
			if got != c.cmp[j] {
				t.Errorf("%s.Compare(%s) = %c, want %c", c.name, d.name, got, c.cmp[j])
			}
		}
	}
}

// TestReprKindsAndTypes pins Kind and ConstType, including the zero value's
// (a string constant) and a variable's (whose ConstType is the zero type).
func TestReprKindsAndTypes(t *testing.T) {
	tests := []struct {
		t     Term
		kind  Kind
		ctype ConstType
	}{
		{Term{}, KindConstant, ConstString},
		{Str("a"), KindConstant, ConstString},
		{Int(-1), KindConstant, ConstInt},
		{Float(-1), KindConstant, ConstFloat},
		{Bool(false), KindConstant, ConstBool},
		{Var("X"), KindVariable, ConstString},
		{Null("z1"), KindNull, ConstString},
	}
	for _, tt := range tests {
		if tt.t.Kind() != tt.kind || tt.t.ConstType() != tt.ctype {
			t.Errorf("%v: Kind, ConstType = %v, %v, want %v, %v", tt.t, tt.t.Kind(), tt.t.ConstType(), tt.kind, tt.ctype)
		}
	}
}
