// Package term defines the term algebra of the reasoning engine: constants,
// variables and labelled nulls, following the relational foundations of the
// paper (Section 3): C, V and N are disjoint countably infinite sets of
// constants, variables and nulls.
//
// Constants carry a dynamic type (string, integer, float or boolean) because
// Vadalog programs mix symbolic entities ("IrishBank") with numeric values
// (shares, capital amounts) that participate in comparisons and arithmetic.
//
// The Interner maps terms to dense ValueIDs — the integer currency of the
// join executors — and memoizes each id's numeric interpretation
// (Interner.Numeric), so vectorized comparison passes read two flat arrays
// instead of re-parsing terms. Interning is canonical: Int(3) and Float(3.0)
// share one id, so id equality coincides with term equality.
package term

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the members of the term algebra.
type Kind int

const (
	// KindConstant is a member of the constant domain C.
	KindConstant Kind = iota
	// KindVariable is a member of the variable set V.
	KindVariable
	// KindNull is a labelled null from N, introduced by existential
	// quantification during the chase.
	KindNull
)

// String implements fmt.Stringer for Kind.
func (k Kind) String() string {
	switch k {
	case KindConstant:
		return "constant"
	case KindVariable:
		return "variable"
	case KindNull:
		return "null"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ConstType is the dynamic type of a constant.
type ConstType int

const (
	// ConstString is a symbolic constant, e.g. a company name.
	ConstString ConstType = iota
	// ConstInt is a 64-bit signed integer constant.
	ConstInt
	// ConstFloat is a 64-bit floating point constant.
	ConstFloat
	// ConstBool is a boolean constant.
	ConstBool
)

// String implements fmt.Stringer for ConstType.
func (t ConstType) String() string {
	switch t {
	case ConstString:
		return "string"
	case ConstInt:
		return "int"
	case ConstFloat:
		return "float"
	case ConstBool:
		return "bool"
	default:
		return fmt.Sprintf("ConstType(%d)", int(t))
	}
}

// Term is a single term: a constant, a variable or a labelled null.
// The zero value is the string constant "".
//
// A Term is 32 bytes: str holds a string constant's value or a variable's
// name or a null's label, and num holds an int constant's two's-complement
// bits, a float constant's IEEE bits, or 1 for true. Terms sit inline in
// every atom, dictionary entry and provenance frame, so their size is much
// of a session's resident heap. Compare terms with Equal and key maps by
// Key: the zero-size func array makes == and map keys on Term a compile
// error, since bitwise identity is not term identity (3 and 3.0, or 0 and
// -0.0, are equal terms with different bits).
type Term struct {
	_     [0]func()
	str   string
	num   uint64
	kind  uint8
	ctype uint8
}

// Str returns a string constant.
func Str(s string) Term { return Term{kind: uint8(KindConstant), ctype: uint8(ConstString), str: s} }

// Int returns an integer constant.
func Int(i int64) Term {
	return Term{kind: uint8(KindConstant), ctype: uint8(ConstInt), num: uint64(i)}
}

// Float returns a floating point constant.
func Float(f float64) Term {
	return Term{kind: uint8(KindConstant), ctype: uint8(ConstFloat), num: math.Float64bits(f)}
}

// Bool returns a boolean constant.
func Bool(b bool) Term {
	t := Term{kind: uint8(KindConstant), ctype: uint8(ConstBool)}
	if b {
		t.num = 1
	}
	return t
}

// Var returns a variable with the given name.
func Var(name string) Term { return Term{kind: uint8(KindVariable), str: name} }

// Null returns a labelled null with the given label.
func Null(label string) Term { return Term{kind: uint8(KindNull), str: label} }

// Kind reports which member of the term algebra t is.
func (t Term) Kind() Kind { return Kind(t.kind) }

// IsConstant reports whether t is a constant.
func (t Term) IsConstant() bool { return Kind(t.kind) == KindConstant }

// IsVariable reports whether t is a variable.
func (t Term) IsVariable() bool { return Kind(t.kind) == KindVariable }

// IsNull reports whether t is a labelled null.
func (t Term) IsNull() bool { return Kind(t.kind) == KindNull }

// Name returns the variable name or null label; it is empty for constants.
func (t Term) Name() string {
	if t.IsConstant() {
		return ""
	}
	return t.str
}

// ConstType returns the dynamic type of a constant term. It is only
// meaningful when IsConstant reports true.
func (t Term) ConstType() ConstType { return ConstType(t.ctype) }

// is reports whether t is a constant of type ct.
func (t Term) is(ct ConstType) bool {
	return Kind(t.kind) == KindConstant && ConstType(t.ctype) == ct
}

// StringVal returns the value of a string constant.
func (t Term) StringVal() string {
	if !t.is(ConstString) {
		return ""
	}
	return t.str
}

// IntVal returns the value of an integer constant.
func (t Term) IntVal() int64 {
	if !t.is(ConstInt) {
		return 0
	}
	return int64(t.num)
}

// FloatVal returns the value of a float constant.
func (t Term) FloatVal() float64 {
	if !t.is(ConstFloat) {
		return 0
	}
	return math.Float64frombits(t.num)
}

// BoolVal returns the value of a boolean constant.
func (t Term) BoolVal() bool { return t.is(ConstBool) && t.num != 0 }

// IsNumeric reports whether t is an int or float constant.
func (t Term) IsNumeric() bool { return t.is(ConstInt) || t.is(ConstFloat) }

// AsFloat returns the numeric value of an int or float constant as float64.
// The second result reports whether the conversion was possible.
func (t Term) AsFloat() (float64, bool) {
	if Kind(t.kind) != KindConstant {
		return 0, false
	}
	switch ConstType(t.ctype) {
	case ConstInt:
		return float64(int64(t.num)), true
	case ConstFloat:
		return math.Float64frombits(t.num), true
	default:
		return 0, false
	}
}

// Equal reports whether two terms are identical members of the algebra.
// Numeric constants of different dynamic types compare equal when their
// numeric values coincide (3 == 3.0), matching comparison semantics in rule
// conditions.
func (t Term) Equal(u Term) bool {
	if t.kind != u.kind {
		return false
	}
	if Kind(t.kind) != KindConstant {
		return t.str == u.str
	}
	if t.ctype == u.ctype {
		switch ConstType(t.ctype) {
		case ConstString:
			return t.str == u.str
		case ConstInt, ConstBool:
			return t.num == u.num
		case ConstFloat:
			// Float equality, not bit equality: 0 == -0 and NaN != NaN.
			return math.Float64frombits(t.num) == math.Float64frombits(u.num)
		}
	}
	tf, tok := t.AsFloat()
	uf, uok := u.AsFloat()
	return tok && uok && tf == uf
}

// Compare orders two constant terms. It returns a negative value when t < u,
// zero when equal, positive when t > u, and ok=false when the two terms are
// not comparable (different non-numeric types, or non-constants).
func (t Term) Compare(u Term) (cmp int, ok bool) {
	if Kind(t.kind) != KindConstant || Kind(u.kind) != KindConstant {
		return 0, false
	}
	if tf, tok := t.AsFloat(); tok {
		if uf, uok := u.AsFloat(); uok {
			switch {
			case tf < uf:
				return -1, true
			case tf > uf:
				return 1, true
			default:
				return 0, true
			}
		}
		return 0, false
	}
	if t.ctype != u.ctype {
		return 0, false
	}
	switch ConstType(t.ctype) {
	case ConstString:
		return strings.Compare(t.str, u.str), true
	case ConstBool:
		return int(t.num) - int(u.num), true
	}
	return 0, false
}

// Key returns a canonical string key for the term, suitable for use in maps
// and for fact interning. Keys of distinct terms are distinct, except that
// numerically-equal int and float constants share a key.
func (t Term) Key() string {
	switch Kind(t.kind) {
	case KindVariable:
		return "?" + t.str
	case KindNull:
		return "~" + t.str
	default:
		switch ConstType(t.ctype) {
		case ConstString:
			return "s:" + t.str
		case ConstBool:
			if t.num != 0 {
				return "b:true"
			}
			return "b:false"
		default:
			f, _ := t.AsFloat()
			if f == float64(int64(f)) {
				return "n:" + strconv.FormatInt(int64(f), 10)
			}
			return "n:" + strconv.FormatFloat(f, 'g', -1, 64)
		}
	}
}

// String renders the term in Vadalog concrete syntax: quoted strings,
// bare numbers, variables as their names, nulls with a ν prefix.
func (t Term) String() string {
	switch Kind(t.kind) {
	case KindVariable:
		return t.str
	case KindNull:
		return "ν" + t.str
	default:
		return t.Display()
	}
}

// Display renders a constant without quotes, as it should appear inside a
// natural-language explanation ("IrishBank", "57", "0.5"). Variables render
// as <name> placeholders and nulls with their label, so Display is total.
func (t Term) Display() string {
	switch Kind(t.kind) {
	case KindVariable:
		return "<" + t.str + ">"
	case KindNull:
		return "ν" + t.str
	}
	switch ConstType(t.ctype) {
	case ConstString:
		return t.str
	case ConstInt:
		return strconv.FormatInt(int64(t.num), 10)
	case ConstFloat:
		f := math.Float64frombits(t.num)
		if f == float64(int64(f)) {
			return strconv.FormatInt(int64(f), 10)
		}
		// Round to 10 significant digits so accumulated binary error
		// (0.05+0.165 = 0.21500000000000002) does not leak into
		// explanations; Key() keeps full precision for fact identity.
		s := strconv.FormatFloat(f, 'g', 10, 64)
		if strings.Contains(s, ".") && !strings.ContainsAny(s, "eE") {
			s = strings.TrimRight(s, "0")
			s = strings.TrimSuffix(s, ".")
		}
		return s
	case ConstBool:
		return strconv.FormatBool(t.num != 0)
	}
	return ""
}

// Quote renders the term in parsable concrete syntax: string constants are
// double-quoted, everything else matches Display.
func (t Term) Quote() string {
	if t.is(ConstString) {
		return strconv.Quote(t.str)
	}
	return t.Display()
}

// Substitution maps variable names to terms. It is the homomorphism θ applied
// during a chase step, restricted to the variables of one rule.
type Substitution map[string]Term

// Apply resolves t under s: variables bound in s are replaced by their
// binding; everything else is returned unchanged.
func (s Substitution) Apply(t Term) Term {
	if t.IsVariable() {
		if bound, ok := s[t.str]; ok {
			return bound
		}
	}
	return t
}

// Bind extends the substitution with name→t. It returns false when name is
// already bound to a different term (the extension is inconsistent).
func (s Substitution) Bind(name string, t Term) bool {
	if prev, ok := s[name]; ok {
		return prev.Equal(t)
	}
	s[name] = t
	return true
}

// Clone returns an independent copy of the substitution.
func (s Substitution) Clone() Substitution {
	c := make(Substitution, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Merge returns a new substitution combining s and o, or ok=false when they
// disagree on some variable.
func (s Substitution) Merge(o Substitution) (Substitution, bool) {
	out := s.Clone()
	for k, v := range o {
		if !out.Bind(k, v) {
			return nil, false
		}
	}
	return out, true
}
