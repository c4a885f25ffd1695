// Package ast defines the abstract syntax of the Vadalog subset used by the
// reasoning engine: atoms, comparison conditions, arithmetic assignments,
// monotonic aggregations, tuple-generating dependencies (rules) and programs.
//
// The concrete syntax (package parser) writes rules Vadalog-style as
//
//	head :- body.
//
// which corresponds to the paper's logical notation body → head. A rule body
// is a conjunction of relational atoms, comparison conditions over bound
// variables, and at most one aggregation or arithmetic assignment that binds
// a fresh variable used in the head.
package ast

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/term"
)

// Atom is a relational atom R(t1,...,tn) over a predicate R of arity n.
type Atom struct {
	// Predicate is the relation symbol.
	Predicate string
	// Terms are the argument terms, constants or variables.
	Terms []term.Term
}

// NewAtom builds an atom from a predicate name and terms.
func NewAtom(pred string, terms ...term.Term) Atom {
	return Atom{Predicate: pred, Terms: terms}
}

// Arity returns the number of argument positions.
func (a Atom) Arity() int { return len(a.Terms) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Terms {
		if t.IsVariable() {
			return false
		}
	}
	return true
}

// Variables returns the set of variable names occurring in the atom, in
// first-occurrence order.
func (a Atom) Variables() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range a.Terms {
		if t.IsVariable() && !seen[t.Name()] {
			seen[t.Name()] = true
			out = append(out, t.Name())
		}
	}
	return out
}

// Bindings resolves variables while grounding: Apply returns a bound
// variable's binding and any other term unchanged. term.Substitution
// implements it, as do the chase's provenance frames.
type Bindings interface {
	Apply(t term.Term) term.Term
}

// Apply returns a copy of the atom with the bindings applied to every term.
func (a Atom) Apply(s Bindings) Atom {
	out := Atom{Predicate: a.Predicate, Terms: make([]term.Term, len(a.Terms))}
	for i, t := range a.Terms {
		out.Terms[i] = s.Apply(t)
	}
	return out
}

// Equal reports structural equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Predicate != b.Predicate || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if !a.Terms[i].Equal(b.Terms[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical map key for a ground atom (a fact).
func (a Atom) Key() string {
	var sb strings.Builder
	sb.WriteString(a.Predicate)
	sb.WriteByte('(')
	for i, t := range a.Terms {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.Key())
	}
	sb.WriteByte(')')
	return sb.String()
}

// String renders the atom in concrete syntax, quoting string constants.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVariable() {
			parts[i] = t.Name()
		} else {
			parts[i] = t.Quote()
		}
	}
	return a.Predicate + "(" + strings.Join(parts, ", ") + ")"
}

// Display renders the atom with unquoted constants, for explanations and
// chase-graph dumps: Default(B), Risk(C, 11).
func (a Atom) Display() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		if t.IsVariable() {
			parts[i] = t.Name()
		} else {
			parts[i] = t.Display()
		}
	}
	return a.Predicate + "(" + strings.Join(parts, ", ") + ")"
}

// CompareOp is a comparison operator usable in rule conditions.
type CompareOp string

// Comparison operators of the Vadalog subset.
const (
	OpEq CompareOp = "=="
	OpNe CompareOp = "!="
	OpLt CompareOp = "<"
	OpLe CompareOp = "<="
	OpGt CompareOp = ">"
	OpGe CompareOp = ">="
)

// Words returns the natural-language rendering of the operator used by the
// verbalizer ("is higher than", ...).
func (op CompareOp) Words() string {
	switch op {
	case OpEq:
		return "is equal to"
	case OpNe:
		return "is different from"
	case OpLt:
		return "is lower than"
	case OpLe:
		return "is at most"
	case OpGt:
		return "is higher than"
	case OpGe:
		return "is at least"
	default:
		return string(op)
	}
}

// Valid reports whether op is one of the supported comparison operators.
func (op CompareOp) Valid() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// Condition is a comparison between two terms, e.g. s > p1 or ts > 0.5.
type Condition struct {
	Left  term.Term
	Op    CompareOp
	Right term.Term
}

// Variables returns the variable names occurring in the condition.
func (c Condition) Variables() []string {
	var out []string
	if c.Left.IsVariable() {
		out = append(out, c.Left.Name())
	}
	if c.Right.IsVariable() && (!c.Left.IsVariable() || c.Right.Name() != c.Left.Name()) {
		out = append(out, c.Right.Name())
	}
	return out
}

// Holds evaluates the condition under the bindings. It returns an error
// when a side is still unbound or the two sides are incomparable.
func (c Condition) Holds(s Bindings) (bool, error) {
	l := s.Apply(c.Left)
	r := s.Apply(c.Right)
	if l.IsVariable() {
		return false, fmt.Errorf("condition %v: unbound variable %s", c, l.Name())
	}
	if r.IsVariable() {
		return false, fmt.Errorf("condition %v: unbound variable %s", c, r.Name())
	}
	switch c.Op {
	case OpEq:
		return l.Equal(r), nil
	case OpNe:
		return !l.Equal(r), nil
	}
	cmp, ok := l.Compare(r)
	if !ok {
		return false, fmt.Errorf("condition %v: incomparable terms %v and %v", c, l, r)
	}
	switch c.Op {
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("condition %v: unknown operator", c)
}

// String renders the condition in concrete syntax.
func (c Condition) String() string {
	return fmt.Sprintf("%s %s %s", renderOperand(c.Left), c.Op, renderOperand(c.Right))
}

func renderOperand(t term.Term) string {
	if t.IsVariable() {
		return t.Name()
	}
	return t.Quote()
}

// ArithOp is a binary arithmetic operator in an assignment expression.
type ArithOp string

// Arithmetic operators of the Vadalog subset.
const (
	ArithAdd ArithOp = "+"
	ArithSub ArithOp = "-"
	ArithMul ArithOp = "*"
	ArithDiv ArithOp = "/"
)

// Words returns the natural-language rendering of the arithmetic operator.
func (op ArithOp) Words() string {
	switch op {
	case ArithAdd:
		return "plus"
	case ArithSub:
		return "minus"
	case ArithMul:
		return "multiplied by"
	case ArithDiv:
		return "divided by"
	default:
		return string(op)
	}
}

// Expr is an arithmetic expression over terms: either a single term
// (TermExpr) or a binary operation (BinaryExpr). Expressions appear on the
// right-hand side of assignments, e.g. s = (s1 + s2) * w.
type Expr interface {
	// Eval computes the expression under a substitution.
	Eval(s term.Substitution) (term.Term, error)
	// Variables returns the variable names of the expression, in
	// first-occurrence order.
	Variables() []string
	// String renders the expression in concrete syntax.
	String() string
}

// TermExpr is a constant or variable leaf.
type TermExpr struct {
	T term.Term
}

// Eval implements Expr.
func (e TermExpr) Eval(s term.Substitution) (term.Term, error) {
	t := s.Apply(e.T)
	if t.IsVariable() {
		return term.Term{}, fmt.Errorf("expression: unbound variable %s", t.Name())
	}
	return t, nil
}

// Variables implements Expr.
func (e TermExpr) Variables() []string {
	if e.T.IsVariable() {
		return []string{e.T.Name()}
	}
	return nil
}

// String implements Expr.
func (e TermExpr) String() string { return renderOperand(e.T) }

// BinaryExpr is an arithmetic operation over two sub-expressions.
type BinaryExpr struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (e BinaryExpr) Eval(s term.Substitution) (term.Term, error) {
	l, err := e.L.Eval(s)
	if err != nil {
		return term.Term{}, err
	}
	r, err := e.R.Eval(s)
	if err != nil {
		return term.Term{}, err
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return term.Term{}, fmt.Errorf("expression %s: non-numeric operands %v, %v", e, l, r)
	}
	var v float64
	switch e.Op {
	case ArithAdd:
		v = lf + rf
	case ArithSub:
		v = lf - rf
	case ArithMul:
		v = lf * rf
	case ArithDiv:
		if rf == 0 {
			return term.Term{}, fmt.Errorf("expression %s: division by zero", e)
		}
		v = lf / rf
	default:
		return term.Term{}, fmt.Errorf("expression %s: unknown operator", e)
	}
	return term.Float(v), nil
}

// Variables implements Expr.
func (e BinaryExpr) Variables() []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range append(e.L.Variables(), e.R.Variables()...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// String implements Expr, parenthesizing nested operations.
func (e BinaryExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(e.L), e.Op, parenthesize(e.R))
}

func parenthesize(e Expr) string {
	if _, ok := e.(BinaryExpr); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// BinaryOf builds the expression l op r over two terms; a convenience for
// the common single-operator case.
func BinaryOf(l term.Term, op ArithOp, r term.Term) Expr {
	return BinaryExpr{Op: op, L: TermExpr{l}, R: TermExpr{r}}
}

// Assignment binds a fresh variable to an arithmetic expression over bound
// terms, e.g. s = s1 * s2 or l = (el + es) / 2.
type Assignment struct {
	Target string // fresh variable bound by the assignment
	Expr   Expr
}

// Eval computes the assignment under a substitution, returning the resulting
// constant term.
func (a Assignment) Eval(s term.Substitution) (term.Term, error) {
	v, err := a.Expr.Eval(s)
	if err != nil {
		return term.Term{}, fmt.Errorf("assignment %s: %w", a, err)
	}
	return v, nil
}

// Variables returns the variables read by the assignment (not the target).
func (a Assignment) Variables() []string { return a.Expr.Variables() }

// String renders the assignment in concrete syntax.
func (a Assignment) String() string {
	return fmt.Sprintf("%s = %s", a.Target, a.Expr)
}

// AggFunc is a monotonic aggregation function (Section 3, Vadalog
// extensions).
type AggFunc string

// Aggregation functions supported by the engine.
const (
	AggSum   AggFunc = "sum"
	AggProd  AggFunc = "prod"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
	AggCount AggFunc = "count"
)

// Valid reports whether f is a supported aggregation function.
func (f AggFunc) Valid() bool {
	switch f {
	case AggSum, AggProd, AggMin, AggMax, AggCount:
		return true
	}
	return false
}

// Words returns the natural-language noun for the aggregation ("sum",
// "product", ...), used by the verbalizer: "<result> is given by the sum of
// <contributors>".
func (f AggFunc) Words() string {
	switch f {
	case AggSum:
		return "sum"
	case AggProd:
		return "product"
	case AggMin:
		return "minimum"
	case AggMax:
		return "maximum"
	case AggCount:
		return "count"
	default:
		return string(f)
	}
}

// Aggregation binds a fresh variable to a monotonic aggregate of a body
// variable, grouped by the remaining head variables: e = sum(v).
type Aggregation struct {
	Target string  // fresh variable bound to the aggregate value
	Func   AggFunc // aggregation function
	Over   string  // body variable being aggregated
}

// String renders the aggregation in concrete syntax.
func (g Aggregation) String() string {
	return fmt.Sprintf("%s = %s(%s)", g.Target, g.Func, g.Over)
}

// Rule is a tuple-generating dependency body → head with optional
// conditions, assignments, negated atoms (stratified negation) and at most
// one aggregation. Label is the rule's symbolic name (α, σ1, ...) used in
// reasoning-path notation.
type Rule struct {
	Label       string
	Head        Atom
	Body        []Atom
	Negated     []Atom
	Conditions  []Condition
	Assignments []Assignment
	Aggregation *Aggregation
}

// HasAggregation reports whether the rule contains an aggregation operator.
// Rules with aggregations spawn "dashed" reasoning-path variants (Section
// 4.1, Analysis of Aggregations).
func (r *Rule) HasAggregation() bool { return r.Aggregation != nil }

// BodyPredicates returns the distinct predicates appearing in the body, in
// first-occurrence order.
func (r *Rule) BodyPredicates() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range r.Body {
		if !seen[a.Predicate] {
			seen[a.Predicate] = true
			out = append(out, a.Predicate)
		}
	}
	return out
}

// Variables returns all variable names of the rule in first-occurrence
// order: body atoms, then conditions, assignments, aggregation, head.
func (r *Rule) Variables() []string {
	var out []string
	seen := map[string]bool{}
	add := func(names ...string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	for _, a := range r.Body {
		add(a.Variables()...)
	}
	for _, c := range r.Conditions {
		add(c.Variables()...)
	}
	for _, as := range r.Assignments {
		add(as.Variables()...)
		add(as.Target)
	}
	if r.Aggregation != nil {
		add(r.Aggregation.Over, r.Aggregation.Target)
	}
	add(r.Head.Variables()...)
	return out
}

// Validate checks rule well-formedness: non-empty head and body, head
// variables bound in the body or by an assignment/aggregation target,
// condition variables bound, valid operators. It returns a descriptive error
// for the first violation found.
func (r *Rule) Validate() error {
	if r.Head.Predicate == "" {
		return fmt.Errorf("rule %s: empty head", r.Label)
	}
	if len(r.Body) == 0 {
		return fmt.Errorf("rule %s: empty body", r.Label)
	}
	bound := map[string]bool{}
	for _, a := range r.Body {
		for _, v := range a.Variables() {
			bound[v] = true
		}
	}
	for _, c := range r.Conditions {
		if !c.Op.Valid() {
			return fmt.Errorf("rule %s: invalid comparison operator %q", r.Label, c.Op)
		}
	}
	for _, as := range r.Assignments {
		if as.Target == "" {
			return fmt.Errorf("rule %s: assignment with empty target", r.Label)
		}
		if as.Expr == nil {
			return fmt.Errorf("rule %s: assignment %s has no expression", r.Label, as.Target)
		}
		for _, v := range as.Variables() {
			if !bound[v] {
				return fmt.Errorf("rule %s: assignment operand %s unbound", r.Label, v)
			}
		}
		if bound[as.Target] {
			return fmt.Errorf("rule %s: assignment target %s already bound", r.Label, as.Target)
		}
		bound[as.Target] = true
	}
	if g := r.Aggregation; g != nil {
		if !g.Func.Valid() {
			return fmt.Errorf("rule %s: invalid aggregation function %q", r.Label, g.Func)
		}
		if !bound[g.Over] {
			return fmt.Errorf("rule %s: aggregation over unbound variable %s", r.Label, g.Over)
		}
		if bound[g.Target] {
			return fmt.Errorf("rule %s: aggregation target %s already bound", r.Label, g.Target)
		}
		bound[g.Target] = true
	}
	for _, c := range r.Conditions {
		for _, v := range c.Variables() {
			if !bound[v] {
				return fmt.Errorf("rule %s: condition variable %s unbound", r.Label, v)
			}
		}
	}
	// Safety: every variable of a negated atom must be bound positively,
	// so negation is a per-binding check rather than a universal query.
	for _, a := range r.Negated {
		for _, v := range a.Variables() {
			if !bound[v] {
				return fmt.Errorf("rule %s: negated atom %v uses unbound variable %s", r.Label, a, v)
			}
		}
	}
	for _, v := range r.Head.Variables() {
		if !bound[v] {
			// An unbound head variable is existentially quantified; the
			// chase invents a labelled null for it. This is legal in
			// Vadalog, so not an error.
			continue
		}
	}
	return nil
}

// String renders the rule in concrete syntax: head :- body parts.
func (r *Rule) String() string {
	var parts []string
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, a := range r.Negated {
		parts = append(parts, "not "+a.String())
	}
	for _, as := range r.Assignments {
		parts = append(parts, as.String())
	}
	if r.Aggregation != nil {
		parts = append(parts, r.Aggregation.String())
	}
	for _, c := range r.Conditions {
		parts = append(parts, c.String())
	}
	s := r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
	if r.Label != "" {
		s = "@label(\"" + r.Label + "\") " + s
	}
	return s
}

// Constraint is a negative constraint body → ⊥ (Section 3 of the paper):
// the reasoning task is inconsistent when some homomorphism satisfies the
// body. Written ":- body." in concrete syntax.
type Constraint struct {
	Label      string
	Body       []Atom
	Negated    []Atom
	Conditions []Condition
}

// Validate checks constraint well-formedness.
func (c *Constraint) Validate() error {
	if len(c.Body) == 0 {
		return fmt.Errorf("constraint %s: empty body", c.Label)
	}
	bound := map[string]bool{}
	for _, a := range c.Body {
		for _, v := range a.Variables() {
			bound[v] = true
		}
	}
	for _, a := range c.Negated {
		for _, v := range a.Variables() {
			if !bound[v] {
				return fmt.Errorf("constraint %s: negated atom %v uses unbound variable %s", c.Label, a, v)
			}
		}
	}
	for _, cond := range c.Conditions {
		if !cond.Op.Valid() {
			return fmt.Errorf("constraint %s: invalid comparison operator %q", c.Label, cond.Op)
		}
		for _, v := range cond.Variables() {
			if !bound[v] {
				return fmt.Errorf("constraint %s: condition variable %s unbound", c.Label, v)
			}
		}
	}
	return nil
}

// String renders the constraint in concrete syntax.
func (c *Constraint) String() string {
	var parts []string
	for _, a := range c.Body {
		parts = append(parts, a.String())
	}
	for _, a := range c.Negated {
		parts = append(parts, "not "+a.String())
	}
	for _, cond := range c.Conditions {
		parts = append(parts, cond.String())
	}
	return ":- " + strings.Join(parts, ", ") + "."
}

// Program is a set of rules plus extensional facts and the designated output
// (goal) predicate of the reasoning task.
type Program struct {
	// Name identifies the KG application ("company-control", ...).
	Name string
	// Rules in declaration order.
	Rules []*Rule
	// Constraints are the negative constraints checked after reasoning.
	Constraints []*Constraint
	// Facts is the extensional database embedded in the program text.
	Facts []Atom
	// Output is the goal predicate Ans of the reasoning task.
	Output string
}

// RuleByLabel returns the rule with the given label, or nil.
func (p *Program) RuleByLabel(label string) *Rule {
	for _, r := range p.Rules {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// IDBPredicates returns the intensional predicates (those occurring in some
// head), sorted.
func (p *Program) IDBPredicates() []string {
	seen := map[string]bool{}
	for _, r := range p.Rules {
		seen[r.Head.Predicate] = true
	}
	return sortedKeys(seen)
}

// EDBPredicates returns the extensional predicates (those occurring only in
// bodies or facts), sorted.
func (p *Program) EDBPredicates() []string {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Predicate] = true
	}
	seen := map[string]bool{}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if !idb[a.Predicate] {
				seen[a.Predicate] = true
			}
		}
		for _, a := range r.Negated {
			if !idb[a.Predicate] {
				seen[a.Predicate] = true
			}
		}
	}
	for _, f := range p.Facts {
		if !idb[f.Predicate] {
			seen[f.Predicate] = true
		}
	}
	return sortedKeys(seen)
}

// Predicates returns every predicate of the program, sorted.
func (p *Program) Predicates() []string {
	seen := map[string]bool{}
	for _, r := range p.Rules {
		seen[r.Head.Predicate] = true
		for _, a := range r.Body {
			seen[a.Predicate] = true
		}
		for _, a := range r.Negated {
			seen[a.Predicate] = true
		}
	}
	for _, c := range p.Constraints {
		for _, a := range c.Body {
			seen[a.Predicate] = true
		}
		for _, a := range c.Negated {
			seen[a.Predicate] = true
		}
	}
	for _, f := range p.Facts {
		seen[f.Predicate] = true
	}
	return sortedKeys(seen)
}

// IsIntensional reports whether pred occurs in some rule head.
func (p *Program) IsIntensional(pred string) bool {
	for _, r := range p.Rules {
		if r.Head.Predicate == pred {
			return true
		}
	}
	return false
}

// Validate checks every rule and the output predicate. The output must be an
// intensional predicate when rules are present.
func (p *Program) Validate() error {
	labels := map[string]bool{}
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if r.Label != "" {
			if labels[r.Label] {
				return fmt.Errorf("duplicate rule label %q", r.Label)
			}
			labels[r.Label] = true
		}
	}
	for _, c := range p.Constraints {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, f := range p.Facts {
		if !f.IsGround() {
			return fmt.Errorf("non-ground fact %v", f)
		}
	}
	if p.Output != "" && len(p.Rules) > 0 && !p.IsIntensional(p.Output) {
		return fmt.Errorf("output predicate %q is not intensional", p.Output)
	}
	return nil
}

// String renders the whole program in concrete syntax.
func (p *Program) String() string {
	var sb strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&sb, "@name(%q).\n", p.Name)
	}
	if p.Output != "" {
		fmt.Fprintf(&sb, "@output(%q).\n", p.Output)
	}
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	for _, c := range p.Constraints {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	for _, f := range p.Facts {
		sb.WriteString(f.String())
		sb.WriteString(".\n")
	}
	return sb.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
