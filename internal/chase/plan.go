package chase

// Compiled join plans: instead of interpreting a rule per match with
// map-based substitutions, every rule is compiled once into slot-based join
// plans over the store's interned values, and the join phase runs a
// depth-first executor over a flat binding frame.
//
// A plan numbers the rule's variables into two slot spaces: variables bound
// by body atoms get id slots (holding term.ValueID, compared as integers),
// and assignment targets get value slots (holding the computed term.Term
// directly, so the read-only join phase never interns a new value — see the
// concurrency contract in the package comment). For each semi-naive pivot
// order the compiler pre-resolves every atom position to a database.SlotOp
// (constant id, already-bound slot, first write, or repeated-variable
// check), and annotates every condition, assignment, and negated atom with
// the earliest join depth at which its operands are bound, so they run as
// soon as possible (predicate pushdown) instead of only on complete
// bindings.
//
// Equivalence with the map-based (legacy) engine. The executor enumerates
// candidates per atom in the same index-bucket order, with the same
// smallest-bucket selection, as Store.MatchBind — so its depth-first leaf
// order equals the legacy breadth-first binding order (both are the
// lexicographic order of per-atom match choices). Conditions and negations
// are pure per-binding filters and assignments are deterministic functions
// of bound operands, so running them at an earlier depth prunes the same
// complete bindings legacy would drop, without reordering survivors. Fact
// ids, chase steps, premise order, and aggregation contributions are
// therefore byte-identical to the legacy engine (differentially tested in
// plan_test.go). The one intended divergence: on ill-typed programs whose
// conditions or arithmetic fail at run time, pushdown can surface the error
// on a different (or no) homomorphism, because a partial binding that legacy
// never finishes may be filtered — or fail — earlier here. Both engines
// still fail deterministically on such programs.
//
// A binding frame is converted to a provenance Frame (frame.go) only at the
// emission boundary (engine.bindingFrame), so provenance, aggregation
// grouping, mapping, and core see the same bindings under every executor.

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

// refKind says where a variable lives at execution time.
type refKind uint8

const (
	// refUnbound marks a variable bound by neither atoms nor assignments
	// (an existential head variable, or the aggregation target).
	refUnbound refKind = iota
	// refSlot is an id slot in the binding frame (bound by a body atom).
	refSlot
	// refVal is a value slot (bound by an assignment).
	refVal
)

// slotRef resolves one variable name to its slot.
type slotRef struct {
	name string
	kind refKind
	idx  int
}

// plan is the compiled form of one rule, shared by every evaluation of that
// rule. It is immutable after compilation; executors carry all mutable
// state, so one plan serves concurrent join workers.
type plan struct {
	rule *ast.Rule
	// nslots id slots (atom variables, first-occurrence order over the
	// body); nvals value slots (assignment targets, rule order).
	nslots    int
	nvals     int
	slotNames []string
	valNames  []string
	slotOf    map[string]int
	valOf     map[string]int
	// orders[p] is the compiled evaluation order for semi-naive pivot p;
	// orders[0] is also the plain body order used by full joins.
	orders []*orderedPlan
	// existential reports whether the head has variables no slot binds
	// (the restricted-chase pre-emption check applies).
	existential bool
	// Aggregation support: the aggregated variable and the group-by
	// variables resolved to slots (nil for non-aggregation rules).
	overRef   slotRef
	groupRefs []slotRef
	// head is the vectorized-emission layout of the head atom (nil when the
	// rule is existential or aggregating — those emit per binding).
	head *headPlan
	// Provenance frame layouts (see frame.go), filled in by the engine that
	// interns them: a binding's frame (body variables and assignment
	// targets) and an aggregation group's frame (its bound group
	// variables), each with the slot of every sorted position.
	bindVars  *frameVars
	bindSrc   []slotRef
	groupVars *frameVars
	groupSrc  []slotRef
}

// headPlan precompiles the head atom for the batch executor's vectorized
// emission path (engine.emitCols): the canonical-key prefix and, per head
// position, either a pre-interned constant (with its canonical key bytes)
// or the slot/value column to read. Pre-interning head constants at compile
// time is unobservable — results compare by atom, never by value id.
type headPlan struct {
	pred string
	open []byte // "Pred(" — the canonical-key prefix
	part []headPart
}

type headPart struct {
	isConst bool
	kind    refKind // refSlot or refVal for variable positions
	idx     int
	t       term.Term    // constant term
	id      term.ValueID // interned constant id
	key     []byte       // constant canonical key bytes
}

// compileHead builds the emission layout; existential rules (fresh nulls per
// emission) and aggregation rules (target bound at group level) keep the
// per-binding path.
func (p *plan) compileHead(r *ast.Rule, in *term.Interner) {
	if p.existential || r.Aggregation != nil {
		return
	}
	hp := &headPlan{pred: r.Head.Predicate}
	hp.open = append([]byte(r.Head.Predicate), '(')
	for _, t := range r.Head.Terms {
		if !t.IsVariable() {
			hp.part = append(hp.part, headPart{isConst: true, t: t, id: in.Intern(t), key: []byte(t.Key())})
			continue
		}
		ref := p.resolveVar(t.Name())
		hp.part = append(hp.part, headPart{kind: ref.kind, idx: ref.idx})
	}
	p.head = hp
}

// orderedPlan is a plan specialized to one evaluation order of the body
// atoms: per order position, the slot-compiled atom pattern and the pushed-
// down steps to run once that position is bound.
type orderedPlan struct {
	order []int
	atoms []database.SlotPattern
	// steps[d] run after the atom at order position d binds, in legacy
	// relative order: assignments (rule order), then conditions, then
	// negated atoms.
	steps [][]planStep
	// keyPos[d] is the preferred join-key position of the atom at order
	// position d — a SlotBound position, chosen by the join-key ordering
	// pass so consecutive depths share one variable order where the body
	// permits (see planJoinKeys); -1 when the atom has no bound position.
	// The batch executor's merge (leapfrog) extension sorts its tuple set by
	// the join key once and keeps it sorted across depths that chain on the
	// same slot, so only the first depth of a chain pays a sort.
	keyPos []int
}

// planJoinKeys is the join-key ordering pass: it walks the evaluation order
// and picks, per depth, the bound position whose slot continues the previous
// depth's key (the shared variable order of a leapfrog triejoin), falling
// back to the first bound position when the atom does not bind the chain
// slot. The choice is a pure performance hint — any probe position yields
// the same candidates, and the batch executor restores canonical order at
// the emission boundary — so the runtime may override it for a position with
// much better selectivity.
func planJoinKeys(atoms []database.SlotPattern) []int {
	keyPos := make([]int, len(atoms))
	chain := -1
	for d := range atoms {
		best := -1
		for pos, sop := range atoms[d].Ops {
			if sop.Kind != database.SlotBound {
				continue
			}
			if best == -1 {
				best = pos
			}
			if sop.Slot == chain {
				best = pos
				break
			}
		}
		keyPos[d] = best
		if best >= 0 {
			chain = atoms[d].Ops[best].Slot
		}
	}
	return keyPos
}

// planStep is one pushed-down body obligation; exactly one field is set.
type planStep struct {
	assign *planAssign
	cond   *planCond
	neg    *planNeg
}

// planOperand is a condition/expression operand resolved against the slot
// spaces.
type planOperand struct {
	kind    refKind
	idx     int
	t       term.Term // constant operand (kind == refUnbound is never used here)
	isConst bool
}

type planAssign struct {
	target int // value slot
	expr   *planExpr
	src    ast.Assignment
}

type planCond struct {
	l, r planOperand
	op   ast.CompareOp
	src  ast.Condition
}

// planNeg is a negated atom compiled to a slot pattern. Positions holding an
// assignment target cannot be pre-interned (the computed value may not be in
// the dictionary); valFixes records them for per-binding resolution.
type planNeg struct {
	pat      database.SlotPattern
	valFixes []valFix
}

type valFix struct {
	pos int // pattern position to overwrite
	val int // value slot to resolve
}

// planExpr mirrors ast.Expr with operands resolved to slots.
type planExpr struct {
	leaf    bool
	operand planOperand
	op      ast.ArithOp
	l, r    *planExpr
	src     string
}

// compilePlan compiles a rule against the store's value dictionary. Atom
// constants are interned here — before any concurrent join runs — so that
// pattern positions compare as integers at match time.
func compilePlan(r *ast.Rule, in *term.Interner) (*plan, error) {
	p := &plan{
		rule:   r,
		slotOf: map[string]int{},
		valOf:  map[string]int{},
	}
	for _, a := range r.Body {
		for _, t := range a.Terms {
			if t.IsVariable() {
				if _, ok := p.slotOf[t.Name()]; !ok {
					p.slotOf[t.Name()] = len(p.slotNames)
					p.slotNames = append(p.slotNames, t.Name())
				}
			}
		}
	}
	p.nslots = len(p.slotNames)
	for _, as := range r.Assignments {
		if _, ok := p.valOf[as.Target]; !ok {
			p.valOf[as.Target] = len(p.valNames)
			p.valNames = append(p.valNames, as.Target)
		}
	}
	p.nvals = len(p.valNames)
	for _, v := range r.Head.Variables() {
		if _, ok := p.slotOf[v]; ok {
			continue
		}
		if _, ok := p.valOf[v]; ok {
			continue
		}
		if r.Aggregation != nil && v == r.Aggregation.Target {
			continue
		}
		p.existential = true
	}
	if g := r.Aggregation; g != nil {
		p.overRef = p.resolveVar(g.Over)
		for _, v := range aggGroupVars(r) {
			p.groupRefs = append(p.groupRefs, p.resolveVar(v))
		}
	}
	p.compileHead(r, in)
	p.orders = make([]*orderedPlan, len(r.Body))
	for pivot := range r.Body {
		op, err := p.compileOrder(r, in, pivotOrder(r, pivot))
		if err != nil {
			return nil, err
		}
		p.orders[pivot] = op
	}
	return p, nil
}

// resolveVar maps a variable name onto its slot space.
func (p *plan) resolveVar(name string) slotRef {
	if i, ok := p.slotOf[name]; ok {
		return slotRef{name: name, kind: refSlot, idx: i}
	}
	if i, ok := p.valOf[name]; ok {
		return slotRef{name: name, kind: refVal, idx: i}
	}
	return slotRef{name: name, kind: refUnbound}
}

// compileOrder compiles the body for one evaluation order: slot ops per atom
// position, plus the pushed-down step schedule.
func (p *plan) compileOrder(r *ast.Rule, in *term.Interner, order []int) (*orderedPlan, error) {
	op := &orderedPlan{
		order: order,
		atoms: make([]database.SlotPattern, len(order)),
		steps: make([][]planStep, len(order)),
	}
	// slotDepth[s] is the order position that first binds id slot s.
	slotDepth := make([]int, p.nslots)
	for i := range slotDepth {
		slotDepth[i] = -1
	}
	for d, atomIdx := range order {
		a := r.Body[atomIdx]
		ops := make([]database.SlotOp, len(a.Terms))
		for pos, t := range a.Terms {
			if !t.IsVariable() {
				ops[pos] = database.SlotOp{Kind: database.SlotConst, Val: in.Intern(t)}
				continue
			}
			slot := p.slotOf[t.Name()]
			switch {
			case slotDepth[slot] >= 0 && slotDepth[slot] < d:
				ops[pos] = database.SlotOp{Kind: database.SlotBound, Slot: slot}
			case slotDepth[slot] == d:
				// Repeated variable within this atom: check against the
				// value written at the earlier position.
				ops[pos] = database.SlotOp{Kind: database.SlotSame, Slot: slot}
			default:
				ops[pos] = database.SlotOp{Kind: database.SlotWrite, Slot: slot}
				slotDepth[slot] = d
			}
		}
		op.atoms[d] = database.SlotPattern{Predicate: a.Predicate, Ops: ops}
	}
	op.keyPos = planJoinKeys(op.atoms)

	// Schedule assignments at the earliest depth where their operands are
	// bound. valDepth[v] is the depth at which value slot v becomes bound.
	valDepth := make([]int, p.nvals)
	operandDepth := func(o planOperand) int {
		switch o.kind {
		case refSlot:
			return slotDepth[o.idx]
		case refVal:
			return valDepth[o.idx]
		}
		return 0
	}
	var exprDepth func(e *planExpr) int
	exprDepth = func(e *planExpr) int {
		if e.leaf {
			return operandDepth(e.operand)
		}
		ld, rd := exprDepth(e.l), exprDepth(e.r)
		if ld > rd {
			return ld
		}
		return rd
	}
	type scheduled struct {
		depth int
		step  planStep
	}
	var pending []scheduled
	for _, as := range r.Assignments {
		expr, err := p.compileExpr(as.Expr)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Label, err)
		}
		pa := &planAssign{target: p.valOf[as.Target], expr: expr, src: as}
		d := exprDepth(expr)
		valDepth[pa.target] = d
		pending = append(pending, scheduled{d, planStep{assign: pa}})
	}
	deferTarget := ""
	if r.Aggregation != nil {
		deferTarget = r.Aggregation.Target
	}
	for _, c := range r.Conditions {
		if deferTarget != "" && mentions(c, deferTarget) {
			continue // checked at the aggregation group level
		}
		pc := &planCond{l: p.compileOperand(c.Left), r: p.compileOperand(c.Right), op: c.Op, src: c}
		d := operandDepth(pc.l)
		if rd := operandDepth(pc.r); rd > d {
			d = rd
		}
		pending = append(pending, scheduled{d, planStep{cond: pc}})
	}
	for _, na := range r.Negated {
		pn := &planNeg{pat: database.SlotPattern{Predicate: na.Predicate, Ops: make([]database.SlotOp, len(na.Terms))}}
		d := 0
		for pos, t := range na.Terms {
			if !t.IsVariable() {
				pn.pat.Ops[pos] = database.SlotOp{Kind: database.SlotConst, Val: in.Intern(t)}
				continue
			}
			switch ref := p.resolveVar(t.Name()); ref.kind {
			case refSlot:
				pn.pat.Ops[pos] = database.SlotOp{Kind: database.SlotBound, Slot: ref.idx}
				if slotDepth[ref.idx] > d {
					d = slotDepth[ref.idx]
				}
			case refVal:
				// Placeholder; resolved per binding against the computed
				// value (see executor.negBlocked).
				pn.pat.Ops[pos] = database.SlotOp{Kind: database.SlotConst, Val: term.NoValue}
				pn.valFixes = append(pn.valFixes, valFix{pos: pos, val: ref.idx})
				if valDepth[ref.idx] > d {
					d = valDepth[ref.idx]
				}
			default:
				return nil, fmt.Errorf("rule %s: negated atom %v uses unbound variable %s", r.Label, na, t.Name())
			}
		}
		pending = append(pending, scheduled{d, planStep{neg: pn}})
	}
	// Within a depth, keep the legacy relative order: assignments first (in
	// rule order), then conditions, then negations. pending was appended in
	// exactly that order, so a stable bucket pass preserves it.
	for d := range op.steps {
		for _, s := range pending {
			if s.depth == d {
				op.steps[d] = append(op.steps[d], s.step)
			}
		}
	}
	return op, nil
}

func (p *plan) compileOperand(t term.Term) planOperand {
	if !t.IsVariable() {
		return planOperand{isConst: true, t: t}
	}
	ref := p.resolveVar(t.Name())
	return planOperand{kind: ref.kind, idx: ref.idx}
}

func (p *plan) compileExpr(e ast.Expr) (*planExpr, error) {
	switch e := e.(type) {
	case ast.TermExpr:
		return &planExpr{leaf: true, operand: p.compileOperand(e.T), src: e.String()}, nil
	case ast.BinaryExpr:
		l, err := p.compileExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := p.compileExpr(e.R)
		if err != nil {
			return nil, err
		}
		return &planExpr{op: e.Op, l: l, r: r, src: e.String()}, nil
	default:
		return nil, fmt.Errorf("cannot compile expression %v (%T)", e, e)
	}
}

// executor runs one ordered plan depth-first over a reusable frame. It is
// single-goroutine state: parallel evaluation gives each task its own
// executor over the shared immutable plan.
type executor struct {
	e       *engine
	p       *plan
	op      *orderedPlan
	allow   atomFilter
	frame   []term.ValueID
	vals    []term.Term
	facts   []database.FactID
	out     []binding
	scratch []database.SlotOp
}

func (e *engine) newExecutor(p *plan, op *orderedPlan, allow atomFilter) *executor {
	x := &executor{
		e:     e,
		p:     p,
		op:    op,
		allow: allow,
		frame: make([]term.ValueID, p.nslots),
		facts: make([]database.FactID, len(p.rule.Body)),
	}
	if p.nvals > 0 {
		x.vals = make([]term.Term, p.nvals)
	}
	for i := range x.frame {
		x.frame[i] = term.NoValue
	}
	return x
}

// extend enumerates every admissible match of the atom at order position
// depth and recurses. Candidates are visited in the same order legacy
// MatchBind yields them, so leaves appear in the legacy binding order.
func (x *executor) extend(depth int) error {
	pa := &x.op.atoms[depth]
	atomIdx := x.op.order[depth]
	store := x.e.store
	for _, id := range store.CandidatesSlots(*pa, x.frame) {
		if !store.BindRowSlots(*pa, id, x.frame) {
			continue
		}
		if x.e.superseded[id] {
			continue
		}
		if x.allow != nil && !x.allow(atomIdx, id) {
			continue
		}
		x.facts[atomIdx] = id
		if err := x.afterBind(depth); err != nil {
			return err
		}
	}
	return nil
}

// afterBind runs once the atom at order position depth is bound: pushed-down
// steps, then the next atom or the leaf.
func (x *executor) afterBind(depth int) error {
	ok, err := x.runSteps(depth)
	if err != nil || !ok {
		return err
	}
	if depth+1 == len(x.op.atoms) {
		x.emitLeaf()
		return nil
	}
	return x.extend(depth + 1)
}

// runSteps applies the steps scheduled at this depth; ok=false drops the
// current partial binding.
func (x *executor) runSteps(depth int) (bool, error) {
	steps := x.op.steps[depth]
	for i := range steps {
		switch st := &steps[i]; {
		case st.assign != nil:
			v, err := x.evalExpr(st.assign.expr)
			if err != nil {
				return false, fmt.Errorf("assignment %s: %w", st.assign.src, err)
			}
			x.vals[st.assign.target] = v
		case st.cond != nil:
			ok, err := x.holds(st.cond)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		case st.neg != nil:
			if x.negBlocked(st.neg) {
				return false, nil
			}
		}
	}
	return true, nil
}

// emitLeaf materializes the current frame as one binding.
func (x *executor) emitLeaf() {
	b := binding{
		frame: append([]term.ValueID(nil), x.frame...),
		facts: append([]database.FactID(nil), x.facts...),
	}
	if len(x.vals) > 0 {
		b.vals = append([]term.Term(nil), x.vals...)
	}
	x.out = append(x.out, b)
}

// resolve turns an operand into its current term.
func (x *executor) resolve(o planOperand) term.Term {
	if o.isConst {
		return o.t
	}
	if o.kind == refVal {
		return x.vals[o.idx]
	}
	return x.e.store.Interner().Value(x.frame[o.idx])
}

// holds evaluates a compiled condition with ast.Condition.Holds semantics.
func (x *executor) holds(c *planCond) (bool, error) {
	return condHolds(c.op, x.resolve(c.l), x.resolve(c.r), c.src)
}

// condHolds is the shared condition semantics of the frame and batch
// executors (ast.Condition.Holds over resolved terms). Both must route
// through it so filter decisions — and error messages on ill-typed
// programs — stay identical across engines.
func condHolds(op ast.CompareOp, l, r term.Term, src ast.Condition) (bool, error) {
	switch op {
	case ast.OpEq:
		return l.Equal(r), nil
	case ast.OpNe:
		return !l.Equal(r), nil
	}
	cmp, ok := l.Compare(r)
	if !ok {
		return false, fmt.Errorf("condition %v: incomparable terms %v and %v", src, l, r)
	}
	switch op {
	case ast.OpLt:
		return cmp < 0, nil
	case ast.OpLe:
		return cmp <= 0, nil
	case ast.OpGt:
		return cmp > 0, nil
	case ast.OpGe:
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("condition %v: unknown operator", src)
}

// evalExpr evaluates a compiled expression with ast.Expr.Eval semantics.
func (x *executor) evalExpr(e *planExpr) (term.Term, error) {
	if e.leaf {
		return x.resolve(e.operand), nil
	}
	l, err := x.evalExpr(e.l)
	if err != nil {
		return term.Term{}, err
	}
	r, err := x.evalExpr(e.r)
	if err != nil {
		return term.Term{}, err
	}
	return arithCombine(e.op, l, r, e.src)
}

// arithCombine is the shared arithmetic semantics of the frame and batch
// executors (ast.BinaryExpr.Eval over resolved operands).
func arithCombine(op ast.ArithOp, l, r term.Term, src string) (term.Term, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return term.Term{}, fmt.Errorf("expression %s: non-numeric operands %v, %v", src, l, r)
	}
	var v float64
	switch op {
	case ast.ArithAdd:
		v = lf + rf
	case ast.ArithSub:
		v = lf - rf
	case ast.ArithMul:
		v = lf * rf
	case ast.ArithDiv:
		if rf == 0 {
			return term.Term{}, fmt.Errorf("expression %s: division by zero", src)
		}
		v = lf / rf
	default:
		return term.Term{}, fmt.Errorf("expression %s: unknown operator", src)
	}
	return term.Float(v), nil
}

// negBlocked reports whether some current (non-superseded) fact matches the
// negated atom under the frame — the stratified-negation rejection.
func (x *executor) negBlocked(n *planNeg) bool {
	pat := n.pat
	if len(n.valFixes) > 0 {
		x.scratch = append(x.scratch[:0], n.pat.Ops...)
		for _, vf := range n.valFixes {
			id, ok := x.e.store.Interner().Lookup(x.vals[vf.val])
			if !ok {
				// The computed value was never interned, so no stored
				// fact can contain it: the negated atom has no match.
				return false
			}
			x.scratch[vf.pos] = database.SlotOp{Kind: database.SlotConst, Val: id}
		}
		pat = database.SlotPattern{Predicate: n.pat.Predicate, Ops: x.scratch}
	}
	store := x.e.store
	for _, id := range store.CandidatesSlots(pat, x.frame) {
		if x.e.superseded[id] {
			continue
		}
		if store.BindRowSlots(pat, id, x.frame) {
			return true
		}
	}
	return false
}

// joinPlanBody is the compiled-engine full body join (sequential).
func (e *engine) joinPlanBody(p *plan) ([]binding, error) {
	x := e.newExecutor(p, p.orders[0], nil)
	if err := x.extend(0); err != nil {
		return nil, err
	}
	return x.out, nil
}

// joinPlanSemiNaive is the compiled-engine semi-naive join (sequential):
// the standard pivot decomposition, pivot results concatenated in pivot
// order exactly like the legacy engine.
func (e *engine) joinPlanSemiNaive(p *plan, boundary database.FactID) ([]binding, error) {
	var all []binding
	for pivot := range p.orders {
		x := e.newExecutor(p, p.orders[pivot], pivotFilter(pivot, boundary))
		x.out = all
		if err := x.extend(0); err != nil {
			return nil, err
		}
		all = x.out
	}
	return all, nil
}
