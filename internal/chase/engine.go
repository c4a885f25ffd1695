package chase

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

// Options configure a chase run.
type Options struct {
	// MaxRounds bounds the number of evaluation rounds; 0 means the
	// default (10_000). The bound exists as a safety net for programs
	// whose termination is not otherwise guaranteed (e.g. multiplicative
	// recursion over cyclic ownership without a threshold condition).
	MaxRounds int
	// MaxFacts bounds the total number of facts; 0 means the default
	// (10_000_000).
	MaxFacts int
	// ExtraFacts are added to the program's embedded facts before running.
	ExtraFacts []ast.Atom
	// Naive disables semi-naive evaluation: every round re-joins every
	// rule against the whole store instead of requiring at least one fact
	// derived since the rule's previous evaluation. Exposed for the
	// ablation benchmark; results are identical either way.
	Naive bool
	// Workers sets the size of the worker pool used for the join phase of
	// each rule evaluation. 0 (and 1) select the sequential engine,
	// preserving its exact behavior; a negative value selects
	// runtime.GOMAXPROCS(0). Parallel evaluation is deterministic: the
	// fact ids, chase steps, provenance edges, and aggregation
	// contributions are byte-for-byte identical to the sequential engine
	// at any worker count (see parallel.go for the argument).
	Workers int
	// Legacy selects the pre-compilation join engine that interprets rules
	// per match with map-based substitutions, instead of the default
	// compiled slot-plan executor (plan.go). Results are byte-identical
	// either way — the differential suite in plan_test.go enforces it —
	// so Legacy exists only as the differential-testing and benchmarking
	// baseline.
	Legacy bool
	// Batch selects the batch-at-a-time columnar join executor (batch.go):
	// each rule evaluation processes its entire semi-naive delta in one
	// vectorized pass over per-predicate sorted columnar indexes
	// (database.Columnar) instead of one depth-first walk per tuple.
	// Results are byte-identical to the default frame executor at any
	// worker count — the differential and fuzz suites enforce it — so,
	// like Workers and Legacy, Batch does not participate in result cache
	// fingerprints. Mutually exclusive with Legacy (the legacy engine
	// predates compiled plans, which the batch executor builds on).
	Batch bool
}

const (
	defaultMaxRounds = 10_000
	defaultMaxFacts  = 10_000_000
)

// Run executes the chase for the program until fixpoint and returns the
// result with full provenance. It is RunLive followed by a Snapshot; callers
// that need to maintain the fixpoint under later base-fact updates keep the
// Live handle instead (see live.go and internal/incremental).
func Run(p *ast.Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, opts)
}

// RunContext is Run under a cancellation context: the engine checks ctx at
// every round, rule and parallel-chunk boundary and returns a wrapped
// ErrCanceled/ErrDeadline promptly after ctx ends. A canceled run has no
// side effects — every run builds its own store — so a later run over the
// same program is byte-identical to one that was never canceled (see
// context.go for the full contract).
func RunContext(ctx context.Context, p *ast.Program, opts Options) (*Result, error) {
	l, err := RunLiveContext(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	return l.Snapshot(), nil
}

// MustRun is Run for statically-valid programs; it panics on error.
func MustRun(p *ast.Program, opts Options) *Result {
	r, err := Run(p, opts)
	if err != nil {
		panic(fmt.Sprintf("chase.MustRun: %v", err))
	}
	return r
}

type engine struct {
	prog       *ast.Program
	store      *database.Store
	steps      []*Derivation
	derivs     []*Derivation // see record
	superseded map[database.FactID]bool
	// aggState tracks, per aggregation rule and group, the last emitted
	// fact so that an updated total supersedes it.
	aggState map[string]aggEmission
	// lastSeen records, per rule, the store size at the start of the
	// rule's previous evaluation; facts with id >= lastSeen are "new" for
	// semi-naive evaluation.
	lastSeen map[*ast.Rule]int
	// aggGroups accumulates aggregation contributors incrementally per
	// rule and group across rounds (semi-naive mode); aggOrder keeps the
	// deterministic group discovery order.
	aggGroups map[*ast.Rule]map[string]*aggGroup
	aggOrder  map[*ast.Rule][]string
	// aggSeen holds, per aggregation rule, the identity keys (premise fact
	// ids) of its accumulated contributors, so a re-derivation of the same
	// premise tuple is not counted twice. The premises determine the
	// binding and so its group, which makes one set per rule enough.
	aggSeen map[*ast.Rule]map[string]struct{}
	// supersessions counts supersession events; a rule whose groups may
	// reference superseded contributors recomputes all its totals when
	// the count moved since its previous evaluation.
	supersessions int
	lastSuper     map[*ast.Rule]int
	// dirtyGroups marks aggregation groups that lost a contributor or an
	// emission to a retraction (incremental maintenance, live.go); the
	// rule's next evaluation recomputes exactly those groups even when no
	// new contributor arrived. Nil outside incremental updates.
	dirtyGroups map[*ast.Rule]map[string]bool
	// plans caches the compiled slot-plan of each rule (and of constraint
	// pseudo-rules); unused in legacy mode.
	plans    map[*ast.Rule]*plan
	nullSeq  int
	maxFacts int
	naive    bool
	// legacy selects the map-based join interpreter over the compiled
	// slot-plan executor.
	legacy bool
	// batch selects the batch-at-a-time columnar executor (batch.go) over
	// the tuple-at-a-time frame executor; implies !legacy.
	batch bool
	// workers is the join-phase worker-pool size; <= 1 means sequential.
	workers int
	// keyBuf is the reusable scratch buffer for aggregation group and
	// contributor-identity keys (single-threaded accumulation phase only).
	keyBuf []byte
	// keyByID caches the canonical key bytes of interned values and emitBuf
	// is the reusable atom-key buffer — both serve the batch executor's
	// vectorized emission path (emitCols), which deduplicates derived rows
	// against the store without materializing atoms or substitutions.
	keyByID [][]byte
	emitBuf []byte
	// layouts interns provenance frame layouts by their NUL-terminated
	// names (see frame.go); layoutBuf and nameBuf are its scratch buffers.
	layouts   map[string]*frameVars
	layoutBuf []byte
	nameBuf   []string
	// ctx is the run's cancellation context; nil means none (see context.go
	// for the checkpoint placement and the state left after a cancel).
	ctx context.Context
}

// aggGroup is the accumulated state of one aggregation group.
type aggGroup struct {
	key     string
	sub     Frame // bindings of the group variables
	contrib []Contribution
}

type aggEmission struct {
	fact  database.FactID
	value term.Term
}

// round applies each given rule once over the current store. It reports
// whether any new fact was derived. Cancellation is checked before every
// rule evaluation, so a canceled round stops between two complete
// evaluations.
func (e *engine) round(rules []*ast.Rule) (bool, error) {
	changed := false
	for _, r := range rules {
		if err := e.checkCtx(); err != nil {
			return changed, err
		}
		var c bool
		var err error
		if r.HasAggregation() {
			c, err = e.applyAggRule(r)
		} else {
			c, err = e.applyPlainRule(r)
		}
		if err != nil {
			return false, fmt.Errorf("chase: rule %s: %w", r.Label, err)
		}
		changed = changed || c
	}
	return changed, nil
}

// binding is one body homomorphism together with the matched facts in
// body-atom order. The legacy engine materializes the substitution directly
// (sub); the compiled engine carries the flat slot frame (frame for
// atom-bound variables as interned ids, vals for assignment targets). Both
// become a provenance Frame only at the emission boundary (bindingFrame).
type binding struct {
	sub   term.Substitution
	frame []term.ValueID
	vals  []term.Term
	facts []database.FactID
}

// planFor returns the cached compiled plan of the rule, compiling it on
// first use (rules at Run start, constraint pseudo-rules when checked).
func (e *engine) planFor(r *ast.Rule) (*plan, error) {
	if p, ok := e.plans[r]; ok {
		return p, nil
	}
	p, err := compilePlan(r, e.store.Interner())
	if err != nil {
		return nil, err
	}
	e.compileFrames(p)
	e.plans[r] = p
	return p, nil
}

// atomFilter restricts which facts an atom position may match during
// semi-naive evaluation; nil admits every fact.
type atomFilter func(atomIdx int, id database.FactID) bool

// joinBody enumerates all homomorphisms from the rule body into the current
// store, skipping superseded facts. Assignments are evaluated inline and
// conditions that are fully bound are checked; conditions mentioning the
// aggregation target are deferred (returned separately).
func (e *engine) joinBody(r *ast.Rule) ([]binding, error) {
	if !e.legacy {
		p, err := e.planFor(r)
		if err != nil {
			return nil, err
		}
		if e.batch {
			return e.joinBatchBody(p)
		}
		if e.workers > 1 {
			return e.joinPlanBodyParallel(p)
		}
		return e.joinPlanBody(p)
	}
	if e.workers > 1 {
		return e.joinBodyParallel(r)
	}
	pending, err := e.joinAtoms(r, nil, nil)
	if err != nil || pending == nil {
		return nil, err
	}
	return e.finishBindings(r, pending)
}

// joinBodySemiNaive enumerates only the homomorphisms that use at least one
// fact with id >= boundary (a fact derived since the rule's previous
// evaluation), via the standard pivot decomposition: for pivot i, atoms
// before i match old facts, atom i matches new facts, atoms after i match
// anything. The decomposition is disjoint, so no duplicates arise.
func (e *engine) joinBodySemiNaive(r *ast.Rule, boundary database.FactID) ([]binding, error) {
	if !e.legacy {
		p, err := e.planFor(r)
		if err != nil {
			return nil, err
		}
		if e.batch {
			return e.joinBatchSemiNaive(p, boundary)
		}
		if e.workers > 1 {
			return e.joinPlanSemiNaiveParallel(p, boundary)
		}
		return e.joinPlanSemiNaive(p, boundary)
	}
	if e.workers > 1 {
		return e.joinBodySemiNaiveParallel(r, boundary)
	}
	var all []binding
	for pivot := range r.Body {
		pending, err := e.joinAtoms(r, pivotOrder(r, pivot), pivotFilter(pivot, boundary))
		if err != nil {
			return nil, err
		}
		all = append(all, pending...)
	}
	if len(all) == 0 {
		return nil, nil
	}
	return e.finishBindings(r, all)
}

// pivotFilter is the semi-naive admission rule for one pivot decomposition:
// atoms before the pivot match only old facts, the pivot matches only new
// facts, atoms after the pivot match anything.
func pivotFilter(pivot int, boundary database.FactID) atomFilter {
	return func(atomIdx int, id database.FactID) bool {
		switch {
		case atomIdx < pivot:
			return id < boundary
		case atomIdx == pivot:
			return id >= boundary
		default:
			return true
		}
	}
}

// pivotOrder starts the join at the pivot atom: it is restricted to the
// (few) new facts, so the enumeration is cut down immediately instead of
// first scanning the full extent of the earlier atoms.
func pivotOrder(r *ast.Rule, pivot int) []int {
	order := make([]int, 0, len(r.Body))
	order = append(order, pivot)
	for i := range r.Body {
		if i != pivot {
			order = append(order, i)
		}
	}
	return order
}

// joinAtoms performs the relational join of the body atoms in the given
// evaluation order (nil means body order) under an optional per-atom fact
// filter. The premise facts of each binding are reported in body-atom
// order regardless of the evaluation order.
func (e *engine) joinAtoms(r *ast.Rule, order []int, allow atomFilter) ([]binding, error) {
	n := len(r.Body)
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	first := make([]database.FactID, n)
	pending := []binding{{sub: term.Substitution{}, facts: first}}
	for _, atomIdx := range order {
		pending = e.extendAtom(r, pending, atomIdx, allow)
		if len(pending) == 0 {
			return nil, nil
		}
	}
	return pending, nil
}

// extendAtom extends every pending binding with every admissible match of
// one body atom, preserving the relative order of the inputs (the output is
// ordered lexicographically by input position, then match position). It
// only reads the store and the superseded set, so disjoint input slices can
// be extended concurrently.
func (e *engine) extendAtom(r *ast.Rule, pending []binding, atomIdx int, allow atomFilter) []binding {
	pattern := r.Body[atomIdx]
	n := len(r.Body)
	var next []binding
	for _, b := range pending {
		for _, m := range e.store.MatchBind(pattern, b.sub) {
			if e.superseded[m.Fact.ID] {
				continue
			}
			if allow != nil && !allow(atomIdx, m.Fact.ID) {
				continue
			}
			facts := make([]database.FactID, n)
			copy(facts, b.facts)
			facts[atomIdx] = m.Fact.ID
			next = append(next, binding{sub: m.Sub, facts: facts})
		}
	}
	return next
}

// finishBindings evaluates assignments and the non-deferred conditions over
// the joined bindings.
func (e *engine) finishBindings(r *ast.Rule, pending []binding) ([]binding, error) {
	// Evaluate assignments, extending each binding.
	for _, as := range r.Assignments {
		for i := range pending {
			v, err := as.Eval(pending[i].sub)
			if err != nil {
				return nil, err
			}
			if !pending[i].sub.Bind(as.Target, v) {
				return nil, fmt.Errorf("assignment %s: target already bound", as)
			}
		}
	}
	// Apply the conditions that are evaluable now (i.e. that do not
	// mention a not-yet-bound aggregation target).
	deferTarget := ""
	if r.Aggregation != nil {
		deferTarget = r.Aggregation.Target
	}
	var out []binding
	for _, b := range pending {
		ok := true
		for _, c := range r.Conditions {
			if deferTarget != "" && mentions(c, deferTarget) {
				continue
			}
			holds, err := c.Holds(b.sub)
			if err != nil {
				return nil, err
			}
			if !holds {
				ok = false
				break
			}
		}
		// Stratified negation: the binding is rejected when a negated atom
		// matches some current (non-superseded) fact. Negated predicates
		// live in strictly lower strata, so their extension is final here.
		for _, na := range r.Negated {
			if !ok {
				break
			}
			grounded := na.Apply(b.sub)
			for _, id := range e.store.Match(grounded) {
				if !e.superseded[id] {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, nil
}

// checkConstraints verifies every negative constraint against the saturated
// store, reporting the first violating homomorphism.
func (e *engine) checkConstraints() error {
	for _, c := range e.prog.Constraints {
		if err := e.checkCtx(); err != nil {
			return err
		}
		pseudo := &ast.Rule{
			Label:      c.Label,
			Head:       ast.NewAtom("⊥"),
			Body:       c.Body,
			Negated:    c.Negated,
			Conditions: c.Conditions,
		}
		bindings, err := e.joinBody(pseudo)
		if err != nil {
			return fmt.Errorf("chase: constraint %s: %w", c.Label, err)
		}
		if len(bindings) > 0 {
			witness := make([]string, len(bindings[0].facts))
			for i, id := range bindings[0].facts {
				witness[i] = e.store.Get(id).String()
			}
			return fmt.Errorf("chase: constraint %s violated by %s", constraintName(c), strings.Join(witness, ", "))
		}
	}
	return nil
}

func constraintName(c *ast.Constraint) string {
	if c.Label != "" {
		return c.Label
	}
	return c.String()
}

func mentions(c ast.Condition, v string) bool {
	return (c.Left.IsVariable() && c.Left.Name() == v) ||
		(c.Right.IsVariable() && c.Right.Name() == v)
}

// applyPlainRule fires a non-aggregation rule on every body homomorphism.
// After its first evaluation, semi-naive mode only considers homomorphisms
// involving at least one fact derived since the rule's previous evaluation.
func (e *engine) applyPlainRule(r *ast.Rule) (bool, error) {
	if e.batch && !e.legacy {
		p, err := e.planFor(r)
		if err != nil {
			return false, err
		}
		if p.head != nil {
			return e.applyPlainRuleCols(r, p)
		}
	}
	prev, seen := e.lastSeen[r]
	e.lastSeen[r] = e.store.Len()
	var bindings []binding
	var err error
	switch {
	case e.naive || !seen || prev == 0:
		bindings, err = e.joinBody(r)
	case e.store.Len() == prev:
		return false, nil // no new facts since the previous evaluation
	default:
		bindings, err = e.joinBodySemiNaive(r, database.FactID(prev))
	}
	if err != nil {
		// Roll the semi-naive boundary back so the interrupted evaluation
		// (e.g. a cancellation at a chunk boundary) is not recorded as done;
		// the join emitted nothing, so this restores the pre-call state.
		if seen {
			e.lastSeen[r] = prev
		} else {
			delete(e.lastSeen, r)
		}
		return false, err
	}
	changed := false
	for _, b := range bindings {
		f := e.bindingFrame(r, b)
		// Restricted chase: when the head has existential variables, the
		// step is pre-empted if some existing fact already satisfies the
		// head pattern under the current bindings (existential positions
		// act as wildcards). Without this check the rule would invent a
		// fresh null every round and never reach a fixpoint. MatchAny
		// stops at the first witness instead of materializing the full
		// match list.
		if hasExistential(r, f) {
			pattern := r.Head.Apply(f)
			if e.store.MatchAny(pattern) {
				continue
			}
		}
		head, f, err := e.instantiateHead(r, f)
		if err != nil {
			return false, err
		}
		added, err := e.emit(r, head, b.facts, nil, f)
		if err != nil {
			return false, err
		}
		changed = changed || added
	}
	return changed, nil
}

// applyPlainRuleCols is applyPlainRule on the batch engine for rules with a
// compiled head layout (non-existential, non-aggregating): join units stay
// columnar and feed the vectorized emission path, so no Substitution, atom,
// or per-row key string is built for rows that turn out to be duplicates.
// Semi-naive bookkeeping, error rollback, emission order, and every
// observable store/provenance effect mirror applyPlainRule exactly.
func (e *engine) applyPlainRuleCols(r *ast.Rule, p *plan) (bool, error) {
	prev, seen := e.lastSeen[r]
	e.lastSeen[r] = e.store.Len()
	var units []batchUnit
	var err error
	switch {
	case e.naive || !seen || prev == 0:
		units, err = e.joinBatchUnits(p, false, 0, false)
	case e.store.Len() == prev:
		return false, nil // no new facts since the previous evaluation
	default:
		units, err = e.joinBatchUnits(p, true, database.FactID(prev), false)
	}
	if err != nil {
		// Roll the semi-naive boundary back so the interrupted evaluation
		// (e.g. a cancellation at a chunk boundary) is not recorded as done;
		// the join emitted nothing, so this restores the pre-call state.
		if seen {
			e.lastSeen[r] = prev
		} else {
			delete(e.lastSeen, r)
		}
		return false, err
	}
	changed := false
	for _, u := range units {
		if u.cols != nil {
			c, err := e.emitCols(r, p, u.cols)
			if err != nil {
				return false, err
			}
			changed = changed || c
			continue
		}
		// Frame-fallback units emit per binding, the classic path. The head
		// has no existential variables (p.head != nil), so the restricted-
		// chase pre-emption never applies.
		for _, b := range u.binds {
			head, f, err := e.instantiateHead(r, e.bindingFrame(r, b))
			if err != nil {
				return false, err
			}
			added, err := e.emit(r, head, b.facts, nil, f)
			if err != nil {
				return false, err
			}
			changed = changed || added
		}
	}
	return changed, nil
}

// idKey returns the canonical key bytes of an interned value, cached on the
// engine (emission is single-threaded).
func (e *engine) idKey(id term.ValueID) []byte {
	if int(id) >= len(e.keyByID) {
		size := e.store.Interner().Len()
		if size <= int(id) {
			size = int(id) + 1
		}
		grown := make([][]byte, size)
		copy(grown, e.keyByID)
		e.keyByID = grown
	}
	if e.keyByID[id] == nil {
		e.keyByID[id] = []byte(e.store.Interner().Value(id).Key())
	}
	return e.keyByID[id]
}

// emitCols is the vectorized emission path: it walks canonical leaf columns
// row by row, builds each head atom's canonical key into a reusable buffer
// from cached per-value key bytes, and skips duplicates with a single
// allocation-free map read (Store.LookupKey) — emit's Add would return
// added=false and record nothing, so skipping is byte-identical. Only rows
// that actually insert materialize the atom, row, frame, premises, and
// derivation, via the store's pre-keyed fast path (Store.AddKeyed).
func (e *engine) emitCols(r *ast.Rule, p *plan, st *batchCols) (bool, error) {
	hp := p.head
	in := e.store.Interner()
	nb := len(p.rule.Body)
	changed := false
	buf := e.emitBuf
	for i := 0; i < st.n; i++ {
		// The limit check precedes the duplicate check, exactly like emit.
		if e.store.Len() >= e.maxFacts {
			e.emitBuf = buf
			return false, fmt.Errorf("fact limit %d exceeded", e.maxFacts)
		}
		buf = append(buf[:0], hp.open...)
		for j := range hp.part {
			part := &hp.part[j]
			if j > 0 {
				buf = append(buf, ',')
			}
			switch {
			case part.isConst:
				buf = append(buf, part.key...)
			case part.kind == refSlot:
				buf = append(buf, e.idKey(st.slots[part.idx][i])...)
			default:
				buf = append(buf, st.vals[part.idx][i].Key()...)
			}
		}
		buf = append(buf, ')')
		if _, ok := e.store.LookupKey(buf); ok {
			continue // already derived; no new fact, step, or proof (see emit)
		}
		terms := make([]term.Term, len(hp.part))
		row := make([]term.ValueID, len(hp.part))
		for j := range hp.part {
			part := &hp.part[j]
			switch {
			case part.isConst:
				terms[j], row[j] = part.t, part.id
			case part.kind == refSlot:
				id := st.slots[part.idx][i]
				terms[j], row[j] = in.Value(id), id
			default:
				t := st.vals[part.idx][i]
				terms[j], row[j] = t, in.Intern(t)
			}
		}
		key := make([]byte, len(buf))
		copy(key, buf)
		f, err := e.store.AddKeyed(ast.Atom{Predicate: hp.pred, Terms: terms}, key, row, false)
		if err != nil {
			e.emitBuf = buf
			return false, err
		}
		vals := make([]term.Term, len(p.bindSrc))
		for j, ref := range p.bindSrc {
			if ref.kind == refSlot {
				vals[j] = in.Value(st.slots[ref.idx][i])
			} else {
				vals[j] = st.vals[ref.idx][i]
			}
		}
		premises := make([]database.FactID, nb)
		for a := 0; a < nb; a++ {
			premises[a] = st.facts[a][i]
		}
		d := &Derivation{
			Step:     len(e.steps),
			Rule:     r,
			Fact:     f.ID,
			Premises: premises,
			Sub:      Frame{vars: p.bindVars, vals: vals},
		}
		e.record(d)
		changed = true
	}
	e.emitBuf = buf
	return changed, nil
}

// applyAggRule evaluates an aggregation rule with group-by semantics: body
// homomorphisms are grouped by the variables visible outside the aggregate
// (head variables plus deferred-condition variables, minus the target), the
// aggregate is computed per group over all contributors, deferred conditions
// are checked, and a changed total supersedes the rule's previous emission
// for that group.
func (e *engine) applyAggRule(r *ast.Rule) (bool, error) {
	// Aggregation groups accumulate contributors incrementally: after the
	// first (full) join, semi-naive mode only joins homomorphisms that use
	// a fact derived since the rule's previous evaluation and merges them
	// into the stored groups. A group's total is recomputed when it gains
	// contributors, or for every group when a supersession happened since
	// the previous evaluation (a stored contributor may have gone stale).
	prev, seen := e.lastSeen[r]
	e.lastSeen[r] = e.store.Len()
	full := e.naive || !seen || prev == 0
	prevSuper := e.lastSuper[r]
	superMoved := prevSuper != e.supersessions
	e.lastSuper[r] = e.supersessions
	dirty := e.dirtyGroups[r]
	if !full && e.store.Len() == prev && !superMoved && len(dirty) == 0 {
		return false, nil
	}
	delete(e.dirtyGroups, r)

	var bindings []binding
	var err error
	if full {
		e.aggGroups[r] = map[string]*aggGroup{}
		e.aggOrder[r] = nil
		delete(e.aggSeen, r)
		bindings, err = e.joinBody(r)
	} else if e.store.Len() > prev {
		bindings, err = e.joinBodySemiNaive(r, database.FactID(prev))
	}
	if err != nil {
		// Restore the evaluation bookkeeping consumed above so an
		// interrupted join (cancellation at a chunk boundary) leaves the
		// rule due for re-evaluation, not silently skipped. In full mode the
		// wiped group state is rebuilt by the full re-join the restored
		// boundary forces.
		if seen {
			e.lastSeen[r] = prev
		} else {
			delete(e.lastSeen, r)
		}
		e.lastSuper[r] = prevSuper
		if dirty != nil {
			e.dirtyGroups[r] = dirty
		}
		return false, err
	}

	g := r.Aggregation
	groupVars := aggGroupVars(r)
	groups := e.aggGroups[r]
	if groups == nil {
		groups = map[string]*aggGroup{}
		e.aggGroups[r] = groups
	}
	idents := e.aggSeen[r]
	if idents == nil && len(bindings) > 0 {
		idents = map[string]struct{}{}
		e.aggSeen[r] = idents
	}
	touched := map[string]bool{}
	for key := range dirty {
		touched[key] = true
	}
	for _, b := range bindings {
		// Contributor identity: the tuple of premise facts. Distinct
		// facts are distinct contributors (two loans between the same
		// entities both count); re-derivations of the identical premise
		// tuple are not double counted.
		ident := e.factTupleKey(b.facts)
		if _, dup := idents[ident]; dup {
			continue
		}
		key := e.groupKeyOf(r, groupVars, b)
		gr, ok := groups[key]
		if !ok {
			gr = &aggGroup{key: key, sub: e.groupFrame(r, groupVars, b)}
			groups[key] = gr
			e.aggOrder[r] = append(e.aggOrder[r], key)
		}
		idents[ident] = struct{}{}
		val, bound := e.bindingValue(r, b, g.Over)
		if !bound {
			return false, fmt.Errorf("aggregation %s: variable %s unbound", g, g.Over)
		}
		gr.contrib = append(gr.contrib, Contribution{Premises: b.facts, Value: val, Sub: e.bindingFrame(r, b)})
		touched[key] = true
	}

	recomputeAll := full || superMoved
	changed := false
	for _, key := range e.aggOrder[r] {
		if !recomputeAll && !touched[key] {
			continue
		}
		gr := groups[key]
		live := e.liveContributions(gr.contrib)
		if len(live) == 0 {
			continue
		}
		total, err := aggregate(g.Func, live)
		if err != nil {
			return false, err
		}
		if _, bound := gr.sub.Get(g.Target); bound {
			return false, fmt.Errorf("aggregation %s: target already bound", g)
		}
		f := e.withBindings(gr.sub, []string{g.Target}, []term.Term{total})
		// Deferred conditions (those mentioning the target).
		ok := true
		for _, c := range r.Conditions {
			if !mentions(c, g.Target) {
				continue
			}
			holds, err := c.Holds(f)
			if err != nil {
				return false, err
			}
			if !holds {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		head, f, err := e.instantiateHead(r, f)
		if err != nil {
			return false, err
		}
		premises := dedupFacts(live)
		added, err := e.emitAgg(r, key, head, premises, live, f, total)
		if err != nil {
			return false, err
		}
		changed = changed || added
	}
	return changed, nil
}

// liveContributions filters out contributors whose premises have been
// superseded by a more complete aggregate emission or tombstoned by an
// incremental retraction (the latter is belt-and-braces: purgeRetracted
// removes dead contributors physically; the check here is a cheap len test
// in the append-only common case).
func (e *engine) liveContributions(contrib []Contribution) []Contribution {
	live := contrib
	for i, c := range contrib {
		stale := false
		for _, id := range c.Premises {
			if e.superseded[id] || e.store.Retracted(id) {
				stale = true
				break
			}
		}
		if stale {
			// Copy-on-write: most groups have no stale contributors.
			if len(live) == len(contrib) {
				live = append([]Contribution{}, contrib[:i]...)
			}
			continue
		}
		if len(live) != len(contrib) {
			live = append(live, c)
		}
	}
	return live
}

// aggGroupVars returns the grouping variables of an aggregation rule: the
// head variables plus the variables of target-mentioning conditions, minus
// the target itself.
func aggGroupVars(r *ast.Rule) []string {
	g := r.Aggregation
	seen := map[string]bool{g.Target: true}
	var out []string
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	add(r.Head.Variables())
	for _, c := range r.Conditions {
		if mentions(c, g.Target) {
			add(c.Variables())
		}
	}
	return out
}

// Aggregation keys are integer-id based: group keys encode atom-bound
// variables as their dense interned ids (4 bytes each) instead of canonical
// term strings, and contributor-identity keys varint-encode the premise fact
// ids. Assignment-target group variables encode by canonical key — a
// computed value may enter the dictionary later, so its id would not be
// stable across rounds, while its canonical key is. Id equality coincides
// with canonical-key equality, so the partition (and, with binding order,
// the aggOrder discovery order) is identical to the previous string keys.

// groupKeyOf builds the group key of one binding. Both engines produce the
// same partition; the byte encodings differ only in how a term is reached
// (slot id vs. dictionary lookup).
func (e *engine) groupKeyOf(r *ast.Rule, groupVars []string, b binding) string {
	buf := e.keyBuf[:0]
	in := e.store.Interner()
	if b.sub != nil {
		assigned := map[string]bool{}
		for _, as := range r.Assignments {
			assigned[as.Target] = true
		}
		for _, v := range groupVars {
			t, ok := b.sub[v]
			switch {
			case !ok:
				buf = append(buf, 0xff)
			case assigned[v]:
				buf = appendKeyPart(buf, t)
			default:
				// Atom-bound terms come from interned fact rows, so the
				// lookup always succeeds and the id is round-stable.
				if id, found := in.Lookup(t); found {
					buf = appendIDPart(buf, id)
				} else {
					buf = appendKeyPart(buf, t)
				}
			}
		}
	} else {
		p := e.plans[r]
		for _, ref := range p.groupRefs {
			switch ref.kind {
			case refSlot:
				buf = appendIDPart(buf, b.frame[ref.idx])
			case refVal:
				buf = appendKeyPart(buf, b.vals[ref.idx])
			default:
				buf = append(buf, 0xff)
			}
		}
	}
	e.keyBuf = buf
	return string(buf)
}

func appendIDPart(buf []byte, id term.ValueID) []byte {
	return append(buf, 'i', byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

func appendKeyPart(buf []byte, t term.Term) []byte {
	buf = append(buf, 'k')
	buf = append(buf, t.Key()...)
	return append(buf, 0)
}

// groupFrame binds the group variables of one binding (the group-level part
// of the homomorphism stored on the aggregation group).
func (e *engine) groupFrame(r *ast.Rule, groupVars []string, b binding) Frame {
	if b.sub != nil {
		sub := term.Substitution{}
		for _, v := range groupVars {
			if t, bound := b.sub[v]; bound {
				sub[v] = t
			}
		}
		return e.frameOf(sub)
	}
	p := e.plans[r]
	return slotFrame(p.groupVars, p.groupSrc, e.store.Interner(), b.frame, b.vals)
}

// bindingValue resolves one variable of a binding (the aggregated variable
// at accumulation time) without materializing the whole substitution.
func (e *engine) bindingValue(r *ast.Rule, b binding, name string) (term.Term, bool) {
	if b.sub != nil {
		t, ok := b.sub[name]
		return t, ok
	}
	p := e.plans[r]
	switch ref := p.overRef; {
	case ref.name == name && ref.kind == refSlot:
		return e.store.Interner().Value(b.frame[ref.idx]), true
	case ref.name == name && ref.kind == refVal:
		return b.vals[ref.idx], true
	}
	if i, ok := p.slotOf[name]; ok {
		return e.store.Interner().Value(b.frame[i]), true
	}
	if i, ok := p.valOf[name]; ok {
		return b.vals[i], true
	}
	return term.Term{}, false
}

// factTupleKey is the contributor-identity key: the premise fact ids,
// varint-encoded into the engine's reusable key buffer.
func (e *engine) factTupleKey(ids []database.FactID) string {
	buf := e.keyBuf[:0]
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	e.keyBuf = buf
	return string(buf)
}

func dedupFacts(contrib []Contribution) []database.FactID {
	var out []database.FactID
	seen := map[database.FactID]bool{}
	for _, c := range contrib {
		for _, id := range c.Premises {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// aggregate folds contributor values with the aggregation function.
func aggregate(fn ast.AggFunc, contrib []Contribution) (term.Term, error) {
	if fn == ast.AggCount {
		return term.Int(int64(len(contrib))), nil
	}
	if len(contrib) == 0 {
		return term.Term{}, fmt.Errorf("aggregate %s over empty group", fn)
	}
	acc, ok := contrib[0].Value.AsFloat()
	if !ok {
		return term.Term{}, fmt.Errorf("aggregate %s over non-numeric value %v", fn, contrib[0].Value)
	}
	for _, c := range contrib[1:] {
		v, ok := c.Value.AsFloat()
		if !ok {
			return term.Term{}, fmt.Errorf("aggregate %s over non-numeric value %v", fn, c.Value)
		}
		switch fn {
		case ast.AggSum:
			acc += v
		case ast.AggProd:
			acc *= v
		case ast.AggMin:
			if v < acc {
				acc = v
			}
		case ast.AggMax:
			if v > acc {
				acc = v
			}
		default:
			return term.Term{}, fmt.Errorf("unsupported aggregation %q", fn)
		}
	}
	return term.Float(acc), nil
}

// hasExistential reports whether the rule head contains variables unbound
// under f (i.e. existentially quantified head variables).
func hasExistential(r *ast.Rule, f Frame) bool {
	for _, v := range r.Head.Variables() {
		if _, ok := f.Get(v); !ok {
			return true
		}
	}
	return false
}

// instantiateHead grounds the head under the frame, inventing labelled
// nulls for existential variables (numbered in head-variable order).
func (e *engine) instantiateHead(r *ast.Rule, f Frame) (ast.Atom, Frame, error) {
	var names []string
	var nulls []term.Term
	for _, v := range r.Head.Variables() {
		if _, ok := f.Get(v); !ok {
			e.nullSeq++
			names = append(names, v)
			nulls = append(nulls, term.Null("z"+strconv.Itoa(e.nullSeq)))
		}
	}
	if len(names) > 0 {
		f = e.withBindings(f, names, nulls)
	}
	head := r.Head.Apply(f)
	if !head.IsGround() {
		return ast.Atom{}, Frame{}, fmt.Errorf("head %v not ground after instantiation", head)
	}
	return head, f, nil
}

// emit adds a derived fact with its derivation. Chase steps whose conclusion
// already exists are pre-empted (no new fact, no new step); the derivation
// is still recorded as an alternative proof if it is the fact's first.
func (e *engine) emit(r *ast.Rule, head ast.Atom, premises []database.FactID, contrib []Contribution, sub Frame) (bool, error) {
	if e.store.Len() >= e.maxFacts {
		return false, fmt.Errorf("fact limit %d exceeded", e.maxFacts)
	}
	f, added, err := e.store.Add(head, false)
	if err != nil {
		return false, err
	}
	if !added {
		return false, nil
	}
	d := &Derivation{
		Step:         len(e.steps),
		Rule:         r,
		Fact:         f.ID,
		Premises:     premises,
		Contributors: contrib,
		Sub:          sub,
	}
	e.record(d)
	return true, nil
}

// record appends a chase step and indexes it under its fact. Emission
// records a step only for a fact it has just added, so a fact has at most
// one derivation and the index, a slice by fact id, is only ever written
// past the end it had at the previous Snapshot. That is what lets every
// Snapshot share it instead of copying it.
func (e *engine) record(d *Derivation) {
	e.steps = append(e.steps, d)
	for len(e.derivs) <= int(d.Fact) {
		e.derivs = append(e.derivs, nil)
	}
	e.derivs[d.Fact] = d
}

// emitAgg emits an aggregation result and supersedes the rule's previous
// emission for the same group when the total changed.
func (e *engine) emitAgg(r *ast.Rule, groupKey string, head ast.Atom, premises []database.FactID, contrib []Contribution, sub Frame, total term.Term) (bool, error) {
	stateKey := r.Label + "\x00" + groupKey
	if prev, ok := e.aggState[stateKey]; ok && prev.value.Equal(total) {
		return false, nil
	}
	existing := e.store.Lookup(head)
	added, err := e.emit(r, head, premises, contrib, sub)
	if err != nil {
		return false, err
	}
	if !added && existing != nil && !existing.Extensional {
		// The identical total was already derived (possibly by another
		// rule); record the group state so we do not loop.
		if prev, ok := e.aggState[stateKey]; ok && prev.fact != existing.ID {
			e.superseded[prev.fact] = true
			e.supersessions++
		}
		e.aggState[stateKey] = aggEmission{fact: existing.ID, value: total}
		if e.superseded[existing.ID] {
			// Only incremental updates reach this: the group's total moved
			// away and came back, so its old emission — superseded by a value
			// the group no longer holds — becomes current again. Its recorded
			// premises are live (a dead premise would have tombstoned it), so
			// the original derivation stands.
			delete(e.superseded, existing.ID)
			e.supersessions++
			return true, nil
		}
		return false, nil
	}
	if !added {
		return false, nil
	}
	f := e.store.Lookup(head)
	if prev, ok := e.aggState[stateKey]; ok && prev.fact != f.ID {
		e.superseded[prev.fact] = true
		e.supersessions++
	}
	e.aggState[stateKey] = aggEmission{fact: f.ID, value: total}
	return true, nil
}

// SortedFactIDs returns ids sorted ascending; a convenience for
// deterministic reporting.
//
// It is deliberately kept out of the emission path: emit and emitAgg record
// premises in body-atom (respectively first-use) order without sorting, and
// that order is part of the provenance contract — templates verbalize
// premises in rule-body order, so re-sorting here would scramble
// explanations. The only callers sort once per proof extraction (the leaf
// set) or per report, never per emission; a regression test
// (TestProvenancePremiseOrderStable) pins both properties down.
func SortedFactIDs(ids []database.FactID) []database.FactID {
	out := make([]database.FactID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
