package chase

// Live chase state: the engine kept alive after fixpoint so that the
// incremental-maintenance layer (internal/incremental) can mutate the base
// instance and repair the fixpoint without re-running the chase.
//
// Live deliberately exposes narrow primitives — add a base fact, tombstone a
// set of facts, goal-directedly re-derive one atom, re-saturate the rules
// reachable from a set of dirty predicates — and leaves the DRed-style
// orchestration (over-delete closure, repair loop, statistics) to
// internal/incremental. Everything here reuses the engine's existing
// machinery: semi-naive boundaries (lastSeen) survive across Saturate calls,
// aggregation groups accumulate across updates with retracted contributors
// purged, and emission goes through the same emit/emitAgg path, so the
// maintained provenance obeys the same invariants as a from-scratch run
// (premises precede conclusions, one step per fact id, Steps[i].Step == i).
//
// A Live is single-writer: none of its methods may run concurrently with
// each other or with readers of a Snapshot taken earlier. The maintainer
// serializes access; Snapshot copies the per-result maps so that a snapshot
// taken before an update stays safe to explain afterwards (the shared store
// only ever grows, and tombstoned facts keep resolving by id).

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/term"
)

// Live is a chase run kept resident after fixpoint for incremental
// maintenance.
type Live struct {
	e          *engine
	strata     map[string]int
	maxStratum int
	maxRounds  int
	// rounds accumulates evaluation rounds across the initial run and every
	// Saturate since; Snapshot reports it as Result.Rounds.
	rounds int
	// existRules are rules with existentially quantified head variables.
	// Their firing is pre-empted by existing facts, so a retraction can
	// un-pre-empt them; any retraction resets them to a full re-join.
	existRules []*ast.Rule
	hasNeg     bool
	// loadSeconds/evalSeconds split the initial run's wall time; see
	// Result.LoadSeconds.
	loadSeconds float64
	evalSeconds float64
}

// RunLive executes the chase to fixpoint like Run but keeps the engine
// resident, returning a Live handle for incremental maintenance.
func RunLive(p *ast.Program, opts Options) (*Live, error) {
	return RunLiveContext(context.Background(), p, opts)
}

// RunLiveContext is RunLive under a cancellation context (see RunContext).
// The context only governs the initial fixpoint computation: a successfully
// returned Live is detached from it, so a request-scoped context that
// expires later cannot poison subsequent maintenance — install per-update
// contexts with SetContext instead.
func RunLiveContext(ctx context.Context, p *ast.Program, opts Options) (*Live, error) {
	if err := ContextErr(ctx); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("chase: invalid program: %w", err)
	}
	if opts.Batch && opts.Legacy {
		return nil, fmt.Errorf("chase: options Batch and Legacy are mutually exclusive")
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	maxFacts := opts.MaxFacts
	if maxFacts <= 0 {
		maxFacts = defaultMaxFacts
	}
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	e := &engine{
		prog:       p,
		store:      database.NewStore(),
		superseded: map[database.FactID]bool{},
		aggState:   map[string]aggEmission{},
		lastSeen:   map[*ast.Rule]int{},
		aggGroups:  map[*ast.Rule]map[string]*aggGroup{},
		aggOrder:   map[*ast.Rule][]string{},
		aggSeen:    map[*ast.Rule]map[string]struct{}{},
		lastSuper:  map[*ast.Rule]int{},
		plans:      map[*ast.Rule]*plan{},
		maxFacts:   maxFacts,
		naive:      opts.Naive,
		legacy:     opts.Legacy,
		batch:      opts.Batch,
		workers:    workers,
	}
	loadStart := time.Now()
	for _, f := range p.Facts {
		if _, _, err := e.store.Add(f, true); err != nil {
			return nil, err
		}
	}
	for _, f := range opts.ExtraFacts {
		if !f.IsGround() {
			return nil, fmt.Errorf("chase: extra fact %v is not ground", f)
		}
		if _, _, err := e.store.Add(f, true); err != nil {
			return nil, err
		}
	}
	evalStart := time.Now()

	// Compile every rule into its slot-based join plans up front (the
	// legacy engine interprets rules directly and needs none). Constants
	// are interned into the store's dictionary here, before any join runs.
	if !e.legacy {
		for _, r := range p.Rules {
			if _, err := e.planFor(r); err != nil {
				return nil, fmt.Errorf("chase: rule %s: %w", r.Label, err)
			}
		}
	}

	// Stratify: rules are evaluated stratum by stratum so that negated
	// predicates are fully saturated before any rule reads them.
	strata, err := depgraph.New(p).Stratify()
	if err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	maxStratum := 0
	for _, s := range strata {
		if s > maxStratum {
			maxStratum = s
		}
	}

	e.ctx = ctx
	l := &Live{
		e:          e,
		strata:     strata,
		maxStratum: maxStratum,
		maxRounds:  maxRounds,
		existRules: existentialRules(p),
	}
	for _, r := range p.Rules {
		if len(r.Negated) > 0 {
			l.hasNeg = true
			break
		}
	}

	rounds, err := l.Saturate(nil)
	if err != nil {
		return nil, err
	}
	if rounds == 0 {
		l.rounds = 1 // a program without rules still "converges" in one pass
	}
	if err := e.checkConstraints(); err != nil {
		return nil, err
	}
	now := time.Now()
	l.loadSeconds = evalStart.Sub(loadStart).Seconds()
	l.evalSeconds = now.Sub(evalStart).Seconds()
	e.ctx = nil // detach: later maintenance installs its own context
	return l, nil
}

// SetContext installs the cancellation context every subsequent method call
// checks at its round, rule and chunk boundaries; nil removes it. A Live is
// single-writer (see the package comment above), so the caller that owns
// the write lock installs a per-update context before mutating and removes
// it afterwards — the incremental Maintainer does exactly that around each
// Update.
func (l *Live) SetContext(ctx context.Context) {
	if ctx == context.Background() {
		ctx = nil
	}
	l.e.ctx = ctx
}

// existentialRules returns the rules whose head mentions a variable not
// bound by the body, an assignment, or the aggregation target.
func existentialRules(p *ast.Program) []*ast.Rule {
	var out []*ast.Rule
	for _, r := range p.Rules {
		bound := map[string]bool{}
		for _, a := range r.Body {
			for _, v := range a.Variables() {
				bound[v] = true
			}
		}
		for _, as := range r.Assignments {
			bound[as.Target] = true
		}
		if r.Aggregation != nil {
			bound[r.Aggregation.Target] = true
		}
		for _, v := range r.Head.Variables() {
			if !bound[v] {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// Snapshot materializes the current fixpoint as a Result. The Result shares
// the (grow-only) store, step list and per-fact derivation index — later
// updates only append past the ends they had here — but owns a copy of the
// superseded set, so a snapshot taken before an update remains a consistent
// view afterwards; its proof memo is built lazily from that view. Each call
// returns a fresh Result with its own memo, so proofs extracted from it
// reflect exactly this fixpoint.
func (l *Live) Snapshot() *Result {
	e := l.e
	superseded := make(map[database.FactID]bool, len(e.superseded))
	for k, v := range e.superseded {
		superseded[k] = v
	}
	return &Result{
		Program:     e.prog,
		Store:       e.store,
		Steps:       e.steps,
		derivs:      e.derivs[:len(e.derivs):len(e.derivs)],
		superseded:  superseded,
		Rounds:      l.rounds,
		LoadSeconds: l.loadSeconds,
		EvalSeconds: l.evalSeconds,
	}
}

// Store exposes the live store (read-only for callers; mutate only through
// AddBase/Retract).
func (l *Live) Store() *database.Store { return l.e.store }

// Program returns the program the live chase runs.
func (l *Live) Program() *ast.Program { return l.e.prog }

// Steps returns all chase steps so far, chronological. Steps of facts that
// were later tombstoned remain in the list (Steps[i].Step == i is load-
// bearing for the proof memo); skip them via Store().Retracted.
func (l *Live) Steps() []*Derivation { return l.e.steps }

// HasNegation reports whether any rule has a negated body atom; programs
// without negation need no repair iteration beyond one delta pass.
func (l *Live) HasNegation() bool { return l.hasNeg }

// Superseded reports whether the fact is a stale aggregate emission.
func (l *Live) Superseded(id database.FactID) bool { return l.e.superseded[id] }

// AddBase adds one ground atom as an extensional fact. Adding an atom that
// is already live is a no-op (added=false); an atom that is live as a
// derived fact must be retracted first (the maintainer folds it into the
// over-delete closure), which this method enforces with an error.
func (l *Live) AddBase(a ast.Atom) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("chase: base fact %v is not ground", a)
	}
	if f := l.e.store.Lookup(a); f != nil {
		if !f.Extensional {
			return false, fmt.Errorf("chase: atom %v is currently derived; retract it before re-adding as base", a.Display())
		}
		return false, nil
	}
	if _, added, err := l.e.store.Add(a, true); err != nil {
		return false, err
	} else if !added {
		return false, nil
	}
	return true, nil
}

// Retract tombstones the given facts and purges engine state that referenced
// them: aggregation contributors whose premises died are dropped (their
// groups marked dirty for recomputation at the next Saturate), and
// aggregation emissions that died lose their group state so the surviving
// contributors re-emit. Callers pass the full over-delete closure — every
// fact downstream of the unsupported ones — so that the live-premise
// invariant holds afterwards.
func (l *Live) Retract(ids []database.FactID) (int, error) {
	n := 0
	for _, id := range ids {
		if l.e.store.Retracted(id) {
			continue
		}
		if err := l.e.store.Retract(id); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		l.e.purgeRetracted()
	}
	return n, nil
}

// Rederive attempts to re-derive one atom that was over-deleted, searching
// goal-directedly for an alternative proof: for every non-aggregation rule
// whose head unifies with the atom, the body is joined with the head
// bindings seeded (assignment targets excluded — they must be recomputed and
// then match), conditions and negation checked against the current store,
// and the first surviving homomorphism emits the atom with full provenance.
// It reports whether the atom is live afterwards.
func (l *Live) Rederive(a ast.Atom) (bool, error) {
	e := l.e
	if err := e.checkCtx(); err != nil {
		return false, err
	}
	if e.store.Contains(a) {
		return true, nil
	}
	for _, r := range e.prog.Rules {
		if r.HasAggregation() || r.Head.Predicate != a.Predicate || len(r.Head.Terms) != len(a.Terms) {
			continue
		}
		seed := term.Substitution{}
		if !bindAtomSeed(r.Head, a, seed) {
			continue
		}
		// Assignment targets must come out of the assignment evaluation
		// (finishBindings Binds them and fails on a pre-bound target); the
		// head-equality check below re-verifies they reproduce the atom.
		for _, as := range r.Assignments {
			delete(seed, as.Target)
		}
		pending, err := e.joinAtomsFrom(r, seed)
		if err != nil {
			return false, fmt.Errorf("chase: rederive %v: rule %s: %w", a.Display(), r.Label, err)
		}
		if len(pending) == 0 {
			continue
		}
		finished, err := e.finishBindings(r, pending)
		if err != nil {
			return false, fmt.Errorf("chase: rederive %v: rule %s: %w", a.Display(), r.Label, err)
		}
		for _, b := range finished {
			if r.Head.Apply(b.sub).Key() != a.Key() {
				continue
			}
			if _, err := e.emit(r, a, b.facts, nil, e.frameOf(b.sub)); err != nil {
				return false, fmt.Errorf("chase: rederive %v: rule %s: %w", a.Display(), r.Label, err)
			}
			return true, nil
		}
	}
	return false, nil
}

// bindAtomSeed unifies a head pattern with a ground atom, extending seed;
// it returns false on a constant mismatch or an inconsistent repeated
// variable.
func bindAtomSeed(head, a ast.Atom, seed term.Substitution) bool {
	if head.Predicate != a.Predicate || len(head.Terms) != len(a.Terms) {
		return false
	}
	for i, ht := range head.Terms {
		if ht.IsVariable() {
			if !seed.Bind(ht.Name(), a.Terms[i]) {
				return false
			}
			continue
		}
		if !ht.Equal(a.Terms[i]) {
			return false
		}
	}
	return true
}

// joinAtomsFrom is joinAtoms with a seeded initial substitution (the legacy
// map-based join path — re-derivation is goal-directed and selective, so the
// interpreting engine's index probes are the right tool regardless of the
// engine the bulk run uses).
func (e *engine) joinAtomsFrom(r *ast.Rule, seed term.Substitution) ([]binding, error) {
	n := len(r.Body)
	pending := []binding{{sub: seed, facts: make([]database.FactID, n)}}
	for i := 0; i < n; i++ {
		pending = e.extendAtom(r, pending, i, nil)
		if len(pending) == 0 {
			return nil, nil
		}
	}
	return pending, nil
}

// InvalidatedByNegation returns the live facts whose recorded derivation is
// no longer admissible because a negated body atom now matches a live fact
// (the negated predicate gained facts since the derivation fired). Negated
// atoms are grounded with the step's stored homomorphism, so the scan is
// exact. The caller over-deletes the returned facts' closures; atoms with an
// alternative (still-admissible) proof come back through Rederive.
func (l *Live) InvalidatedByNegation() []database.FactID {
	e := l.e
	var out []database.FactID
	for _, d := range e.steps {
		if len(d.Rule.Negated) == 0 || e.store.Retracted(d.Fact) {
			continue
		}
		blocked := false
		for _, na := range d.Rule.Negated {
			for _, id := range e.store.Match(na.Apply(d.Sub)) {
				if !e.superseded[id] {
					blocked = true
					break
				}
			}
			if blocked {
				break
			}
		}
		if blocked {
			out = append(out, d.Fact)
		}
	}
	return out
}

// RevalidateNegatedContributors re-checks stored aggregation contributors of
// rules whose negated predicates gained facts, dropping the now-blocked ones
// and marking their groups dirty. Groups left without contributors lose
// their state; the ids of their still-live emissions are returned for the
// caller to over-delete (a from-scratch run would never have emitted them).
func (l *Live) RevalidateNegatedContributors(gained map[string]bool) []database.FactID {
	e := l.e
	var orphaned []database.FactID
	for _, r := range e.prog.Rules {
		if !r.HasAggregation() || len(r.Negated) == 0 {
			continue
		}
		hit := false
		for _, na := range r.Negated {
			if gained[na.Predicate] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		for key, gr := range e.aggGroups[r] {
			kept := gr.contrib[:0]
			removed := false
			for _, c := range gr.contrib {
				blocked := false
				for _, na := range r.Negated {
					for _, id := range e.store.Match(na.Apply(c.Sub)) {
						if !e.superseded[id] {
							blocked = true
							break
						}
					}
					if blocked {
						break
					}
				}
				if blocked {
					delete(e.aggSeen[r], e.factTupleKey(c.Premises))
					removed = true
					continue
				}
				kept = append(kept, c)
			}
			gr.contrib = kept
			if !removed {
				continue
			}
			e.markDirtyGroup(r, key)
			if len(gr.contrib) == 0 {
				stateKey := r.Label + "\x00" + key
				if st, ok := e.aggState[stateKey]; ok {
					delete(e.aggState, stateKey)
					if !e.store.Retracted(st.fact) {
						orphaned = append(orphaned, st.fact)
					}
				}
			}
		}
	}
	return orphaned
}

// ResetNegationReaders puts every rule with a negated atom over a predicate
// that lost facts back to a full re-join: homomorphisms that the vanished
// facts blocked become derivable only through a complete re-evaluation
// (semi-naive deltas never revisit old facts). It returns the number of
// rules reset.
func (l *Live) ResetNegationReaders(lost map[string]bool) int {
	n := 0
	for _, r := range l.e.prog.Rules {
		for _, na := range r.Negated {
			if lost[na.Predicate] {
				delete(l.e.lastSeen, r)
				n++
				break
			}
		}
	}
	return n
}

// ResetExistentialRules puts every rule with an existential head back to a
// full re-join: their firings are pre-empted by existing facts, so a
// retraction can un-pre-empt a homomorphism that semi-naive deltas would
// never revisit. It returns the number of rules reset.
func (l *Live) ResetExistentialRules() int {
	for _, r := range l.existRules {
		delete(l.e.lastSeen, r)
	}
	return len(l.existRules)
}

// Saturate re-runs the stratified fixpoint loop over the rules reachable
// from the dirty predicates: a rule participates when a body or negated atom
// mentions a dirty predicate (transitively through heads of participating
// rules), when it was reset (no semi-naive boundary), or when one of its
// aggregation groups is dirty. nil selects every rule (the initial run).
// Rules keep their semi-naive boundaries across calls, so each call only
// joins homomorphisms that involve a fact derived since the rule's previous
// evaluation. It returns the number of evaluation rounds.
func (l *Live) Saturate(dirty map[string]bool) (int, error) {
	e := l.e
	include := map[*ast.Rule]bool{}
	if dirty == nil {
		for _, r := range e.prog.Rules {
			include[r] = true
		}
	} else {
		preds := make(map[string]bool, len(dirty))
		for p := range dirty {
			preds[p] = true
		}
		wants := func(r *ast.Rule) bool {
			if len(e.dirtyGroups[r]) > 0 {
				return true
			}
			if _, seen := e.lastSeen[r]; !seen {
				return true // reset (or never evaluated): needs a full pass
			}
			for _, a := range r.Body {
				if preds[a.Predicate] {
					return true
				}
			}
			for _, a := range r.Negated {
				if preds[a.Predicate] {
					return true
				}
			}
			return false
		}
		for changed := true; changed; {
			changed = false
			for _, r := range e.prog.Rules {
				if include[r] || !wants(r) {
					continue
				}
				include[r] = true
				preds[r.Head.Predicate] = true
				changed = true
			}
		}
	}

	rounds := 0
	for stratum := 0; stratum <= l.maxStratum; stratum++ {
		var rules []*ast.Rule
		for _, r := range e.prog.Rules {
			if include[r] && l.strata[r.Head.Predicate] == stratum {
				rules = append(rules, r)
			}
		}
		if len(rules) == 0 {
			continue
		}
		for {
			if err := e.checkCtx(); err != nil {
				return rounds, err
			}
			rounds++
			if rounds > l.maxRounds {
				return rounds, fmt.Errorf("chase: no fixpoint after %d rounds (non-terminating program?)", l.maxRounds)
			}
			changed, err := e.round(rules)
			if err != nil {
				return rounds, err
			}
			if !changed {
				break
			}
		}
	}
	l.rounds += rounds
	return rounds, nil
}

// CheckConstraints verifies the program's negative constraints against the
// current store (the maintainer runs it after every repair, mirroring the
// end-of-run check of a from-scratch chase).
func (l *Live) CheckConstraints() error { return l.e.checkConstraints() }

// markDirtyGroup records that an aggregation group must be recomputed at the
// rule's next evaluation even if no new contributor arrives (it lost one).
func (e *engine) markDirtyGroup(r *ast.Rule, key string) {
	if e.dirtyGroups == nil {
		e.dirtyGroups = map[*ast.Rule]map[string]bool{}
	}
	m := e.dirtyGroups[r]
	if m == nil {
		m = map[string]bool{}
		e.dirtyGroups[r] = m
	}
	m[key] = true
}

// purgeRetracted drops engine state that references tombstoned facts:
// aggregation contributors whose premises died (their groups turn dirty) and
// aggregation emission states whose fact died (so the surviving contributors
// re-emit a fresh total instead of being suppressed by value equality).
func (e *engine) purgeRetracted() {
	var byLabel map[string]*ast.Rule
	ruleOf := func(label string) *ast.Rule {
		if byLabel == nil {
			byLabel = make(map[string]*ast.Rule, len(e.prog.Rules))
			for _, r := range e.prog.Rules {
				if _, ok := byLabel[r.Label]; !ok {
					byLabel[r.Label] = r
				}
			}
		}
		return byLabel[label]
	}
	for r, groups := range e.aggGroups {
		for key, gr := range groups {
			kept := gr.contrib[:0]
			removed := false
			for _, c := range gr.contrib {
				dead := false
				for _, id := range c.Premises {
					if e.store.Retracted(id) {
						dead = true
						break
					}
				}
				if dead {
					delete(e.aggSeen[r], e.factTupleKey(c.Premises))
					removed = true
					continue
				}
				kept = append(kept, c)
			}
			gr.contrib = kept
			if removed {
				e.markDirtyGroup(r, key)
			}
		}
	}
	for k, st := range e.aggState {
		if !e.store.Retracted(st.fact) {
			continue
		}
		delete(e.aggState, k)
		label, groupKey, _ := strings.Cut(k, "\x00")
		if r := ruleOf(label); r != nil && r.HasAggregation() {
			e.markDirtyGroup(r, groupKey)
		}
	}
}

// SortedIDs returns map keys ascending (closure walks iterate deletions in
// id order so that re-derivation sees premises before conclusions).
func SortedIDs(set map[database.FactID]bool) []database.FactID {
	out := make([]database.FactID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
