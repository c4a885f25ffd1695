// Package chase implements the chase procedure over a Vadalog program
// (Section 3 of the paper): rules are applied to the extensional database
// until fixpoint, incrementally deriving new facts. Every chase step is
// recorded with full provenance — the activated rule, the homomorphism, and
// the premise facts — forming the chase graph G(D,Σ) that the explanation
// pipeline walks to produce proofs.
//
// Aggregations follow Vadalog's monotonic semantics operationally: each
// round recomputes group aggregates over the currently-derived premises; a
// changed aggregate emits a new fact and supersedes the rule's previous
// emission for the same group, so downstream rules only observe the current
// total. Chase steps whose conclusion is isomorphic to an existing fact are
// pre-empted, which guarantees termination for the programs considered in
// the paper (see its Section 5, "Structural Analysis").
//
// # Evaluation strategies and concurrency contract
//
// Evaluation is semi-naive by default (Options.Naive selects the naive
// ablation). Body joins run on compiled slot-based plans: each rule is
// compiled once into join plans over the store's interned value ids, and
// a depth-first executor drives a flat binding frame through them,
// converting to a provenance Frame only at the emission boundary (see
// plan.go for the compilation scheme and the equivalence argument).
// Options.Legacy selects the map-interpreting engine instead; results
// are byte-identical either way, so it exists as the differential and
// benchmarking baseline.
//
// Options.Batch replaces the tuple-at-a-time frame executor with a
// batch-at-a-time columnar executor built on the store's sorted columnar
// indexes (database.Columnar): each rule evaluation admits an entire
// delta's worth of tuples into column vectors, runs every join depth,
// condition, assignment and negation check over whole columns, and
// converts to provenance Frames only for the tuples that survive to
// emission. The batch executor is byte-identical to the frame executor
// — same facts, ids, step order, premises and substitutions — because
// both enumerate candidates in ascending fact-id order and the columnar
// index's runs are sorted by (value, dense position) with dense position
// equal to bucket rank (see batch.go for the full determinism contract).
// Batch requires compiled plans, so it is mutually exclusive with
// Options.Legacy.
//
// Optionally the join phase is parallel: Options.Workers > 1 fans the
// read-only join phase of each rule evaluation out over a worker pool
// while keeping the emission phase single-threaded, so results are
// byte-for-byte identical to the sequential engine at any worker count
// (see parallel.go for the determinism argument). The compiled path
// keeps the join phase free of dictionary writes — assignment results
// live in value slots, never interned mid-join — so workers share the
// immutable plan and only read the store, the superseded set, and the
// interner.
//
// Run and MustRun are safe to call concurrently — every call builds its
// own engine and store. A *Result and everything reachable from it
// (Store, Steps, derivations, extracted Proofs) is immutable after Run
// returns and safe for any number of concurrent readers; the explanation
// service serves concurrent queries over shared results this way. The
// internal engine type is not safe for concurrent use; its parallel join
// workers only ever read the store, which Freeze/Thaw on
// database.Store enforce at run time.
package chase

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

// Contribution is one aggregation contributor: the premise facts of a single
// body homomorphism and the value it contributed to the aggregate.
type Contribution struct {
	// Premises are the body facts of this contributor, in body-atom order.
	Premises []database.FactID
	// Value is the contributed value (the binding of the aggregated
	// variable).
	Value term.Term
	// Sub is the full body homomorphism of this contributor, binding the
	// contributor-varying variables (e.g. the individual debtor and loan
	// amount of one exposure) that the group-level frame omits. It is an
	// immutable Frame — a slice of terms over the rule's interned variable
	// layout — so a contributor costs its values, not a hash map; call
	// Sub.Substitution() for a map.
	Sub Frame
}

// Derivation records one chase step: how a fact was derived.
type Derivation struct {
	// Step is the global chase step number (0-based, chronological).
	Step int
	// Rule is the activated rule.
	Rule *ast.Rule
	// Fact is the derived fact.
	Fact database.FactID
	// Premises are the distinct premise facts, in body-atom order for
	// plain rules; for aggregation rules they are the union of all
	// contributor premises in first-use order.
	Premises []database.FactID
	// Contributors is non-empty exactly for aggregation rules: one entry
	// per contributing homomorphism.
	Contributors []Contribution
	// Sub is the homomorphism of the chase step as an immutable Frame (see
	// Contribution.Sub). For aggregation rules it binds the group variables
	// and the aggregate target; contributor-only variables are not
	// included.
	Sub Frame
}

// IsAggregation reports whether the step applied an aggregation rule.
func (d *Derivation) IsAggregation() bool { return len(d.Contributors) > 0 }

// MultiContributor reports whether the aggregation had two or more
// contributors. The template mapper uses this to choose between a reasoning
// path and its "dashed" aggregation variant (paper Section 4.1).
func (d *Derivation) MultiContributor() bool { return len(d.Contributors) > 1 }

// IntensionalPremises returns the premise facts whose predicates are
// intensional in the program, in premise order.
func (d *Derivation) IntensionalPremises(isIDB func(string) bool, store *database.Store) []database.FactID {
	var out []database.FactID
	for _, id := range d.Premises {
		if isIDB(store.Get(id).Atom.Predicate) {
			out = append(out, id)
		}
	}
	return out
}

// String renders the derivation compactly for debugging.
func (d *Derivation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "step %d: rule %s: [", d.Step, d.Rule.Label)
	for i, p := range d.Premises {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "#%d", p)
	}
	fmt.Fprintf(&sb, "] => #%d", d.Fact)
	if d.IsAggregation() {
		fmt.Fprintf(&sb, " (%d contributors)", len(d.Contributors))
	}
	return sb.String()
}

// Result is the outcome of running the chase: the saturated store, the
// chronological list of chase steps, and per-fact derivations.
type Result struct {
	// Program is the program that was run.
	Program *ast.Program
	// Store holds the extensional and derived facts.
	Store *database.Store
	// Steps are all chase steps in chronological order.
	Steps []*Derivation
	// derivs indexes derivations by fact id (nil for extensional facts and
	// past its end). It shares the engine's index: see engine.record.
	derivs []*Derivation
	// superseded marks aggregate facts replaced by a more complete total.
	superseded map[database.FactID]bool
	// Rounds is the number of evaluation rounds until fixpoint.
	Rounds int
	// LoadSeconds and EvalSeconds split the initial run's wall time into
	// the fact-ingestion phase (interning the program's and the options'
	// extra facts into the store) and the evaluation phase (plan
	// compilation, stratification, the chase to fixpoint, and constraint
	// checking). Pure observability: the engine-differential suites
	// compare results field by field and deliberately ignore these. The
	// engine benchmark (`cmd/bench -fig columnar`) reads EvalSeconds so
	// executor comparisons are not diluted by ingestion, which runs
	// identical code under every executor.
	LoadSeconds float64
	EvalSeconds float64

	// memoOnce guards the one-time construction of the proof-closure memo;
	// memo is immutable once built (see memo.go). Both are internal to
	// ExtractProof and do not affect the Result's value semantics.
	memoOnce sync.Once
	memo     *proofMemo
}

// CanonicalDerivation returns the derivation of a fact (the chase step that
// added it), or nil for extensional facts.
func (r *Result) CanonicalDerivation(id database.FactID) *Derivation {
	if uint(id) >= uint(len(r.derivs)) {
		return nil
	}
	return r.derivs[id]
}

// Superseded reports whether the fact is a stale aggregate emission.
func (r *Result) Superseded(id database.FactID) bool { return r.superseded[id] }

// Derived returns the ids of all non-superseded derived facts of the given
// predicate, in derivation order. With pred == "" it returns all derived
// facts.
func (r *Result) Derived(pred string) []database.FactID {
	var out []database.FactID
	for _, f := range r.Store.Facts() {
		if f.Extensional || r.superseded[f.ID] || r.Store.Retracted(f.ID) {
			continue
		}
		if pred != "" && f.Atom.Predicate != pred {
			continue
		}
		out = append(out, f.ID)
	}
	return out
}

// Answers returns the non-superseded facts of the program's output
// predicate.
func (r *Result) Answers() []database.FactID {
	return r.Derived(r.Program.Output)
}

// LookupDerived finds the non-superseded fact matching the (possibly
// partially ground) pattern; it returns an error when the pattern matches
// zero or several facts.
func (r *Result) LookupDerived(pattern ast.Atom) (database.FactID, error) {
	var hits []database.FactID
	for _, id := range r.Store.Match(pattern) {
		if !r.superseded[id] {
			hits = append(hits, id)
		}
	}
	switch len(hits) {
	case 0:
		return 0, fmt.Errorf("chase: no fact matches %v", pattern.Display())
	case 1:
		return hits[0], nil
	default:
		var alts []string
		for _, id := range hits {
			alts = append(alts, r.Store.Get(id).String())
		}
		sort.Strings(alts)
		return 0, fmt.Errorf("chase: pattern %v is ambiguous: %s", pattern.Display(), strings.Join(alts, "; "))
	}
}
