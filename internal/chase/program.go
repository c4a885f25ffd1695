package chase

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/term"
)

// Program is a validated program compiled once for every engine that runs
// it: its strata, its existential rules, its constraints as pseudo-rules,
// and the join plans (with their frame layouts) of every rule and
// constraint whose plan holds no value id. Such a plan interns nothing into
// the engine's dictionary, so one copy is valid against every engine's
// store. A plan that interns constants (those of body and negated atoms,
// and of plain heads) still compiles per engine, against that engine's
// dictionary, at the moment it always has — dictionary order, fact ids and
// snapshot bytes do not depend on which plans are shared.
//
// A Program is immutable after Compile and safe for concurrent use: a
// serving tier compiles each application once and stands up or restores
// every session's engine from it. The source program must not be mutated
// afterwards (the same holds for any program handed to the chase).
type Program struct {
	prog       *ast.Program
	strata     map[string]int
	maxStratum int
	// existRules are rules with existentially quantified head variables.
	// Their firing is pre-empted by existing facts, so a retraction can
	// un-pre-empt them; any retraction resets them to a full re-join.
	existRules []*ast.Rule
	hasNeg     bool
	// constraints are the negative constraints as bodies of pseudo-rules
	// (parallel to prog.Constraints), so their plans are cached like rules'.
	constraints []*ast.Rule
	// plans holds the shared plans; layouts interns their frame layouts, and
	// every engine of the program resolves a layout here before its own.
	plans   map[*ast.Rule]*plan
	layouts map[string]*frameVars
}

// Compile validates and stratifies the program and compiles its shareable
// join plans.
func Compile(p *ast.Program) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("chase: invalid program: %w", err)
	}
	// Rules are evaluated stratum by stratum so that negated predicates are
	// fully saturated before any rule reads them.
	strata, err := depgraph.New(p).Stratify()
	if err != nil {
		return nil, fmt.Errorf("chase: %w", err)
	}
	cp := &Program{prog: p, strata: strata, existRules: existentialRules(p), plans: map[*ast.Rule]*plan{}}
	for _, s := range strata {
		cp.maxStratum = max(cp.maxStratum, s)
	}
	for _, r := range p.Rules {
		cp.hasNeg = cp.hasNeg || len(r.Negated) > 0
	}
	for _, c := range p.Constraints {
		cp.constraints = append(cp.constraints, &ast.Rule{
			Label:      c.Label,
			Head:       ast.NewAtom("⊥"),
			Body:       c.Body,
			Negated:    c.Negated,
			Conditions: c.Conditions,
		})
	}
	// A plan compiled against an empty scratch dictionary that is still
	// empty afterwards holds no value ids. The scratch engine interns the
	// shared plans' frame layouts.
	scratch := &engine{}
	in := term.NewInterner()
	for _, r := range append(append([]*ast.Rule{}, p.Rules...), cp.constraints...) {
		pl, err := compilePlan(r, in)
		if err != nil {
			return nil, fmt.Errorf("chase: rule %s: %w", r.Label, err)
		}
		if in.Len() > 0 {
			in = term.NewInterner()
			continue
		}
		scratch.compileFrames(pl)
		cp.plans[r] = pl
	}
	cp.layouts = scratch.layouts
	return cp, nil
}

// newLive builds a Live over an empty engine of the program, with the
// executor options resolved.
func (cp *Program) newLive(opts Options) (*Live, error) {
	if opts.Batch && opts.Legacy {
		return nil, fmt.Errorf("options Batch and Legacy are mutually exclusive")
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
		cp:         cp,
		prog:       cp.prog,
		store:      database.NewStore(),
		superseded: map[database.FactID]bool{},
		aggState:   map[string]aggEmission{},
		lastSeen:   map[*ast.Rule]int{},
		aggGroups:  map[*ast.Rule]map[string]*aggGroup{},
		aggOrder:   map[*ast.Rule][]string{},
		aggSeen:    map[*ast.Rule]map[string]struct{}{},
		lastSuper:  map[*ast.Rule]int{},
		maxFacts:   maxFacts,
		naive:      opts.Naive,
		legacy:     opts.Legacy,
		batch:      opts.Batch,
		workers:    workers,
	}
	return &Live{e: e, maxRounds: maxRounds}, nil
}

// compilePlans compiles the plans the program does not share against the
// engine's dictionary, in program order (the legacy engine interprets rules
// directly and needs none).
func (e *engine) compilePlans() error {
	if e.legacy {
		return nil
	}
	for _, r := range e.prog.Rules {
		if _, err := e.planFor(r); err != nil {
			return fmt.Errorf("rule %s: %w", r.Label, err)
		}
	}
	return nil
}

// RunContext is the package-level RunContext over the compiled program.
func (cp *Program) RunContext(ctx context.Context, opts Options) (*Result, error) {
	l, err := cp.RunLiveContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return l.Snapshot(), nil
}
