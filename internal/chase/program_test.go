package chase

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// controlSrc is the company-control program (internal/apps cannot be
// imported from inside the package).
const controlSrc = `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`

// negationSrc has one rule whose plan interns a constant (n3's "e0") and
// one whose head constant is interned only at emission (n4's "hi").
const negationSrc = `
@output("Flagged").
@label("n1") Exposure(X, E) :- Own(X, Y, S), Price(Y, P), E = S * P.
@label("n2") Flagged(X) :- Exposure(X, E), not Cleared(X), E > 0.5.
@label("n3") Cleared(X) :- Own(X, "e0", S), S > 0.8.
@label("n4") Band(X, "hi", T) :- Own(X, Y, S), T = sum(S).
`

func ownAtom(x, y string, s float64) ast.Atom {
	return ast.NewAtom("Own", term.Str(x), term.Str(y), term.Float(s))
}

// TestCompileSharesPlansWithoutValueIDs: Compile shares the plan of every
// rule whose compilation interns nothing and leaves the rest to each
// engine, which compiles them against its own dictionary — so a constant
// lands at an id that depends on the engine's facts.
func TestCompileSharesPlansWithoutValueIDs(t *testing.T) {
	cp, err := Compile(parser.MustParse(negationSrc))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cp.prog.Rules {
		if _, shared := cp.plans[r]; shared != (r.Label != "n3") {
			t.Errorf("rule %s: shared = %v", r.Label, shared)
		}
	}
	n3 := cp.prog.RuleByLabel("n3")
	e0 := func(facts ...ast.Atom) term.ValueID {
		l, err := cp.RunLiveContext(context.Background(), Options{ExtraFacts: facts})
		if err != nil {
			t.Fatal(err)
		}
		p := l.e.plans[n3]
		if p == nil || len(l.e.plans) != 1 {
			t.Fatalf("engine compiled %d plans, want n3's alone", len(l.e.plans))
		}
		return p.orders[0].atoms[0].Ops[1].Val
	}
	if a, b := e0(ownAtom("a", "b", 0.9)), e0(ownAtom("a", "b", 0.9), ownAtom("c", "d", 0.9)); a == b {
		t.Errorf(`"e0" has id %d in both engines; their dictionaries differ`, a)
	}
}

// TestRestoreCompilesNoPlan: restoring a one-fact company-control session
// from the shared program compiles no plan, and its step frames resolve to
// the program's layouts.
func TestRestoreCompilesNoPlan(t *testing.T) {
	prog := parser.MustParse(controlSrc)
	l, err := RunLive(prog, Options{ExtraFacts: []ast.Atom{ownAtom("X", "Y", 0.6)}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := l.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.plans) != len(prog.Rules) {
		t.Fatalf("company-control shares %d of %d plans", len(cp.plans), len(prog.Rules))
	}
	for _, opts := range []Options{{}, {Batch: true}} {
		r, err := cp.RestoreLive(opts, payload)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(r.e.plans); n != 0 {
			t.Errorf("%+v: restore compiled %d plans, want 0", opts, n)
		}
		if len(r.e.layouts) != 0 {
			t.Errorf("%+v: restore interned %d layouts of its own", opts, len(r.e.layouts))
		}
		if len(r.Steps()) == 0 {
			t.Fatal("restored session has no steps")
		}
		for _, d := range r.Steps() {
			if d.Sub.vars != cp.plans[d.Rule].bindVars {
				t.Errorf("step %d: frame layout %v is not the shared one", d.Step, d.Sub.vars.names)
			}
		}
		if got, _ := r.EncodeState(); string(got) != string(payload) {
			t.Errorf("%+v: restored state re-encodes differently", opts)
		}
	}
}

// TestCheckConstraintsCachesPlans: repeated constraint checks reuse one
// plan per constraint instead of compiling a new one per check.
func TestCheckConstraintsCachesPlans(t *testing.T) {
	prog := parser.MustParse(controlSrc + `
@label("k1") :- Control(X, "bad").
@label("k2") :- Control(X, X), Own(X, X, S).
`)
	l, err := RunLive(prog, Options{ExtraFacts: []ast.Atom{ownAtom("X", "Y", 0.6)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.CheckConstraints(); err != nil {
			t.Fatal(err)
		}
	}
	// k2 interns nothing and is shared; k1's constant makes it the
	// engine's one own plan.
	if n := len(l.e.plans); n != 1 {
		t.Errorf("engine holds %d own plans after repeated checks, want 1", n)
	}
	if _, shared := l.e.cp.plans[l.e.cp.constraints[1]]; !shared {
		t.Error("constant-free constraint plan not shared")
	}
}
