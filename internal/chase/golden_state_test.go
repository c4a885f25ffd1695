package chase_test

// Golden engine-state payloads: testdata/state_*.bin are EncodeState outputs
// of fixed histories (company-control chains with toggled hops, a
// multi-contributor stress-test aggregation, stratified negation with
// assignments, and an existential head). The wire format is frozen: the
// current engine must restore every golden payload and re-encode it byte for
// byte, and must reproduce it from scratch by running the same history.
//
// Regenerate (only for a deliberate format change, with a stateVersion
// bump):
//
//	go test ./internal/chase -run TestGoldenState -update-golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/incremental"
	"repro/internal/parser"
	"repro/internal/synth"
	"repro/internal/term"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/state_*.bin from the current engine")

// goldenUpdate is one incremental update of a golden history.
type goldenUpdate struct{ add, retract []ast.Atom }

type goldenCase struct {
	name    string
	program *ast.Program
	facts   []ast.Atom
	updates []goldenUpdate
}

func own(x, y string, s float64) ast.Atom {
	return ast.NewAtom("Own", term.Str(x), term.Str(y), term.Float(s))
}

func goldenCases() []goldenCase {
	chain := synth.ControlChain(12, 7)
	hop := func(i int) ast.Atom { return chain.Facts[i] }
	toggled := goldenCase{
		name:    "control_chain",
		program: apps.CompanyControl().Program(),
		facts:   chain.Facts,
		updates: []goldenUpdate{
			{retract: []ast.Atom{hop(4)}},
			{add: []ast.Atom{hop(4)}},
			{retract: []ast.Atom{hop(9)}},
			{add: []ast.Atom{hop(9)}},
			{retract: []ast.Atom{hop(2)}},
		},
	}

	fanIn := synth.StressFanIn(5, 3)
	cascade := synth.StressCascade(6, 4)
	stress := goldenCase{
		name:    "stress_multi_contributor",
		program: apps.StressTest().Program(),
		facts:   append(append([]ast.Atom{}, fanIn.Facts...), cascade.Facts...),
		updates: []goldenUpdate{
			// Drop one fan-in exposure (a contributor leaves its group),
			// then add a fresh one on the other channel.
			{retract: []ast.Atom{fanIn.Facts[4]}},
			{add: []ast.Atom{ast.NewAtom("ShortTermDebts", term.Str("F3_D9"), term.Str("F3_T"), term.Float(4))}},
			{add: []ast.Atom{
				ast.NewAtom("Shock", term.Str("F3_D9"), term.Float(8)),
				ast.NewAtom("HasCapital", term.Str("F3_D9"), term.Float(2)),
			}},
		},
	}

	negation := goldenCase{
		name: "negation_assign",
		program: parser.MustParse(`
@output("Flagged").
@label("n1") Exposure(X, E) :- Own(X, Y, S), Price(Y, P), E = S * P.
@label("n2") Flagged(X) :- Exposure(X, E), not Cleared(X), E > 0.5.
@label("n3") Cleared(X) :- Own(X, "e0", S), S > 0.8.
`),
		facts: []ast.Atom{
			own("a", "b", 0.6), own("a", "c", 0.4), own("b", "c", 0.9), own("c", "a", 0.7),
			ast.NewAtom("Price", term.Str("b"), term.Float(2)),
			ast.NewAtom("Price", term.Str("c"), term.Int(3)),
			ast.NewAtom("Price", term.Str("a"), term.Float(0.5)),
		},
		updates: []goldenUpdate{
			{add: []ast.Atom{own("b", "e0", 0.95)}},
			{retract: []ast.Atom{own("b", "e0", 0.95)}, add: []ast.Atom{own("c", "e0", 0.9)}},
		},
	}

	existential := goldenCase{
		name: "existential",
		program: parser.MustParse(`
@output("Audit").
@label("x1") Reach(X, Y) :- Own(X, Y, S), S > 0.3.
@label("x2") Reach(X, Y) :- Reach(X, Z), Own(Z, Y, S), S > 0.3.
@label("x3") Audit(X, W) :- Reach(X, Y).
`),
		facts: []ast.Atom{own("a", "b", 0.5), own("b", "c", 0.6), own("c", "d", 0.2), own("d", "a", 0.9)},
		updates: []goldenUpdate{
			{add: []ast.Atom{own("c", "d", 0.8)}},
			{retract: []ast.Atom{own("a", "b", 0.5)}},
		},
	}
	return []goldenCase{toggled, stress, negation, existential}
}

// run replays a golden history and returns the final encoded state.
func (c goldenCase) run(t *testing.T, opts chase.Options) []byte {
	t.Helper()
	opts.ExtraFacts = c.facts
	m, err := incremental.New(c.program, opts)
	if err != nil {
		t.Fatalf("%s: initial chase: %v", c.name, err)
	}
	for i, u := range c.updates {
		if _, _, err := m.Update(u.add, u.retract); err != nil {
			t.Fatalf("%s: update %d: %v", c.name, i, err)
		}
	}
	data, err := m.EncodeState()
	if err != nil {
		t.Fatalf("%s: EncodeState: %v", c.name, err)
	}
	return data
}

// timingBytes is the size of the payload's trailing load/eval wall-time
// fields, the only bytes that differ between two runs of one history.
const timingBytes = 16

func TestGoldenStateCodec(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "state_"+c.name+".bin")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.run(t, chase.Options{}), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden payload: %v", err)
			}
			for _, opts := range []chase.Options{{}, {Legacy: true}, {Batch: true}} {
				l, err := chase.RestoreLive(c.program, opts, golden)
				if err != nil {
					t.Fatalf("RestoreLive(%+v): %v", opts, err)
				}
				again, err := l.EncodeState()
				if err != nil {
					t.Fatalf("EncodeState after restore: %v", err)
				}
				if !bytes.Equal(again, golden) {
					t.Fatalf("restore+encode (%+v) differs from the golden payload (%d vs %d bytes)", opts, len(again), len(golden))
				}
			}
			// The value dictionary is executor-specific (compiled plans intern
			// rule constants up front), so the replay uses the executor the
			// payload was generated with.
			fresh := c.run(t, chase.Options{})
			if len(fresh) != len(golden) || !bytes.Equal(fresh[:len(fresh)-timingBytes], golden[:len(golden)-timingBytes]) {
				t.Fatalf("replaying the history encodes differently from the golden payload (%d vs %d bytes)", len(fresh), len(golden))
			}
		})
	}
}
