package chase

import (
	"fmt"
	"testing"

	"repro/internal/database"
	"repro/internal/parser"
)

// diffResults asserts that two chase results are byte-for-byte identical:
// same facts with the same ids, same chase steps in the same order with the
// same rules and premise lists, same superseded set, same rendered chase
// graph, same round count.
func diffResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Errorf("%s: rounds differ: %d vs %d", label, want.Rounds, got.Rounds)
	}
	if w, g := want.Store.Dump(), got.Store.Dump(); w != g {
		t.Fatalf("%s: fact stores differ\nwant:\n%s\ngot:\n%s", label, w, g)
	}
	if w, g := want.Store.Len(), got.Store.Len(); w != g {
		t.Fatalf("%s: store sizes differ: %d vs %d", label, w, g)
	}
	for id := 0; id < want.Store.Len(); id++ {
		w, g := want.Store.Get(database.FactID(id)), got.Store.Get(database.FactID(id))
		if w.Atom.Key() != g.Atom.Key() || w.Extensional != g.Extensional {
			t.Fatalf("%s: fact #%d differs: %v vs %v", label, id, w, g)
		}
		if want.Superseded(w.ID) != got.Superseded(g.ID) {
			t.Errorf("%s: superseded(#%d) differs", label, id)
		}
	}
	if len(want.Steps) != len(got.Steps) {
		t.Fatalf("%s: step counts differ: %d vs %d", label, len(want.Steps), len(got.Steps))
	}
	for i := range want.Steps {
		w, g := want.Steps[i], got.Steps[i]
		if w.Fact != g.Fact || w.Rule.Label != g.Rule.Label {
			t.Fatalf("%s: step %d differs: %v vs %v", label, i, w, g)
		}
		if fmt.Sprint(w.Premises) != fmt.Sprint(g.Premises) {
			t.Fatalf("%s: step %d premise lists differ: %v vs %v", label, i, w.Premises, g.Premises)
		}
		wsub, gsub := w.Sub.Substitution(), g.Sub.Substitution()
		if len(wsub) != len(gsub) {
			t.Fatalf("%s: step %d substitution sizes differ: %v vs %v", label, i, wsub, gsub)
		}
		for v, wt := range wsub {
			gt, ok := gsub[v]
			if !ok || !wt.Equal(gt) || wt.Display() != gt.Display() {
				t.Fatalf("%s: step %d substitution differs at %s: %v vs %v", label, i, v, wt, gt)
			}
		}
		if len(w.Contributors) != len(g.Contributors) {
			t.Fatalf("%s: step %d contributor counts differ: %d vs %d", label, i, len(w.Contributors), len(g.Contributors))
		}
		for j := range w.Contributors {
			wc, gc := w.Contributors[j], g.Contributors[j]
			if fmt.Sprint(wc.Premises) != fmt.Sprint(gc.Premises) || !wc.Value.Equal(gc.Value) {
				t.Fatalf("%s: step %d contributor %d differs", label, i, j)
			}
		}
	}
	if w, g := want.Graph(), got.Graph(); w != g {
		t.Errorf("%s: chase graphs differ\nwant:\n%s\ngot:\n%s", label, w, g)
	}
}

// TestParallelEquivalenceFixedPrograms: every bundled program shape yields
// identical results at several worker counts, in both semi-naive and naive
// mode.
func TestParallelEquivalenceFixedPrograms(t *testing.T) {
	sources := map[string]string{
		"stress-simple": stressSimpleSrc,
		"irish-bank":    irishBankSrc,
		"two-channel":   twoChannelSrc,
		"negation":      eligibleSrc,
	}
	for name, src := range sources {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, naive := range []bool{false, true} {
			seq, err := Run(prog, Options{Naive: naive})
			if err != nil {
				t.Fatalf("%s sequential: %v", name, err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := Run(prog, Options{Naive: naive, Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				diffResults(t, fmt.Sprintf("%s naive=%v workers=%d", name, naive, workers), seq, par)
			}
		}
	}
}

// TestParallelDifferentialRandomOwnership is the acceptance differential:
// over at least 20 random layered ownership graphs, Workers: 4 produces the
// identical canonical fact set, chase-graph node/edge set, and provenance
// premise lists as Workers: 0.
func TestParallelDifferentialRandomOwnership(t *testing.T) {
	controlRules := `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`
	prog, err := parser.Parse(controlRules)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 24; seed++ {
		facts := randomOwnership(seed)
		seq, err := Run(prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		par, err := Run(prog, Options{ExtraFacts: facts, Workers: 4})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		diffResults(t, fmt.Sprintf("seed %d", seed), seq, par)
	}
}

// TestParallelGOMAXPROCSWorkers: Workers < 0 selects GOMAXPROCS and stays
// equivalent.
func TestParallelGOMAXPROCSWorkers(t *testing.T) {
	prog := parser.MustParse(twoChannelSrc)
	seq := MustRun(prog, Options{})
	par := MustRun(prog, Options{Workers: -1})
	diffResults(t, "workers=-1", seq, par)
}

// TestProvenancePremiseOrderStable pins down two provenance-ordering
// properties: premise lists are identical across repeated runs (and across
// worker counts), and they stay in body-atom order — SortedFactIDs must
// never be applied on the emission path (it is reserved for per-proof
// reporting; see its doc comment).
func TestProvenancePremiseOrderStable(t *testing.T) {
	prog := parser.MustParse(twoChannelSrc)
	runs := []*Result{
		MustRun(prog, Options{}),
		MustRun(prog, Options{}),
		MustRun(prog, Options{Workers: 4}),
	}
	for i, r := range runs[1:] {
		if len(r.Steps) != len(runs[0].Steps) {
			t.Fatalf("run %d: step count differs", i+1)
		}
		for s := range r.Steps {
			if fmt.Sprint(r.Steps[s].Premises) != fmt.Sprint(runs[0].Steps[s].Premises) {
				t.Errorf("run %d step %d: premise order differs: %v vs %v",
					i+1, s, r.Steps[s].Premises, runs[0].Steps[s].Premises)
			}
		}
	}
	// Body-atom order, not sorted order: a plain-rule step's premises must
	// map positionally onto the rule body's predicates.
	for _, d := range runs[0].Steps {
		if d.IsAggregation() {
			continue
		}
		if len(d.Premises) != len(d.Rule.Body) {
			t.Fatalf("step %d: %d premises for %d body atoms", d.Step, len(d.Premises), len(d.Rule.Body))
		}
		for i, id := range d.Premises {
			got := runs[0].Store.Get(id).Atom.Predicate
			want := d.Rule.Body[i].Predicate
			if got != want {
				t.Errorf("step %d premise %d: predicate %s does not match body atom %s (premises re-ordered?)",
					d.Step, i, got, want)
			}
		}
	}
}
