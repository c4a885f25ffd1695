package chase_test

// Shared compiled programs under concurrency: one chase.Program serves
// every engine of an application at once — stand-ups and snapshot
// restores on many goroutines — and each engine must encode exactly the
// state a privately compiled engine reaches on the same history. Rule
// constants land at a different dictionary id in every session, because
// each session's facts are interned first: the negation program's n3 body
// constant "e0" is interned by its plan, so that plan stays per engine,
// while the stress-test program's s5/s6 head constants "long" and "short"
// are interned only when a fact is emitted, so their plans are shared.
// Run it under -race.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/incremental"
	"repro/internal/parser"
	"repro/internal/synth"
	"repro/internal/term"
)

// sharedSessions is the number of sessions per program; each is stood up
// and restored concurrently.
const sharedSessions = 8

// sharedNegationProgram has a rule whose plan interns a constant.
const sharedNegationProgram = `
@name("negation").
@output("Flagged").
@label("n1") Exposure(X, E) :- Own(X, Y, S), Price(Y, P), E = S * P.
@label("n2") Flagged(X) :- Exposure(X, E), not Cleared(X), E > 0.5.
@label("n3") Cleared(X) :- Own(X, "e0", S), S > 0.8.
`

// sharedCases returns per-session histories of distinct sizes, so the
// sessions' dictionaries (and the ids of rule constants in them) differ.
func sharedCases() []goldenCase {
	var out []goldenCase
	for i := 0; i < sharedSessions; i++ {
		chain := synth.ControlChain(4+i, int64(i))
		hop := func(k int) ast.Atom { return chain.Facts[k] }
		out = append(out, goldenCase{
			name:    fmt.Sprintf("control-%d", i),
			program: apps.CompanyControl().Program(),
			facts:   chain.Facts,
			updates: []goldenUpdate{
				{retract: []ast.Atom{hop(1)}},
				{add: []ast.Atom{hop(1)}},
				{retract: []ast.Atom{hop(2)}},
			},
		})
		negFacts := []ast.Atom{
			own("a", "b", 0.6), own("a", "c", 0.4), own("b", "c", 0.9), own("c", "a", 0.7),
			ast.NewAtom("Price", term.Str("b"), term.Float(2)),
			ast.NewAtom("Price", term.Str("c"), term.Int(3)),
			ast.NewAtom("Price", term.Str("a"), term.Float(0.5)),
		}
		for k := 0; k < i; k++ {
			negFacts = append(negFacts, own(fmt.Sprintf("x%d", k), "a", 0.9))
		}
		out = append(out, goldenCase{
			name:    fmt.Sprintf("negation-%d", i),
			program: parser.MustParse(sharedNegationProgram),
			facts:   negFacts,
			updates: []goldenUpdate{
				{add: []ast.Atom{own("b", "e0", 0.95)}},
				{retract: []ast.Atom{own("b", "e0", 0.95)}, add: []ast.Atom{own("c", "e0", 0.9)}},
				{add: []ast.Atom{own("x0", "e0", 0.85)}},
			},
		})
		fanIn := synth.StressFanIn(2+i%3, int64(10+i))
		cascade := synth.StressCascade(3+i%4, int64(20+i))
		out = append(out, goldenCase{
			name:    fmt.Sprintf("stress-%d", i),
			program: apps.StressTest().Program(),
			facts:   append(append([]ast.Atom{}, fanIn.Facts...), cascade.Facts...),
			updates: []goldenUpdate{
				{retract: []ast.Atom{fanIn.Facts[0]}},
				{add: []ast.Atom{ast.NewAtom("LongTermDebts", term.Str(fmt.Sprintf("S%d_D", i)), term.Str(fmt.Sprintf("F%d_T", 10+i)), term.Float(3))}},
				{add: []ast.Atom{fanIn.Facts[0]}},
			},
		})
	}
	return out
}

// replayEncoded applies updates to m and returns its encoded state.
func replayEncoded(m *incremental.Maintainer, updates []goldenUpdate) ([]byte, error) {
	for i, u := range updates {
		if _, _, err := m.Update(u.add, u.retract); err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
	}
	return m.EncodeState()
}

func TestSharedProgramConcurrentEngines(t *testing.T) {
	cases := sharedCases()
	// One compiled program per application, shared by all its sessions.
	compiled := map[string]*chase.Program{}
	for _, p := range []*ast.Program{apps.CompanyControl().Program(), apps.StressTest().Program(), parser.MustParse(sharedNegationProgram)} {
		cp, err := chase.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		compiled[p.Name] = cp
	}
	// Oracle: each history on privately compiled engines — one stood up
	// and updated throughout, encoded after its first update (the restore
	// point) and at its end, and one restored from that point and given the
	// remaining updates.
	mid := make([][]byte, len(cases))
	want := make([][]byte, len(cases))
	wantRestored := make([][]byte, len(cases))
	for i, c := range cases {
		m, err := incremental.New(c.program, chase.Options{ExtraFacts: c.facts})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if mid[i], err = replayEncoded(m, c.updates[:1]); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want[i], err = replayEncoded(m, c.updates[1:]); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		l, err := chase.RestoreLive(c.program, chase.Options{}, mid[i])
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if wantRestored[i], err = replayEncoded(incremental.FromLive(l), c.updates[1:]); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}

	var wg sync.WaitGroup
	for i, c := range cases {
		cp := compiled[c.program.Name]
		if cp == nil {
			t.Fatalf("%s: no compiled program for %q", c.name, c.program.Name)
		}
		// Executors alternate: results are byte-identical across them.
		opts := chase.Options{Batch: i%2 == 1}
		wg.Add(2)
		go func() {
			defer wg.Done()
			o := opts
			o.ExtraFacts = c.facts
			m, err := incremental.NewCompiledContext(context.Background(), cp, o)
			if err != nil {
				t.Errorf("%s: stand-up: %v", c.name, err)
				return
			}
			got, err := replayEncoded(m, c.updates)
			if err != nil {
				t.Errorf("%s: stand-up: %v", c.name, err)
				return
			}
			// The trailing wall-time fields differ between two runs.
			if len(got) != len(want[i]) || !bytes.Equal(got[:len(got)-timingBytes], want[i][:len(want[i])-timingBytes]) {
				t.Errorf("%s: shared stand-up encodes differently from a private engine", c.name)
			}
		}()
		go func() {
			defer wg.Done()
			l, err := cp.RestoreLive(opts, mid[i])
			if err != nil {
				t.Errorf("%s: restore: %v", c.name, err)
				return
			}
			got, err := replayEncoded(incremental.FromLive(l), c.updates[1:])
			if err != nil {
				t.Errorf("%s: restore: %v", c.name, err)
				return
			}
			if !bytes.Equal(got, wantRestored[i]) {
				t.Errorf("%s: shared restore encodes differently from a private engine", c.name)
			}
		}()
	}
	wg.Wait()
}
