package chase_test

// Snapshot round-trip differential suite: a live engine serialized with
// EncodeState and rebuilt with RestoreLive must be byte-identical to the
// original — same facts and ids, same tombstones, same steps, proofs and
// aggregation state — and must stay byte-identical under every subsequent
// incremental update, across executors. The suite runs random add/retract
// histories over program shapes covering recursion, aggregation, stratified
// negation, assignments, and existential nulls, snapshotting at random cut
// points and driving the original and the restored engine in lockstep
// afterwards. It lives in the external test package so it can orchestrate
// updates through incremental.Maintainer, the path the server uses.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/database"
	"repro/internal/incremental"
	"repro/internal/parser"
	"repro/internal/term"
)

// snapshotSuitePrograms cover the engine features with serialized state:
// recursion + aggregation (groups, supersession), stratified negation
// (invalidation scans), assignments (non-interned computed values), and
// existential heads (the null counter).
var snapshotSuitePrograms = map[string]string{
	"control-agg": `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`,
	"negation-assign": `
@output("Flagged").
@label("n1") Exposure(X, E) :- Own(X, Y, S), Price(Y, P), E = S * P.
@label("n2") Flagged(X) :- Exposure(X, E), not Cleared(X), E > 0.5.
@label("n3") Cleared(X) :- Own(X, "e0", S), S > 0.8.
`,
	"existential": `
@output("Audit").
@label("x1") Reach(X, Y) :- Own(X, Y, S), S > 0.3.
@label("x2") Reach(X, Y) :- Reach(X, Z), Own(Z, Y, S), S > 0.3.
@label("x3") Audit(X, W) :- Reach(X, Y).
`,
}

// dumpEngineState renders everything observable about a fixpoint: every
// fact with id, atom, extensional flag, tombstone and superseded bit, every
// step with rule, premises, sorted substitution and contributors, and the
// store epoch. Two engines with equal dumps answer, explain, and maintain
// identically.
func dumpEngineState(t testing.TB, res *chase.Result) string {
	t.Helper()
	var b strings.Builder
	st := res.Store
	fmt.Fprintf(&b, "epoch=%d len=%d\n", st.Epoch(), st.Len())
	for id := database.FactID(0); int(id) < st.Len(); id++ {
		f := st.Get(id)
		fmt.Fprintf(&b, "fact %d %s ext=%v dead=%v super=%v\n",
			id, f.Atom.String(), f.Extensional, st.Retracted(id), res.Superseded(id))
	}
	for _, d := range res.Steps {
		fmt.Fprintf(&b, "step %d rule=%s fact=%d premises=%v sub=%s contribs=[",
			d.Step, d.Rule.Label, d.Fact, d.Premises, dumpSub(d.Sub.Substitution()))
		for i, c := range d.Contributors {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "{%v %s %s}", c.Premises, c.Value.Key(), dumpSub(c.Sub.Substitution()))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func dumpSub(s term.Substitution) string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", n, s[n].Key())
	}
	b.WriteByte('}')
	return b.String()
}

func mustResult(t *testing.T, m *incremental.Maintainer) *chase.Result {
	t.Helper()
	res, err := m.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

// randomDelta builds one update against a pool of entity names: a few adds
// (Own edges with random weights, occasionally Price facts) and, later in a
// history, retractions of previously added base atoms.
func randomDelta(rng *rand.Rand, base *[]ast.Atom) (add, retract []ast.Atom) {
	ent := func() string { return fmt.Sprintf("e%d", rng.Intn(8)) }
	for n := rng.Intn(3) + 1; n > 0; n-- {
		var a ast.Atom
		if rng.Intn(4) == 0 {
			a = ast.NewAtom("Price", term.Str(ent()), term.Float(float64(rng.Intn(30))/10))
		} else {
			a = ast.NewAtom("Own", term.Str(ent()), term.Str(ent()), term.Float(float64(rng.Intn(10))/10))
		}
		add = append(add, a)
		*base = append(*base, a)
	}
	if len(*base) > 4 && rng.Intn(2) == 0 {
		retract = append(retract, (*base)[rng.Intn(len(*base))])
	}
	return add, retract
}

// applyBoth drives the original and the restored maintainer with the same
// delta. Updates that fail must fail on both sides (e.g. retracting an atom
// that is currently derived); the maintainers would be poisoned, so the
// caller rebuilds — here we simply skip deltas that are invalid on both.
func applyBoth(t *testing.T, label string, a, b *incremental.Maintainer, add, retract []ast.Atom) {
	t.Helper()
	resA, statsA, errA := a.Update(add, retract)
	resB, statsB, errB := b.Update(add, retract)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: update divergence: original err=%v, restored err=%v", label, errA, errB)
	}
	if errA != nil {
		t.Fatalf("%s: update failed on both (history generator produced an invalid delta): %v", label, errA)
	}
	if statsA != statsB {
		t.Fatalf("%s: update stats differ: %+v vs %+v", label, statsA, statsB)
	}
	if w, g := dumpEngineState(t, resA), dumpEngineState(t, resB); w != g {
		t.Fatalf("%s: engine states differ after update\n--- original ---\n%s--- restored ---\n%s", label, w, g)
	}
}

// validDelta pre-checks a generated delta against the live instance so the
// lockstep drive never poisons the maintainers: retracting an atom that is
// currently derived (not base) is a request error.
func validDelta(m *incremental.Maintainer, retract []ast.Atom) bool {
	for _, a := range retract {
		if present, base := m.Resolve(a); present && !base {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTripDifferential is the acceptance differential: random
// programs × random add/retract histories, snapshot at a random cut,
// restore (under the same and under different executor options), and assert
// byte identity — state dump, encode idempotence, and lockstep behavior
// over the rest of the history.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	for name, src := range snapshotSuitePrograms {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opts := chase.Options{MaxRounds: 500, MaxFacts: 100_000}
				if seed%2 == 1 {
					opts.Batch = true
				}
				var pool []ast.Atom
				seedFacts := []ast.Atom{
					ast.NewAtom("Own", term.Str("e0"), term.Str("e1"), term.Float(0.6)),
					ast.NewAtom("Price", term.Str("e1"), term.Float(1.5)),
				}
				pool = append(pool, seedFacts...)
				optsSeed := opts
				optsSeed.ExtraFacts = seedFacts
				live, err := chase.RunLive(prog, optsSeed)
				if err != nil {
					t.Fatalf("initial chase: %v", err)
				}
				orig := incremental.FromLive(live)

				// Burn-in: a random prefix of updates before the snapshot cut,
				// so the serialized state includes semi-naive boundaries,
				// tombstones, supersessions and dirty-group residue.
				prefix := rng.Intn(5)
				for i := 0; i < prefix; i++ {
					add, retract := randomDelta(rng, &pool)
					if !validDelta(orig, retract) {
						retract = nil
					}
					if _, _, err := orig.Update(add, retract); err != nil {
						t.Fatalf("prefix update %d: %v", i, err)
					}
				}

				payload, err := orig.EncodeState()
				if err != nil {
					t.Fatalf("EncodeState: %v", err)
				}

				// Restore twice: once with identical options, once with a
				// different executor (results are byte-identical across
				// executors, so restored state must be too).
				altOpts := opts
				altOpts.Batch = !opts.Batch
				altOpts.Workers = 4
				variants := []struct {
					name string
					opts chase.Options
				}{{"same-exec", opts}, {"cross-exec", altOpts}}
				var sameExec *incremental.Maintainer
				for _, v := range variants {
					restoredLive, err := chase.RestoreLive(prog, v.opts, payload)
					if err != nil {
						t.Fatalf("%s: RestoreLive: %v", v.name, err)
					}
					restored := incremental.FromLive(restoredLive)
					if w, g := dumpEngineState(t, mustResult(t, orig)), dumpEngineState(t, mustResult(t, restored)); w != g {
						t.Fatalf("%s: restored state differs\n--- original ---\n%s--- restored ---\n%s", v.name, w, g)
					}
					// Encode idempotence: re-serializing the restored engine
					// reproduces the payload bit for bit.
					payload2, err := restored.EncodeState()
					if err != nil {
						t.Fatalf("%s: re-encode: %v", v.name, err)
					}
					if !bytes.Equal(payload, payload2) {
						t.Fatalf("%s: re-encoded payload differs (%d vs %d bytes)", v.name, len(payload), len(payload2))
					}
					if v.name == "same-exec" {
						sameExec = restored
					}
				}
				// Lockstep (after both variants compared against the pristine
				// original): identical updates against the original and the
				// restored engine must produce identical state at every step.
				stepRng := rand.New(rand.NewSource(seed + 1000))
				for i := 0; i < 6; i++ {
					add, retract := randomDelta(stepRng, &pool)
					if !validDelta(orig, retract) {
						retract = nil
					}
					applyBoth(t, fmt.Sprintf("update %d", i), orig, sameExec, add, retract)
				}
			})
		}
	}
}

// TestRestoreLiveRejectsTruncation: every strict prefix of a valid payload
// fails loudly instead of restoring partial state. (Bit-flip corruption is
// the envelope checksum's job — internal/snapshot — but truncation must be
// caught at this layer too, since the codec is also used WAL-side.)
func TestRestoreLiveRejectsTruncation(t *testing.T) {
	prog := parser.MustParse(snapshotSuitePrograms["control-agg"])
	live, err := chase.RunLive(prog, chase.Options{ExtraFacts: []ast.Atom{
		ast.NewAtom("Own", term.Str("a"), term.Str("b"), term.Float(0.7)),
		ast.NewAtom("Own", term.Str("b"), term.Str("c"), term.Float(0.9)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := live.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chase.RestoreLive(prog, chase.Options{}, payload); err != nil {
		t.Fatalf("full payload failed to restore: %v", err)
	}
	for _, cut := range []int{0, 1, len(payload) / 4, len(payload) / 2, len(payload) - 1} {
		if _, err := chase.RestoreLive(prog, chase.Options{}, payload[:cut]); err == nil {
			t.Errorf("truncation at %d/%d bytes restored without error", cut, len(payload))
		}
	}
	// Trailing garbage is rejected too.
	if _, err := chase.RestoreLive(prog, chase.Options{}, append(append([]byte{}, payload...), 0x00)); err == nil {
		t.Error("payload with trailing bytes restored without error")
	}
}
