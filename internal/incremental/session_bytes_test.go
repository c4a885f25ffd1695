package incremental_test

import (
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/incremental"
	"repro/internal/synth"
)

// liveHeapBytes forces a collection and returns the live heap it marked.
func liveHeapBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// sessionStateBytes builds n maintainers over the same program and facts —
// the engine state a serving session keeps resident — and returns the live
// heap they add per session, first after the initial chase and then after
// toggling each of the given base facts (retract it, then add it back).
// Every toggle grows the grow-only store and step list: the re-added fact
// and everything derived from it take new ids.
func sessionStateBytes(b *testing.B, n int, p *ast.Program, facts, toggles []ast.Atom) (initial, toggled float64) {
	b.Helper()
	base := liveHeapBytes()
	ms := make([]*incremental.Maintainer, n)
	for i := range ms {
		m, err := incremental.New(p, chase.Options{ExtraFacts: facts})
		if err != nil {
			b.Fatal(err)
		}
		ms[i] = m
	}
	initial = (liveHeapBytes() - base) / float64(n)
	for _, m := range ms {
		for _, a := range toggles {
			if _, _, err := m.Update(nil, []ast.Atom{a}); err != nil {
				b.Fatal(err)
			}
			if _, _, err := m.Update([]ast.Atom{a}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	toggled = (liveHeapBytes() - base) / float64(n)
	runtime.KeepAlive(ms)
	return initial, toggled
}

// BenchmarkSessionStateBytes reports the live heap one resident session's
// engine state costs (B/session), and what it has grown to after two hop
// toggles (B/session-toggled), for company-control chains of 10, 25 and 40
// hops and for the stress-test application's bundled scenario.
func BenchmarkSessionStateBytes(b *testing.B) {
	const sessions = 32
	control := apps.CompanyControl().Program()
	type scenario struct {
		name    string
		program *ast.Program
		facts   []ast.Atom
		toggles []ast.Atom
	}
	var cases []scenario
	for _, hops := range []int{10, 25, 40} {
		sc := synth.ControlChain(hops, 1)
		cases = append(cases, scenario{
			name:    "ControlChain" + strconv.Itoa(hops),
			program: control,
			facts:   sc.Facts,
			toggles: []ast.Atom{sc.Facts[hops/3], sc.Facts[2*hops/3]},
		})
	}
	stress := apps.StressTest()
	var debts []ast.Atom
	for _, a := range stress.Scenario() {
		if a.Predicate == "LongTermDebts" || a.Predicate == "ShortTermDebts" {
			debts = append(debts, a)
		}
	}
	cases = append(cases, scenario{
		name:    "StressTest",
		program: stress.Program(),
		facts:   stress.Scenario(),
		toggles: debts[:2],
	})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var initial, toggled float64
			for i := 0; i < b.N; i++ {
				initial, toggled = sessionStateBytes(b, sessions, c.program, c.facts, c.toggles)
			}
			b.ReportMetric(initial, "B/session")
			b.ReportMetric(toggled, "B/session-toggled")
		})
	}
}
