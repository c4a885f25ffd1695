package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/synth"
)

// opClass is an analyst action. Open happens only while the population is
// created; the steady state mixes the other three.
type opClass int

const (
	opRead opClass = iota
	opExplain
	opWrite
	opOpen
	numClasses
)

var classNames = [numClasses]string{"read", "explain", "write", "open"}

func (c opClass) String() string { return classNames[c] }

// workload is one named traffic shape against one server configuration.
type workload struct {
	name string
	// population is the number of sessions opened before the steady state.
	population int
	// resident is each worker's session-table capacity (server MaxSessions).
	resident int
	// workers is 1 for a bare worker, 2 for the router-2 tier.
	workers int
	// mix is the steady-state read/explain/write split in percent.
	readPct, explainPct, writePct int
	// chain selects per-session synth.ControlChain EKGs of 10-40 hops with
	// hop-toggling writes; otherwise every session is the 1-fact
	// company-control EKG with append-only writes.
	chain bool
	// warmup is the number of untimed steady-state operations run after the
	// population, so restores, lazy maintainer stand-ups and caches settle.
	warmup int
}

// workloads are the benchmark's named workloads at full scale.
var workloads = map[string]workload{
	"churn": {name: "churn", population: 2048, resident: 128, workers: 1,
		readPct: 70, explainPct: 20, writePct: 10, warmup: 1024},
	"maintain": {name: "maintain", population: 256, resident: 1024, workers: 1,
		readPct: 30, explainPct: 30, writePct: 40, chain: true, warmup: 2048},
	"routed": {name: "routed", population: 2048, resident: 64, workers: 2,
		readPct: 70, explainPct: 20, writePct: 10, warmup: 1024},
}

// residentTotal is the tier's session capacity across its workers.
func (w workload) residentTotal() int { return w.resident * w.workers }

// clients is the closed-loop analyst count: one per core of the 2-core
// reference machine, so latency measures an operation's cost rather than
// a queue.
const clients = 2

// appName is the application every session runs.
const appName = apps.NameCompanyControl

// churnOpen is the 1-fact opening EKG of every churn/routed session, and
// churnQuery the explanation it supports.
const (
	churnOpen  = `Own("X", "Y", 0.6)`
	churnQuery = `Control("X", "Y")`
)

// sessionSpec is one session's opening EKG.
type sessionSpec struct {
	id    string
	facts []ast.Atom
	// hops is the ownership chain (maintain only): hops[i] is
	// Own(N_i, N_i+1, share).
	hops []ast.Atom
}

// sessionSpecs builds the workload's session population from the seed.
func sessionSpecs(wl workload, seed int64) []sessionSpec {
	specs := make([]sessionSpec, wl.population)
	prefix := wl.name[:1]
	if !wl.chain {
		open := parser.MustParse(churnOpen + ".").Facts
		for i := range specs {
			specs[i] = sessionSpec{id: fmt.Sprintf("%s-%d", prefix, i), facts: open}
		}
		return specs
	}
	// Chain lengths are spread evenly over 10-40 hops and dealt to sessions
	// in a seeded order, so every seed gives the same multiset of lengths:
	// a session's state grows with the square of its length, and drawing
	// each length independently moved the live heap 15% between seeds.
	perm := rand.New(rand.NewSource(seed)).Perm(len(specs))
	for i := range specs {
		steps := 10 + perm[i]*31/len(specs)
		// Distinct chain seeds give every session its own constants, so
		// opens miss the pipeline result cache and explanation keys rarely
		// repeat.
		sc := synth.ControlChain(steps, seed*100_000+int64(i)+1)
		specs[i] = sessionSpec{id: fmt.Sprintf("%s-%d", prefix, i), facts: sc.Facts, hops: sc.Facts}
	}
	return specs
}

// factsText renders atoms in the concrete fact syntax the server parses.
func factsText(atoms []ast.Atom) string {
	var sb strings.Builder
	for i, a := range atoms {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.String())
		sb.WriteByte('.')
	}
	return sb.String()
}

// draw is one generated analyst action before it is resolved against the
// session's state: which session, which class, and a random number that
// picks the write's hop or the explain target.
type draw struct {
	sess  int
	class opClass
	pick  uint32
}

// drawer is one client's deterministic action stream.
type drawer struct {
	rng *rand.Rand
	wl  workload
}

func newDrawer(wl workload, seed int64, client int) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)), wl: wl}
}

func (d *drawer) next() draw {
	s := d.rng.Intn(d.wl.population)
	roll := d.rng.Intn(100)
	pick := d.rng.Uint32()
	c := opWrite
	switch {
	case roll < d.wl.readPct:
		c = opRead
	case roll < d.wl.readPct+d.wl.explainPct:
		c = opExplain
	}
	return draw{sess: s, class: c, pick: pick}
}

// sessState is the benchmark's record of one session: its committed base
// facts (what the sequential oracle re-runs), the epochs the server has
// acknowledged, and whether it is still usable. Both clients pick sessions
// from the whole population, so a session can see concurrent reads,
// explains and writes; writes to one session are serialized by writeMu so
// the record follows the server's commit order exactly.
type sessState struct {
	spec *sessionSpec
	// writeMu is held across one write request: the next write's choice
	// depends on the previous one's outcome.
	writeMu sync.Mutex

	mu sync.Mutex
	// base is the committed extensional fact list.
	base []ast.Atom
	// retracted is the chain hop currently retracted (-1: none); pending is
	// the hop an in-flight write is toggling (-1: none).
	retracted, pending int
	// explaining holds the target k of every in-flight explain of
	// Control(N0, Nk); a retraction may not cut a chain prefix one of them
	// relies on. explained is signaled when one finishes.
	explaining []int
	explained  *sync.Cond
	// acked is the highest epoch of any completed response.
	acked uint64
	// writes counts committed writes.
	writes int
	// lost is set when a request missed its deadline or a write's outcome is
	// unknown: later operations drawn for the session fail without being
	// sent, and the oracle skips it.
	lost bool
}

func newSessStates(specs []sessionSpec) []*sessState {
	out := make([]*sessState, len(specs))
	for i := range specs {
		st := &sessState{spec: &specs[i], base: append([]ast.Atom(nil), specs[i].facts...), retracted: -1, pending: -1}
		st.explained = sync.NewCond(&st.mu)
		out[i] = st
	}
	return out
}

// chainWrite resolves a maintain write: re-add the hop retracted before, or
// retract a random hop other than the first (so N0 always controls N1 and
// an explain target exists) that leaves every in-flight explain's target
// derivable; while an explain of the whole chain is in flight a retraction
// waits for it. Explains and writes of one session still overlap. Caller
// holds writeMu.
func (st *sessState) chainWrite(pick uint32) (add, retract []ast.Atom, hop int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	hops := st.spec.hops
	if st.retracted >= 0 {
		hop = st.retracted
		add = []ast.Atom{hops[hop]}
	} else {
		// Retracting hop h cuts Control(N0, Nk) for every k > h.
		lo := 1
		for {
			lo = 1
			for _, k := range st.explaining {
				lo = max(lo, k)
			}
			if lo < len(hops) {
				break
			}
			st.explained.Wait()
		}
		hop = lo + int(pick%uint32(len(hops)-lo))
		retract = []ast.Atom{hops[hop]}
	}
	st.pending = hop
	return add, retract, hop
}

// commitWrite records a write the server acknowledged.
func (st *sessState) commitWrite(add, retract []ast.Atom, toggled int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range retract {
		for i, b := range st.base {
			if b.Equal(r) {
				st.base = append(st.base[:i:i], st.base[i+1:]...)
				break
			}
		}
	}
	st.base = append(st.base, add...)
	if toggled >= 0 {
		if st.retracted == toggled {
			st.retracted = -1
		} else {
			st.retracted = toggled
		}
	}
	st.pending = -1
	st.writes++
}

// abandonWrite clears an in-flight write that was refused (not committed).
func (st *sessState) abandonWrite() {
	st.mu.Lock()
	st.pending = -1
	st.mu.Unlock()
}

// chainTarget resolves a maintain explain: Control(N0, Nk) for a random k
// whose whole chain prefix is present both before and after any in-flight
// write. The target is registered until explainDone, so no later
// retraction cuts it while the request is served.
func (st *sessState) chainTarget(pick uint32) (query string, k int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	g := len(st.spec.hops)
	if st.retracted >= 0 {
		g = min(g, st.retracted)
	}
	if st.pending >= 0 {
		g = min(g, st.pending)
	}
	k = 1 + int(pick%uint32(g))
	st.explaining = append(st.explaining, k)
	return chainQuery(st.spec.hops, k), k
}

// explainDone unregisters an explain target chainTarget handed out.
func (st *sessState) explainDone(k int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, x := range st.explaining {
		if x == k {
			st.explaining = append(st.explaining[:i], st.explaining[i+1:]...)
			break
		}
	}
	st.explained.Broadcast()
}

// chainQuery is the explanation query Control(N0, Nk) over a chain.
func chainQuery(hops []ast.Atom, k int) string {
	return fmt.Sprintf("Control(%s, %s)", hops[0].Terms[0].Quote(), hops[k-1].Terms[1].Quote())
}

// queryFact is the fact an explanation query names, as /explain displays
// it.
func queryFact(query string) string {
	prog, err := parser.Parse(query + ".")
	if err != nil || len(prog.Facts) != 1 {
		return ""
	}
	return prog.Facts[0].Display()
}

// derivablePrefix is the longest k with Control(N0, Nk) derivable from the
// recorded base (maintain only).
func (st *sessState) derivablePrefix() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retracted >= 0 {
		return st.retracted
	}
	return len(st.spec.hops)
}

// snapshotBase copies the recorded base facts.
func (st *sessState) snapshotBase() ([]ast.Atom, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]ast.Atom(nil), st.base...), st.lost
}

// churnAdd is a churn write: a new majority holding of Y, named by the client
// and its write counter so it is new to the session.
func churnAdd(client, n int) []ast.Atom {
	return parser.MustParse(fmt.Sprintf(`Own("Y", "w%d_%d", 0.8).`, client, n)).Facts
}
