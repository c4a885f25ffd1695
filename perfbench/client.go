package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
)

// requestDeadline is each request's client deadline. Healthy operations
// take milliseconds; a request past this is treated as lost, and so is its
// session.
const requestDeadline = 2 * time.Second

// outcome classes of a failed request, for the per-class report.
const (
	failRefused = "refused" // 503 admission or 429 write queue
	failStatus  = "status"  // any other non-2xx answer
	failTimeout = "timeout" // client deadline passed
	failNet     = "transport"
	failLost    = "lost-session" // not sent: the session was lost earlier
	failCheck   = "check"        // answered, but the body failed its check
)

// classLog is one class's outcomes from one client: latency samples in
// milliseconds (+Inf for failures) and failure counts by cause.
type classLog struct {
	lat   []float64
	fails map[string]int
}

func (c *classLog) ok(d time.Duration) { c.lat = append(c.lat, float64(d)/1e6) }

func (c *classLog) fail(cause string) {
	c.lat = append(c.lat, math.Inf(1))
	if c.fails == nil {
		c.fails = map[string]int{}
	}
	c.fails[cause]++
}

// runLog gathers every client's outcomes for one phase.
type runLog struct {
	classes [numClasses]classLog
	// mismatches describes outputs that failed a check.
	mismatches []string
	// samples describes the first few failed requests.
	samples []string
}

// maxSamples bounds the failed-request descriptions a log keeps.
const maxSamples = 5

// sample keeps a description of a failed request.
func (l *runLog) sample(class opClass, id string, rep reply) {
	if len(l.samples) < maxSamples {
		l.samples = append(l.samples, fmt.Sprintf("%s %s: status %d, error %v, body %.200q", class, id, rep.status, rep.err, rep.body))
	}
}

func (l *runLog) merge(o *runLog) {
	for c := range l.classes {
		l.classes[c].lat = append(l.classes[c].lat, o.classes[c].lat...)
		for k, v := range o.classes[c].fails {
			if l.classes[c].fails == nil {
				l.classes[c].fails = map[string]int{}
			}
			l.classes[c].fails[k] += v
		}
	}
	l.mismatches = append(l.mismatches, o.mismatches...)
	for _, x := range o.samples {
		if len(l.samples) < maxSamples {
			l.samples = append(l.samples, x)
		}
	}
}

func (l *runLog) attempted() (n int) {
	for c := opRead; c <= opWrite; c++ {
		n += len(l.classes[c].lat)
	}
	return n
}

func (l *runLog) failed() (n int) {
	for c := opRead; c <= opWrite; c++ {
		for _, v := range l.classes[c].fails {
			n += v
		}
	}
	return n
}

// analysts is the analyst population of one stood-up tier.
type analysts struct {
	wl       workload
	base     string
	sessions []*sessState
	http     *http.Client
	tr       *tracer
	drawers  [clients]*drawer
	// writeSeq numbers each client's churn writes, so added facts are new.
	writeSeq [clients]int
	// opSeq numbers operations per client for span ids.
	opSeq [clients]uint64
}

func newAnalysts(wl workload, base string, specs []sessionSpec, seed int64, tr *tracer) *analysts {
	d := &analysts{
		wl:       wl,
		base:     base,
		sessions: newSessStates(specs),
		tr:       tr,
		// Two analysts on two kept-alive connections.
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			IdleConnTimeout:     time.Minute,
		}},
	}
	for c := range d.drawers {
		d.drawers[c] = newDrawer(wl, seed, c)
	}
	return d
}

// fanOut runs f once per analyst, concurrently, and merges their logs.
func fanOut(f func(c int, l *runLog)) *runLog {
	logs := make([]*runLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = &runLog{}
			f(c, logs[c])
		}(c)
	}
	wg.Wait()
	return mergeLogs(logs)
}

// sweep hands every session to act once: analyst c takes sessions c,
// c+clients, ...
func (d *analysts) sweep(act func(c int, st *sessState, l *runLog)) *runLog {
	return fanOut(func(c int, l *runLog) {
		for i := c; i < len(d.sessions); i += clients {
			act(c, d.sessions[i], l)
		}
	})
}

// populate opens every session.
func (d *analysts) populate(ctx context.Context) *runLog {
	return d.sweep(func(c int, st *sessState, l *runLog) { d.open(ctx, c, st, l) })
}

// touchAll reads every session once, so each has been restored and
// evicted at least once before anything is timed.
func (d *analysts) touchAll(ctx context.Context) *runLog {
	return d.sweep(func(c int, st *sessState, l *runLog) { d.read(ctx, c, st, l) })
}

// steady runs the closed loop: each analyst draws an action, sends it and
// waits for the answer before the next, until ops actions have been drawn
// in total (ops > 0) or until the window ends.
func (d *analysts) steady(ctx context.Context, ops int, window time.Duration) (*runLog, time.Duration) {
	start := time.Now()
	end := start.Add(window)
	per := (ops + clients - 1) / clients
	l := fanOut(func(c int, l *runLog) {
		for n := 0; ops > 0 && n < per || ops <= 0 && time.Now().Before(end); n++ {
			d.step(ctx, c, d.drawers[c].next(), l)
		}
	})
	return l, time.Since(start)
}

func mergeLogs(logs []*runLog) *runLog {
	out := &runLog{}
	for _, l := range logs {
		out.merge(l)
	}
	return out
}

// step resolves one draw against the session's state and performs it.
func (d *analysts) step(ctx context.Context, c int, dr draw, l *runLog) {
	st := d.sessions[dr.sess]
	switch dr.class {
	case opRead:
		d.read(ctx, c, st, l)
	case opExplain:
		d.explain(ctx, c, st, dr.pick, l)
	case opWrite:
		d.write(ctx, c, st, dr.pick, l)
	}
}

func (st *sessState) isLost() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lost
}

func (st *sessState) markLost() {
	st.mu.Lock()
	st.lost = true
	st.mu.Unlock()
}

// floor is the highest epoch acknowledged before a request starts; the
// request's answer may not report an older one.
func (st *sessState) floor() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.acked
}

func (st *sessState) ack(epoch uint64) {
	st.mu.Lock()
	st.acked = max(st.acked, epoch)
	st.mu.Unlock()
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	body   []byte
	err    error
	dur    time.Duration
}

// send makes one request under the client deadline, inside a client span
// when tracing.
func (d *analysts) send(ctx context.Context, c int, class opClass, method, path string, body []byte) reply {
	op := uint64(c+1)<<40 | d.opSeq[c]
	d.opSeq[c]++
	if d.tr != nil {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		path += sep + opParam + "=" + strconv.FormatUint(op, 10)
	}
	rctx, cancel := context.WithTimeout(ctx, requestDeadline)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(rctx, method, d.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rep := reply{}
	resp, err := d.http.Do(req)
	if err == nil {
		rep.status = resp.StatusCode
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rep.err = err
	end := time.Now()
	rep.dur = end.Sub(start)
	d.tr.record(op, spanClient, "", class.String(), start, end)
	return rep
}

// failure classifies a non-success reply; lost reports whether the session
// must be declared lost.
func failure(rep reply) (cause string, lost bool) {
	switch {
	case rep.err != nil && errors.Is(rep.err, context.DeadlineExceeded):
		return failTimeout, true
	case rep.err != nil:
		return failNet, true
	case rep.status == http.StatusServiceUnavailable || rep.status == http.StatusTooManyRequests:
		return failRefused, false
	default:
		return failStatus, false
	}
}

func (d *analysts) mismatch(l *runLog, format string, args ...any) {
	l.mismatches = append(l.mismatches, fmt.Sprintf(format, args...))
}

// requireKeys decodes a JSON object and checks that every key is present.
func requireKeys(body []byte, v any, keys ...string) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return err
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return fmt.Errorf("missing %q", k)
		}
	}
	return json.Unmarshal(body, v)
}

type reasonReply struct {
	Session string   `json:"session"`
	Epoch   uint64   `json:"epoch"`
	Answers []string `json:"answers"`
}

type factsReply struct {
	Session string   `json:"session"`
	Epoch   uint64   `json:"epoch"`
	Answers []string `json:"answers"`
	Batch   int      `json:"batch"`
}

type explainReply struct {
	Fact     string `json:"fact"`
	Text     string `json:"text"`
	Complete bool   `json:"complete"`
}

func (d *analysts) open(ctx context.Context, c int, st *sessState, l *runLog) {
	body, _ := json.Marshal(map[string]string{"app": appName, "facts": factsText(st.spec.facts), "assignId": st.spec.id})
	rep := d.send(ctx, c, opOpen, http.MethodPost, "/reason", body)
	cl := &l.classes[opOpen]
	if rep.err != nil || rep.status != http.StatusOK {
		cause, _ := failure(rep)
		cl.fail(cause)
		l.sample(opOpen, st.spec.id, rep)
		st.markLost() // never opened: nothing to read back
		return
	}
	var r reasonReply
	if err := requireKeys(rep.body, &r, "session", "rounds", "facts", "answers"); err != nil || r.Session != st.spec.id || len(r.Answers) == 0 {
		d.mismatch(l, "open %s: bad body %q (%v)", st.spec.id, rep.body, err)
		cl.fail(failCheck)
		st.markLost()
		return
	}
	cl.ok(rep.dur)
}

func (d *analysts) read(ctx context.Context, c int, st *sessState, l *runLog) {
	cl := &l.classes[opRead]
	if st.isLost() {
		cl.fail(failLost)
		return
	}
	floor := st.floor()
	body, _ := json.Marshal(map[string]string{"session": st.spec.id})
	rep := d.send(ctx, c, opRead, http.MethodPost, "/reason", body)
	if rep.err != nil || rep.status != http.StatusOK {
		cause, lost := failure(rep)
		cl.fail(cause)
		l.sample(opRead, st.spec.id, rep)
		if lost {
			st.markLost()
		}
		return
	}
	var r reasonReply
	if err := requireKeys(rep.body, &r, "session", "rounds", "facts", "answers"); err != nil || r.Session != st.spec.id || len(r.Answers) == 0 {
		d.mismatch(l, "read %s: bad body %q (%v)", st.spec.id, rep.body, err)
		cl.fail(failCheck)
		return
	}
	if r.Epoch < floor {
		d.mismatch(l, "read %s: epoch went back from %d to %d", st.spec.id, floor, r.Epoch)
		cl.fail(failCheck)
		return
	}
	st.ack(r.Epoch)
	cl.ok(rep.dur)
}

func (d *analysts) explain(ctx context.Context, c int, st *sessState, pick uint32, l *runLog) {
	cl := &l.classes[opExplain]
	if st.isLost() {
		cl.fail(failLost)
		return
	}
	query := churnQuery
	if d.wl.chain {
		q, k := st.chainTarget(pick)
		defer st.explainDone(k)
		query = q
	}
	path := "/explain?session=" + url.QueryEscape(st.spec.id) + "&query=" + url.QueryEscape(query)
	rep := d.send(ctx, c, opExplain, http.MethodGet, path, nil)
	if rep.err != nil || rep.status != http.StatusOK {
		cause, lost := failure(rep)
		cl.fail(cause)
		l.sample(opExplain, st.spec.id, rep)
		if lost {
			st.markLost()
		}
		return
	}
	var r explainReply
	err := requireKeys(rep.body, &r, "fact", "text", "deterministic", "reasoningPaths", "proofSteps", "constants", "complete")
	if err != nil || r.Fact != queryFact(query) || r.Text == "" || !r.Complete {
		d.mismatch(l, "explain %s %s: bad body %q (%v)", st.spec.id, query, rep.body, err)
		cl.fail(failCheck)
		return
	}
	cl.ok(rep.dur)
}

func (d *analysts) write(ctx context.Context, c int, st *sessState, pick uint32, l *runLog) {
	cl := &l.classes[opWrite]
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if st.isLost() {
		cl.fail(failLost)
		return
	}
	var add, retract []ast.Atom
	toggled := -1
	if d.wl.chain {
		add, retract, toggled = st.chainWrite(pick)
	} else {
		add = churnAdd(c, d.writeSeq[c])
		d.writeSeq[c]++
	}
	floor := st.floor()
	req := map[string]string{"session": st.spec.id}
	if len(add) > 0 {
		req["add"] = factsText(add)
	}
	if len(retract) > 0 {
		req["retract"] = factsText(retract)
	}
	body, _ := json.Marshal(req)
	rep := d.send(ctx, c, opWrite, http.MethodPost, "/facts", body)
	if rep.err != nil || rep.status != http.StatusOK {
		cause, _ := failure(rep)
		cl.fail(cause)
		l.sample(opWrite, st.spec.id, rep)
		if cause == failRefused {
			st.abandonWrite() // refused before the commit queue: not applied
		} else {
			st.markLost() // whether it was applied is unknown
		}
		return
	}
	var r factsReply
	if err := requireKeys(rep.body, &r, "session", "epoch", "stats", "facts", "answers", "batch"); err != nil || r.Session != st.spec.id || len(r.Answers) == 0 {
		d.mismatch(l, "write %s: bad body %q (%v)", st.spec.id, rep.body, err)
		cl.fail(failCheck)
		st.markLost()
		return
	}
	if r.Epoch <= floor {
		d.mismatch(l, "write %s: commit epoch %d not past acknowledged epoch %d", st.spec.id, r.Epoch, floor)
		cl.fail(failCheck)
		st.markLost()
		return
	}
	st.commitWrite(add, retract, toggled)
	st.ack(r.Epoch)
	cl.ok(rep.dur)
}
