package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The HTTP spans nest client > router > hop > worker (client >
// worker on a bare worker); the layer-pass spans nest under the operation
// they replay.
const (
	spanClient = "client"
	spanRouter = "router"
	spanHop    = "router.hop"
	spanWorker = "server"
)

// opParam is the query parameter carrying the operation id on traced runs.
// The router forwards the raw query verbatim and the worker ignores
// parameters it does not know.
const opParam = "bop"

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent names the span that caused this one.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. Recording can be
// switched off so one stood-up tier serves an untraced and a traced window.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(op uint64, name, parent, class string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Op: op, Name: name, Parent: parent, Class: class,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(op uint64, name, parent string, f func()) {
	start := time.Now()
	f()
	t.record(op, name, parent, "", start, time.Now())
}

// handler wraps an HTTP handler in a span keyed by the request's operation
// id.
func (t *tracer) handler(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(opID(r), name, parent, "", start, time.Now())
	})
}

func opID(r *http.Request) uint64 {
	op, _ := strconv.ParseUint(r.URL.Query().Get(opParam), 10, 64)
	return op
}

// hopTransport records the router's forwarding round trips.
type hopTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := h.base.RoundTrip(r)
	h.tr.record(opID(r), spanHop, spanRouter, "", start, time.Now())
	return resp, err
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanStats summarizes spans per name.
type spanStats struct {
	n     int
	total float64 // ms
}

func (s spanStats) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total / float64(s.n)
}

// httpLayerTimes reduces the HTTP spans to the per-layer means: worker
// handler time per operation class, and the router's self time (its
// handler span minus the hop spans under it) and hop time per operation.
func httpLayerTimes(spans []span) map[string]spanStats {
	class := map[uint64]string{}
	for _, s := range spans {
		if s.Name == spanClient {
			class[s.Op] = s.Class
		}
	}
	out := map[string]spanStats{}
	hops := map[uint64]float64{}
	routerSpans := map[uint64]float64{}
	for _, s := range spans {
		switch s.Name {
		case spanWorker:
			c, ok := class[s.Op]
			if !ok {
				continue // health probes and /stats reads carry no operation
			}
			k := "server." + c
			st := out[k]
			st.n++
			st.total += s.ms()
			out[k] = st
		case spanHop:
			if _, ok := class[s.Op]; ok {
				hops[s.Op] += s.ms()
			}
		case spanRouter:
			if _, ok := class[s.Op]; ok {
				routerSpans[s.Op] += s.ms()
			}
		}
	}
	for op, d := range routerSpans {
		self := out["router.self"]
		self.n++
		self.total += d - hops[op]
		out["router.self"] = self
		hop := out["router.hop"]
		hop.n++
		hop.total += hops[op]
		out["router.hop"] = hop
	}
	return out
}
