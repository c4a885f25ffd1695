package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	// note qualifies the value in the human report (sample count, which
	// percentile a tail is, or why a metric does not apply).
	note string
	// reportOnly metrics are printed in the human report only, not in the
	// JSON result: end-to-end latencies whose run-to-run spread on the
	// reference machine exceeds any bound a regression check could use, and
	// per-layer times that exist only in some topologies (see doc.go).
	reportOnly bool
}

// result is one benchmark run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// problems explains a false correct.
	problems []string
}

type config struct {
	wl      workload
	seed    int64
	window  time.Duration
	trace   bool
	dir     string
	runDir  string
	setups  int
	logger  *log.Logger
	verbose io.Writer
}

func main() {
	name := flag.String("workload", "", "workload: churn, maintain or routed")
	seed := flag.Int64("seed", 1, "workload seed: session EKGs and every client's action stream derive from it")
	seconds := flag.Float64("seconds", 20, "length of the measured steady-state window")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for WAL directories and span files")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (churn, maintain, routed)\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag != 0,
		dir:     *dir,
		setups:  setups,
		logger:  log.New(os.Stderr, "server: ", 0),
		verbose: os.Stderr,
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.runDir = runDir
	res, err := run(context.Background(), cfg)
	// Every WAL directory of the run lives under runDir; removing them only
	// now keeps the deletions' journal traffic out of later set-ups.
	_ = os.RemoveAll(runDir)
	syncFS(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, res)
}

// report prints every metric by name and unit, then the one-line JSON
// result the last line of standard output carries.
func report(w io.Writer, cfg config, res *result) {
	mode := "untraced (end-to-end metrics)"
	if cfg.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s, %d analysts closed-loop\n", cfg.wl.name, cfg.seed, mode, clients)
	for _, m := range res.metrics {
		note := m.note
		if m.reportOnly {
			note = "(report only) " + note
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-7s %s\n", m.name, m.value, m.unit, note)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.attempted, res.failed, res.correct)
	for _, p := range res.problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]val{}}
	for _, m := range res.metrics {
		if !m.reportOnly {
			out.Metrics[m.name] = val{m.value, m.unit}
		}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// setups is how many times an untraced run stands the tier up; setup_s is
// their median and each is measured for an equal share of the window.
// Stretches of CPU steal on a shared host last seconds, so more, shorter
// measured shares spread a run over more of them.
const setups = 4

// subWindow is the slice of the window one throughput sample covers.
const subWindow = time.Second

// setupOutcome is one stood-up, populated and warmed tier.
type setupOutcome struct {
	tier  *tier
	crowd *analysts
	open  *runLog
	took  time.Duration
	specs []sessionSpec
	// heapMB is the live heap after a forced GC once set-up completed: a
	// fixed amount of work, unlike the window's, which depends on speed.
	heapMB float64
	// warmMismatches are output-check failures during set-up.
	warmMismatches []string
}

// setUp stands up the tier, opens the population and runs the warm-up.
func setUp(ctx context.Context, cfg config, tr *tracer) (*setupOutcome, error) {
	start := time.Now()
	specs := sessionSpecs(cfg.wl, cfg.seed)
	t, err := standUp(cfg.wl, cfg.runDir, tr, cfg.logger)
	if err != nil {
		return nil, err
	}
	crowd := newAnalysts(cfg.wl, t.base, specs, cfg.seed, tr)
	open := crowd.populate(ctx)
	if tr != nil {
		// Only the population's opens are traced, for server.open_ms.
		tr.on.Store(false)
	}
	if n := countFails(&open.classes[opOpen]); n > 0 {
		t.close()
		return nil, fmt.Errorf("%d of %d session opens failed, first: %v", n, len(specs), open.mismatches)
	}
	warm := crowd.touchAll(ctx)
	mixed, _ := crowd.steady(ctx, cfg.wl.warmup, 0)
	warm.merge(mixed)
	took := time.Since(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &setupOutcome{tier: t, crowd: crowd, open: open, took: took, specs: specs, heapMB: float64(ms.HeapAlloc) / (1 << 20),
		warmMismatches: append(open.mismatches, warm.mismatches...)}, nil
}

func countFails(c *classLog) (n int) {
	for _, v := range c.fails {
		n += v
	}
	return n
}

// tearDown closes a tier that is not measured further: it waits out the
// retirement queue, then checkpoints and releases every session, so no
// committer of an old tier keeps running. The wait is bounded, since a
// wedged session never quiesces.
func tearDown(ctx context.Context, so *setupOutcome) {
	so.tier.quiesce(ctx)
	so.tier.close()
	done := make(chan struct{})
	go func() {
		for _, s := range so.tier.servers {
			s.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
	}
}

// window is one measured steady-state interval with its counter deltas.
type window struct {
	log     *runLog
	dur     time.Duration
	delta   counters
	cpu     time.Duration
	rt      runtimeSample
	heapMB  float64
	end     counters
	dirSize int64
	files   int64
}

// measure runs the closed loop for the window and reads every counter
// around it, outside the timed loop.
func measure(ctx context.Context, so *setupOutcome, loop func() (*runLog, time.Duration)) (*window, error) {
	before, err := so.tier.stats(ctx)
	if err != nil {
		return nil, err
	}
	rt0, cpu0 := readRuntime(), cpuTime()
	l, dur := loop()
	cpu1, rt1 := cpuTime(), readRuntime()
	after, err := so.tier.stats(ctx)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &window{
		log:    l,
		dur:    dur,
		delta:  after.sub(before),
		cpu:    cpu1 - cpu0,
		end:    after,
		heapMB: float64(ms.HeapAlloc) / (1 << 20),
		rt: runtimeSample{
			gcCPU:      rt1.gcCPU - rt0.gcCPU,
			totalCPU:   rt1.totalCPU - rt0.totalCPU,
			allocBytes: rt1.allocBytes - rt0.allocBytes,
			gcCycles:   rt1.gcCycles - rt0.gcCycles,
		},
	}
	w.dirSize, w.files = dirUsage(so.tier.walDir)
	return w, nil
}

// run is one untraced run. Each of its set-ups is measured for an equal
// share of the window, so the run's numbers pool several independently
// stood-up tiers and a stretch of wall time several times the window.
func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	res := &result{}
	var setupTimes, heaps, rates []float64
	opens, all := &runLog{}, &runLog{}
	var dur, cpu time.Duration
	share := cfg.window / time.Duration(cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		so, err := setUp(ctx, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, so.took.Seconds())
		heaps = append(heaps, so.heapMB)
		opens.merge(so.open)
		w, err := measure(ctx, so, func() (*runLog, time.Duration) {
			l := &runLog{}
			var total time.Duration
			for total < share {
				sl, d := so.crowd.steady(ctx, 0, min(subWindow, share-total))
				l.merge(sl)
				total += d
				rates = append(rates, float64(sl.attempted()-sl.failed())/d.Seconds())
			}
			return l, total
		})
		if err != nil {
			return nil, err
		}
		all.merge(w.log)
		dur += w.dur
		cpu += w.cpu
		res.problems = append(res.problems, check(ctx, cfg, so, w)...)
		tearDown(ctx, so)
	}
	res.correct = len(res.problems) == 0
	res.attempted, res.failed = all.attempted(), all.failed()
	ok := res.attempted - res.failed
	res.metrics = append(res.metrics, medianMetric(opRead, &all.classes[opRead]), medianMetric(opExplain, &all.classes[opExplain]))
	res.metrics = append(res.metrics,
		metric{name: "setup_s", unit: "s", value: median(setupTimes), note: fmt.Sprintf("median of %d set-ups %v", len(setupTimes), roundAll(setupTimes))},
		metric{name: "cpu_ms_per_op", unit: "ms", value: float64(cpu) / 1e6 / float64(max(res.attempted, 1)),
			note: "process user+sys CPU (server and analysts)"},
		metric{name: "heap_live_mb", unit: "MB", value: median(heaps), note: fmt.Sprintf("median over set-ups of the live heap after a forced GC at the end of set-up %v", roundAll(heaps))},
	)
	// Writes and opens wait on fsyncs, tails on bursts of CPU steal, and
	// throughput on both, so on a shared disk and host these move 25-75%
	// between runs of the same code; they are reported without a bound.
	throughput := metric{name: "throughput_ops_s", unit: "1/s", value: median(rates),
		note: fmt.Sprintf("median of %d one-second slices; %d of %d operations succeeded in %.2fs over %d set-ups", len(rates), ok, res.attempted, dur.Seconds(), cfg.setups)}
	for _, m := range append(append([]metric{throughput}, latencyMetrics(opWrite, &all.classes[opWrite])...),
		append(latencyMetrics(opOpen, &opens.classes[opOpen]), tailMetric(opRead, &all.classes[opRead]), tailMetric(opExplain, &all.classes[opExplain]))...) {
		m.reportOnly = true
		m.note = "unbounded: " + m.note
		res.metrics = append(res.metrics, m)
	}
	return res, nil
}

// check runs the output checks that follow every measured window: shape
// assertions and the sequential oracle. It reports failures by cause and
// returns every problem found.
func check(ctx context.Context, cfg config, so *setupOutcome, w *window) []string {
	for c := opRead; c < numClasses; c++ {
		if f := w.log.classes[c].fails; len(f) > 0 {
			fmt.Fprintf(cfg.verbose, "%s failures by cause: %v\n", c, f)
		}
	}
	for _, x := range w.log.samples {
		fmt.Fprintln(cfg.verbose, "failed request:", x)
	}
	problems := append(append([]string(nil), so.warmMismatches...), w.log.mismatches...)
	problems = append(problems, shapeProblems(cfg.wl, w)...)
	checked, mism, err := so.crowd.oracleCheck(ctx, cfg.seed)
	if err != nil {
		problems = append(problems, err.Error())
	}
	problems = append(problems, mism...)
	fmt.Fprintf(cfg.verbose, "oracle compared %d sessions, %d mismatches\n", checked, len(mism))
	if checked == 0 {
		problems = append(problems, "oracle compared no session")
	}
	lost := 0
	for _, st := range so.crowd.sessions {
		if st.isLost() {
			lost++
		}
	}
	if lost > 0 {
		fmt.Fprintf(cfg.verbose, "%d sessions lost (deadline missed or write outcome unknown)\n", lost)
	}
	return problems
}

// shapeProblems asserts that the workload ran in the regime it was chosen
// for.
func shapeProblems(wl workload, w *window) []string {
	var out []string
	d := w.delta
	ops := float64(w.log.attempted())
	hit := ratio(d["sessions.hits"], d["sessions.hits"]+d["sessions.misses"])
	switch {
	case wl.chain:
		if d["restores"] != 0 || d["sessions.evictions"] != 0 || hit != 1 {
			out = append(out, fmt.Sprintf("maintain must run resident: restores %v, evictions %v, session hit ratio %v", d["restores"], d["sessions.evictions"], hit))
		}
	default:
		// Most operations touch a cold session. A cold access counts two
		// session-table misses (the lookup, then the restore's re-check),
		// so the hit ratio sits near half the resident share; twice the
		// share would mean the table is absorbing the load.
		share := float64(wl.residentTotal()) / float64(wl.population)
		if hit > 2*share || ratio(d["restores"], ops) < 0.5 {
			out = append(out, fmt.Sprintf("%s must churn: session hit ratio %.3f (resident share %.3f), restores per op %.3f", wl.name, hit, share, ratio(d["restores"], ops)))
		}
	}
	if wl.workers > 1 && d["router.requests"] == 0 {
		out = append(out, "routed: the router forwarded nothing")
	}
	return out
}

// latencyMetrics is a class's p50 and p99.
func latencyMetrics(c opClass, cl *classLog) []metric {
	return []metric{medianMetric(c, cl), tailMetric(c, cl)}
}

func medianMetric(c opClass, cl *classLog) metric {
	p50, _, chunks := chunkedPercentile(cl.lat, 0.5, medianChunk)
	return metric{name: c.String() + "_p50_ms", unit: "ms", value: finite(p50),
		note: fmt.Sprintf("n=%d, failed %d, median over %d chunks", len(cl.lat), countFails(cl), chunks)}
}

func tailMetric(c opClass, cl *classLog) metric {
	p99, used, chunks := chunkedPercentile(cl.lat, 0.99, chunk)
	note := fmt.Sprintf("n=%d, failed %d, median over %d chunks", len(cl.lat), countFails(cl), chunks)
	if used != 0.99 {
		note += fmt.Sprintf("; the sample supports only p%g, reported here", used*100)
	}
	return metric{name: c.String() + "_p99_ms", unit: "ms", value: finite(p99), note: note}
}

// finite maps a failed-request percentile (+Inf) to the client deadline, a
// floor on what it cost the analyst, so the JSON stays numeric.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return float64(requestDeadline) / 1e6
	}
	return v
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.2f", x)
	}
	return out
}

// traceSlice is the length of each alternating untraced/traced slice of
// the traced run's window.
const traceSlice = 500 * time.Millisecond

// runTraced is the traced run: one set-up with the population traced, a
// window of alternating untraced and traced slices (alternation cancels
// any drift of the system out of the tracing-overhead ratio), then the
// layer pass.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	tr := newTracer()
	tr.on.Store(true)
	so, err := setUp(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	var okOps [2]int
	var okDur [2]time.Duration
	w, err := measure(ctx, so, func() (*runLog, time.Duration) {
		all := &runLog{}
		var total time.Duration
		for i := 0; total < cfg.window; i++ {
			traced := i % 2
			tr.on.Store(traced == 1)
			l, d := so.crowd.steady(ctx, 0, traceSlice)
			tr.on.Store(false)
			all.merge(l)
			total += d
			okOps[traced] += l.attempted() - l.failed()
			okDur[traced] += d
		}
		return all, total
	})
	if err != nil {
		return nil, err
	}
	httpSpans := tr.snapshot()
	tr.on.Store(true)
	stateBytes, layerMism, err := layerPass(ctx, cfg.wl, so.specs, cfg.seed, cfg.runDir, tr)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, layerMism...)
	res.attempted, res.failed = w.log.attempted(), w.log.failed()

	layer := map[string]spanStats{}
	for _, s := range tr.snapshot()[len(httpSpans):] {
		st := layer[s.Name]
		st.n++
		st.total += s.ms()
		layer[s.Name] = st
	}
	res.metrics = perLayerMetrics(cfg.wl, w, httpLayerTimes(httpSpans), layer, stateBytes)
	untraced := float64(okOps[0]) / okDur[0].Seconds()
	traced := float64(okOps[1]) / okDur[1].Seconds()
	res.metrics = append(res.metrics, metric{name: "trace.overhead_ratio", unit: "ratio",
		value: ratio(traced, untraced),
		note:  fmt.Sprintf("traced %.0f op/s over untraced %.0f op/s", traced, untraced)})
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.json", cfg.wl.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.verbose, "spans written to %s\n", path)
	res.problems = append(res.problems, check(ctx, cfg, so, w)...)
	res.correct = len(res.problems) == 0
	return res, nil
}

// perLayerMetrics derives the per-layer metrics: counter deltas (S) and
// runtime readings (R) from the untraced window, the WAL directory listing
// (F), and span means (T) from the traced window and the layer pass.
func perLayerMetrics(wl workload, w *window, httpT, layer map[string]spanStats, stateBytes []float64) []metric {
	d := w.delta
	ops := float64(w.log.attempted())
	writes := float64(len(w.log.classes[opWrite].lat) - countFails(&w.log.classes[opWrite]))
	var out []metric
	add := func(name, unit string, v float64, note string) {
		out = append(out, metric{name: name, unit: unit, value: v, note: note})
	}
	spanMs := func(name string, st spanStats, src string) {
		add(name, "ms", st.mean(), fmt.Sprintf("mean of %d %s spans", st.n, src))
	}
	// Times that exist only in some topologies are report-only: the JSON
	// carries every declared per-layer metric on every workload, and a
	// time reading 0 on every run of a workload would be no measurement.
	reportOnly := func(name string, v float64, note string) {
		out = append(out, metric{name: name, unit: "ms", value: v, note: note, reportOnly: true})
	}
	na := ""
	if wl.workers == 1 {
		na = "no router in this topology (reads 0)"
	} else {
		reportOnly("router.self_ms", httpT["router.self"].mean(), fmt.Sprintf("router handler minus hops, %d ops", httpT["router.self"].n))
		reportOnly("router.hop_ms", httpT["router.hop"].mean(), fmt.Sprintf("forwarding round trips, %d ops", httpT["router.hop"].n))
	}
	noteOr := func(n string) string {
		if na != "" {
			return na
		}
		return n
	}
	add("router.location_hit_ratio", "ratio", ratio(d["router.loc.hits"], d["router.loc.hits"]+d["router.loc.misses"]), noteOr("location-cache hits / lookups"))
	add("router.retried_per_op", "count", ratio(d["router.retried"], ops), noteOr("extra forwarding attempts per operation"))
	for _, c := range []opClass{opOpen, opRead, opExplain, opWrite} {
		spanMs("server."+c.String()+"_ms", httpT["server."+c.String()], "worker handler")
	}
	restores := d["restores"]
	add("server.restores_per_op", "count", ratio(restores, ops), "")
	if restores > 0 {
		reportOnly("server.restore_ms_mean", ratio(d["restore.millis"], restores), fmt.Sprintf("restoreMillis / restores over %.0f restores", restores))
	}
	add("server.snapshot_restore_ratio", "ratio", ratio(d["snapshot.restores"], restores), "restores served from a snapshot")
	add("server.tail_replays_per_restore", "count", ratio(d["tail.replays"], restores), "")
	add("server.retire_inline_ratio", "ratio", ratio(d["retire.inline"], d["retire.inline"]+d["retire.async"]), fmt.Sprintf("of %.0f retirements", d["retire.inline"]+d["retire.async"]))
	add("server.rejected_per_op", "count", ratio(d["req.rejected"], ops), "503 admission refusals")
	add("server.busy_per_op", "count", ratio(d["req.busy"], ops), "429 write-queue refusals")
	add("server.heap_kb_per_resident_session", "KiB", ratio(w.heapMB*1024, w.end["sessions.len"]), fmt.Sprintf("live heap over %.0f resident sessions", w.end["sessions.len"]))
	add("server.dir_bytes_per_session", "B", ratio(float64(w.dirSize), float64(wl.population)), fmt.Sprintf("%d bytes in the WAL directory", w.dirSize))
	add("server.files_per_session", "count", ratio(float64(w.files), float64(wl.population)), fmt.Sprintf("%d files", w.files))
	add("lru.session_hit_ratio", "ratio", ratio(d["sessions.hits"], d["sessions.hits"]+d["sessions.misses"]), "")
	add("lru.session_evictions_per_op", "count", ratio(d["sessions.evictions"], ops), "")
	add("lru.explain_hit_ratio", "ratio", ratio(d["explanations.hits"], d["explanations.hits"]+d["explanations.misses"]), "rendered-explanation cache")
	spanMs("core.reason_ms", layer["core.reason"], "Pipeline.ReasonContext")
	add("core.result_cache_hit_ratio", "ratio", ratio(w.end["results.hits"], w.end["results.hits"]+w.end["results.misses"]), "since server start (opens happen in set-up)")
	spanMs("core.explain_ms", layer["core.explain"], "Pipeline.ExplainQuery")
	add("core.explain_memo_hit_ratio", "ratio", ratio(d["memo.hits"], d["memo.hits"]+d["memo.misses"]), "")
	spanMs("core.commit_ms", layer["core.commit"], "Committer.Submit")
	add("core.mean_batch", "count", ratio(d["commit.batched"], d["commit.commits"]), fmt.Sprintf("over %.0f commits", d["commit.commits"]))
	spanMs("incremental.update_ms", layer["incremental.update"], "Maintainer.UpdateContext")
	updates := d["incr.updates"]
	add("incremental.over_deleted_per_write", "count", ratio(d["incr.overDeleted"], updates), fmt.Sprintf("over %.0f updates", updates))
	add("incremental.rederive_ratio", "ratio", ratio(d["incr.rederived"], d["incr.overDeleted"]), "rederived / over-deleted")
	add("incremental.delta_rounds_per_write", "count", ratio(d["incr.deltaRounds"], updates), "")
	spanMs("chase.restore_ms", layer["chase.restore"], "chase.RestoreLive")
	spanMs("chase.encode_ms", layer["chase.encode"], "Maintainer.EncodeState")
	add("chase.state_bytes", "B", mean(stateBytes), fmt.Sprintf("mean of %d encoded states", len(stateBytes)))
	spanMs("wal.create_ms", layer["wal.create"], "wal.Create")
	spanMs("wal.append_ms", layer["wal.append"], "Log.Append")
	spanMs("wal.sync_ms", layer["wal.sync"], "Log.Sync")
	spanMs("wal.replay_ms", layer["wal.replay"], "wal.Replay")
	add("wal.syncs_per_write", "count", ratio(d["wal.syncs"], writes), fmt.Sprintf("over %.0f acknowledged writes", writes))
	add("wal.bytes_per_write", "B", ratio(d["wal.bytes"], writes), "")
	add("wal.replays_per_op", "count", ratio(d["wal.replays"], ops), "")
	spanMs("snapshot.write_ms", layer["snapshot.write"], "snapshot.Write")
	spanMs("snapshot.read_ms", layer["snapshot.read"], "snapshot.Read")
	add("snapshot.writes_per_op", "count", ratio(d["snapshot.writes"], ops), "")
	add("runtime.gc_cpu_fraction", "ratio", ratio(w.rt.gcCPU, w.rt.totalCPU), "GC CPU over all Go CPU in the window")
	add("runtime.alloc_kb_per_op", "KiB", ratio(w.rt.allocBytes/1024, ops), "")
	add("runtime.gc_cycles_per_kop", "count", ratio(w.rt.gcCycles*1000, ops), "")
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// syncFS fsyncs dir. On a journaling file system this commits the journal
// transaction holding this run's deletions, so that work is paid here
// rather than by the next run's fsyncs.
func syncFS(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	_ = f.Sync()
}
