// Package server exposes the explanation pipeline as a small JSON-over-HTTP
// service, mirroring the paper's deployment context: analysts interact with
// the Knowledge Graph through a front-end (its reference [10], KG-Roar, is
// an interactive graph environment) and request explanations for derived
// facts on demand. The service holds compiled applications; reasoning
// results are kept per session so repeated explanation queries do not rerun
// the chase.
//
// Endpoints (all JSON):
//
//	GET  /apps                        list the deployed applications
//	POST /reason                      {"app": ..., "facts": "...", "scenario": bool} -> {"session": id, answers}
//	                                  {"session": ..., "epoch": N} -> current answers of a live session at or past epoch N
//	POST /facts                       {"session": ..., "add": "...", "retract": "...", "async": bool} -> updated answers
//	GET  /explain?session=S&query=Q&epoch=N   explanation of one derived fact (at or past epoch N)
//	GET  /paths?app=A                 the reasoning paths of an application
//	GET  /stats                       cache occupancy, hit/miss/eviction, incremental-update and write-path counters
//
// Everything stays inside the process: no data leaves, matching the paper's
// confidentiality requirement.
//
// # Serving caches
//
// The server is a bounded memoization layer over the pipeline: sessions
// live in an LRU (capacity Options.MaxSessions) so state cannot grow
// without bound under heavy traffic, rendered explanation responses are
// memoized per (session, query) in a second LRU (Options.MaxExplanations),
// and every pipeline runs with the core result cache and explanation memo
// enabled, so identical /reason payloads share one chase run and repeated
// /explain queries skip proof extraction, mapping and verbalization.
// Cached responses are byte-identical to uncached ones — every cached
// object is deterministic and immutable — and all caches expose their
// counters on /stats.
//
// # Live sessions and the write path
//
// POST /facts mutates a session in place: base facts are added or retracted
// and the session's fixpoint is repaired incrementally (see the incremental
// package) instead of re-chased. Writes flow through a per-session group
// committer (core.Committer): concurrent mutations of one session coalesce
// into a single merged delta, logged to the session's write-ahead log
// (internal/wal) before it is applied under one maintainer lock
// acquisition, and every coalesced writer receives the shared commit epoch
// and result. 429 is returned only when the session's write queue is full.
// With "async": true a write answers 202 as soon as its batch is durably
// logged, carrying the epoch token; /reason and /explain accept ?epoch= and
// wait (bounded by the request deadline) until the state has caught up, or
// answer 409 for epochs that were never issued.
//
// Each commit advances the session's epoch, which is part of every
// rendered-explanation cache key, so explanations cached against the old
// fixpoint can never answer for the new one; the superseded entries are
// removed eagerly and counted on /stats. A failed mutation (e.g. a
// constraint violation) poisons the session's maintainer — the session
// keeps serving its last consistent result, further mutations report the
// failure, and clients recover by opening a fresh session.
//
// With a WAL directory configured, committed sessions survive eviction and
// process crashes: the log records the program fingerprint, the opening
// base facts and every committed delta, and a request naming an evicted
// session replays it back to byte-identical state (same atoms, fact ids and
// proofs — the incremental engine is deterministic) instead of 404.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/incremental"
	"repro/internal/lru"
	"repro/internal/parser"
	"repro/internal/wal"
)

// Server is the HTTP handler set. Create with New.
type Server struct {
	// pipes is immutable after construction.
	pipes map[string]*core.Pipeline
	// scenarios holds each app's parsed bundled scenario facts, shared
	// read-only by every session opened with scenario: true. Immutable
	// after construction.
	scenarios map[string][]ast.Atom
	// sessions is the bounded session store: least recently used sessions
	// are evicted at capacity (their immutable chase results are shared
	// with the pipeline result cache, so eviction only drops the handle).
	sessions *lru.Cache[string, *session]
	// explanations memoizes rendered /explain responses per
	// (session, query). Responses are immutable once cached.
	explanations *lru.Cache[string, *explainResponse]

	// mu guards nextID and assigned.
	mu     sync.Mutex
	nextID int
	// assigned records every client-assigned session id ever accepted by
	// this process, so an id cannot be claimed twice even after its session
	// was evicted (session ids are never reused: the rendered-explanation
	// cache keys on them). Across restarts the durable files under walDir
	// extend the check.
	assigned map[string]bool

	// fingerprints maps application name to its compiled-program
	// fingerprint, stamped into WAL headers and checked on restore.
	// Immutable after construction.
	fingerprints map[string]string
	// Write-path configuration (see Options).
	walDir       string
	walSync      wal.SyncPolicy
	commitWindow time.Duration
	writeQueue   int
	// syncBatcher coalesces WAL fsyncs across sessions under the group
	// policy (nil otherwise): concurrent sessions' commit windows share
	// flush rounds instead of each paying a serialized fsync.
	syncBatcher *wal.SyncBatcher
	// restoreMu guards restoring, the per-session singleflight table of WAL
	// session restores. The snapshot+tail rebuild is session-local, so
	// restores of distinct sessions run in parallel; concurrent requests
	// naming one session share a single restore. restores, restoreNanos and
	// restoreHist account them for /stats.
	restoreMu    sync.Mutex
	restoring    map[string]*restoreFlight
	restores     atomic.Uint64
	restoreNanos atomic.Uint64
	restoreHist  latencyHist
	// Retirement queue: eviction hands the quiesce-checkpoint-close work of
	// the evicted session to a bounded set of background retirers, so the
	// unrelated request that tipped the session store over capacity does not
	// pay the snapshot encode + fsync tail. retireMu guards retiring (the
	// pending-retirement table restore and drain wait on) and retireClosed;
	// retireSlots is the concurrency bound (nil = retire synchronously).
	retireMu      sync.Mutex
	retiring      map[string]*retirement
	retireClosed  bool
	retireSlots   chan struct{}
	asyncRetires  atomic.Uint64
	inlineRetires atomic.Uint64
	// Rebalance control-plane counters: sessions handed off through
	// POST /release and warmed through POST /prewarm.
	releases atomic.Uint64
	prewarms atomic.Uint64
	// chaseOpts are the per-request chase options, kept so snapshot restore
	// can rebuild a live engine with the executor the server runs.
	chaseOpts chase.Options
	// Compaction thresholds (see Options) and snapshot/checkpoint counters.
	compactCommits   int
	compactBytes     int64
	compactions      atomic.Uint64
	snapshotWrites   atomic.Uint64
	snapshotRestores atomic.Uint64
	tailReplays      atomic.Uint64

	// Cumulative incremental-maintenance counters across every session
	// mutation, reported on /stats.
	updates       atomic.Uint64
	deltaRounds   atomic.Uint64
	overDeleted   atomic.Uint64
	rederived     atomic.Uint64
	invalidations atomic.Uint64

	// inflight is the admission semaphore of the reasoning endpoints: a
	// request either takes a slot without blocking or answers 503. timeout
	// is the per-request reasoning deadline (0 = none).
	inflight chan struct{}
	timeout  time.Duration
	// draining gates new work during graceful shutdown.
	draining atomic.Bool
	logf     func(format string, args ...any)

	// Request-lifecycle counters, reported on /stats.
	rejected    atomic.Uint64 // 503: semaphore full
	timeouts    atomic.Uint64 // 408: reasoning deadline exceeded
	clientGone  atomic.Uint64 // 499: client disconnected mid-reasoning
	panics      atomic.Uint64 // 500: handler panics contained
	sessionBusy atomic.Uint64 // 429: session write queue full

	// testHookInflight, when set, runs inside guard while the semaphore
	// slot is held — tests use it to saturate admission deterministically.
	testHookInflight func()
	// testHookApply, when set, runs on the commit leader after every batch
	// is published and renderMu released — tests use it to pin the commit
	// leader so writes pile up in the queue deterministically.
	testHookApply func()
	// testHookRender, when set, runs in handleExplain between reading the
	// session's (result, epoch) and rendering against it — tests use it to
	// land a commit in that window or to fail a render.
	testHookRender func()
	// testHookSubmit, when set, runs in handleFacts between resolving the
	// session and submitting the write — tests use it to evict the session
	// in that window.
	testHookSubmit func(id string)
	// testHookRestore, when set, runs inside every session restore after the
	// singleflight slot is claimed — tests use it to hold N distinct
	// restores in flight at once, proving they no longer serialize.
	testHookRestore func(id string)
	// testHookRetire, when set, runs inside every background retirement
	// before the session is quiesced — tests use it to pin retirements so
	// the drain barrier and the restore-waits-for-retirement path are
	// exercised deterministically.
	testHookRetire func(id string)
}

// session is one live reasoning instance. Mutations flow through cmt, the
// per-session group committer: its single leader goroutine owns the
// maintainer, so no handler ever holds a lock across an incremental
// repair. stateMu guards the published read state (result, epoch,
// explKeys) with short critical sections only. The committer write-holds
// renderMu across each repair and the publication of its (fixpoint, epoch)
// pair; handlers read-hold it from before they read that pair until they
// have rendered against it, so a response never pairs a fixpoint with a
// store a later commit has mutated.
type session struct {
	// id is the session's name in the session table and on disk (WAL and
	// snapshot files). Immutable after construction.
	id  string
	app string
	// extra is the extensional fact list the session was opened with; the
	// first commit seeds the maintainer (and the WAL header) from it.
	// Immutable after construction.
	extra []ast.Atom
	// deltasSinceSnap counts WAL deltas appended since the last durable
	// snapshot — the commit-count compaction trigger. Only the session's
	// commit leader (the OnApply hook) touches it.
	deltasSinceSnap int
	// staleKeys carries the previous epoch's explanation-cache keys from
	// publish to onApply; only the commit leader touches it.
	staleKeys []string
	// cmt is the session's group committer (see core.Committer); its leader
	// goroutine starts on the first write.
	cmt *core.Committer

	// walMu guards walLog, the session's write-ahead log handle — nil until
	// the first commit stands it up, and when no WAL directory is
	// configured.
	walMu  sync.Mutex
	walLog *wal.Log
	// syncWAL flushes the session's log after a commit: the server's
	// cross-session SyncBatcher under the group policy, a direct Log.Sync
	// otherwise. Immutable after construction.
	syncWAL func(*wal.Log) error

	// renderMu excludes response rendering from batch application: results
	// share the maintainer's grow-only store, so the committer write-holds
	// it across each repair and the publication of its result, and
	// handlers read-hold it from reading the published result until they
	// have materialized answers, explanations and fact counts. Readers
	// never wait for queued writes — only for a repair that is mutating
	// the store right now.
	renderMu sync.RWMutex

	stateMu sync.Mutex
	result  *chase.Result
	// epoch is the session's last applied commit sequence number (0 before
	// the first mutation); it is part of every rendered-explanation cache
	// key and is the token async writers wait on.
	epoch uint64
	// explKeys lists this session's entries in the rendered-explanation
	// cache for the current epoch, so a mutation can remove exactly them.
	explKeys []string
}

func (sess *session) setWAL(l *wal.Log) {
	sess.walMu.Lock()
	sess.walLog = l
	sess.walMu.Unlock()
}

func (sess *session) getWAL() *wal.Log {
	sess.walMu.Lock()
	defer sess.walMu.Unlock()
	return sess.walLog
}

// read returns the session's published (fixpoint, epoch) pair.
func (sess *session) read() (*chase.Result, uint64) {
	sess.stateMu.Lock()
	defer sess.stateMu.Unlock()
	return sess.result, sess.epoch
}

// Default serving-layer capacities; see Options.
const (
	DefaultMaxSessions     = 256
	DefaultMaxExplanations = 2048
	DefaultResultCacheSize = 64
	// DefaultMaxInflight bounds concurrent reasoning requests; the 65th
	// answers 503 immediately instead of queueing.
	DefaultMaxInflight = 64
	// DefaultRetireQueue bounds concurrent background session retirements
	// (the eviction-path checkpoint work); evictions past the bound retire
	// inline as backpressure. One slot is deliberate: it takes the
	// snapshot encode + fsync off the evicting request's latency path,
	// but under churn a wider queue lets concurrent retirement fsyncs
	// compete with the commit path's group fsyncs and regresses the
	// write tail (~2x write p99 at depth 4 in the 100k-session harness).
	DefaultRetireQueue = 1
)

// DefaultRequestTimeout is the per-request reasoning deadline: a chase (or
// incremental repair) that has not finished after this long is canceled at
// its next round/chunk boundary and the request answers 408.
const DefaultRequestTimeout = 30 * time.Second

// Options configure server construction.
type Options struct {
	// ChaseWorkers is the chase worker-pool size used by every /reason
	// request (chase.Options.Workers): 0 = sequential, negative = all
	// cores. Responses are identical at any setting.
	ChaseWorkers int
	// ChaseBatch selects the batch-at-a-time columnar join executor for
	// every reasoning request (chase.Options.Batch). Responses are
	// identical either way; only wall time and the /stats columnar
	// counters change.
	ChaseBatch bool
	// MaxSessions bounds the session store; at capacity the least
	// recently used session is evicted and later /explain calls against
	// it answer 404. 0 selects DefaultMaxSessions; negative values are
	// clamped to 1.
	MaxSessions int
	// MaxExplanations bounds the rendered-explanation cache. 0 selects
	// DefaultMaxExplanations; negative values are clamped to 1.
	MaxExplanations int
	// ResultCacheSize is handed to every pipeline as
	// core.Config.ResultCacheSize: identical /reason payloads for one app
	// share a cached chase run (with singleflight deduplication). 0
	// selects DefaultResultCacheSize; negative values are clamped to 1.
	ResultCacheSize int
	// RequestTimeout is the per-request reasoning deadline: the request
	// context handed to the chase carries it, and an overrun answers 408
	// within one round/chunk boundary. 0 selects DefaultRequestTimeout;
	// negative disables the deadline (client disconnect still cancels).
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently admitted reasoning requests
	// (/reason, /facts, /explain share one semaphore); at capacity
	// requests answer 503 immediately. 0 selects DefaultMaxInflight;
	// negative values are clamped to 1.
	MaxInflight int
	// MaxFacts caps the fact store of every chase run and session
	// (chase.Options.MaxFacts): a program that explodes past it fails with
	// 422 instead of exhausting memory. 0 = unlimited.
	MaxFacts int
	// WALDir enables durable sessions: every mutated session logs its
	// program fingerprint, opening base facts and committed deltas to
	// WALDir/<session>.wal, and requests naming an evicted or crash-lost
	// session restore it by replay instead of 404. Empty disables the WAL
	// (sessions are volatile, the pre-durability behavior).
	WALDir string
	// WALSync selects the fsync policy for session WALs (group fsyncs once
	// per commit batch — the default; per-commit fsyncs inside every
	// append; off never fsyncs). Ignored without WALDir.
	WALSync wal.SyncPolicy
	// CommitWindow is how long a session's commit leader keeps collecting
	// concurrent writes after the first one of a batch arrives. 0 (the
	// default) commits whatever has queued when the leader gets to it: no
	// added latency when idle, large batches under pressure.
	CommitWindow time.Duration
	// WriteQueue bounds each session's pending-write queue; writes beyond
	// it answer 429. 0 selects the committer default (64).
	WriteQueue int
	// CompactCommits checkpoints a session's engine state to its snapshot
	// file and truncates its WAL to a tail after this many committed deltas
	// since the last checkpoint. 0 disables count-based compaction. Ignored
	// without WALDir.
	CompactCommits int
	// CompactBytes triggers the same checkpoint when the session's WAL file
	// exceeds this size. 0 disables size-based compaction. Ignored without
	// WALDir.
	CompactBytes int64
	// RetireQueue bounds concurrent background session retirements (the
	// eviction-path committer quiesce + snapshot encode + fsync): an
	// eviction queues its retirement and returns immediately; past the
	// bound it falls back to retiring inline, so a retirement backlog
	// becomes eviction backpressure instead of a goroutine pile-up. 0
	// selects DefaultRetireQueue; negative values retire synchronously
	// inside the eviction hook (the pre-queue behavior).
	RetireQueue int
	// Log receives panic reports and lifecycle messages; nil selects the
	// process-default logger.
	Log *log.Logger
}

// New compiles every bundled application into a server with default
// options.
func New() (*Server, error) { return NewWithOptions(Options{}) }

// NewWithOptions compiles every bundled application into a server.
func NewWithOptions(opts Options) (*Server, error) {
	if opts.MaxSessions == 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.MaxExplanations == 0 {
		opts.MaxExplanations = DefaultMaxExplanations
	}
	if opts.ResultCacheSize == 0 {
		opts.ResultCacheSize = DefaultResultCacheSize
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.MaxInflight < 1 {
		opts.MaxInflight = 1
	}
	switch {
	case opts.RequestTimeout == 0:
		opts.RequestTimeout = DefaultRequestTimeout
	case opts.RequestTimeout < 0:
		opts.RequestTimeout = 0
	}
	switch {
	case opts.RetireQueue == 0:
		opts.RetireQueue = DefaultRetireQueue
	case opts.RetireQueue < 0:
		opts.RetireQueue = 0
	}
	logger := opts.Log
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		pipes:          map[string]*core.Pipeline{},
		scenarios:      map[string][]ast.Atom{},
		fingerprints:   map[string]string{},
		assigned:       map[string]bool{},
		sessions:       lru.New[string, *session](opts.MaxSessions),
		explanations:   lru.New[string, *explainResponse](opts.MaxExplanations),
		restoring:      map[string]*restoreFlight{},
		retiring:       map[string]*retirement{},
		inflight:       make(chan struct{}, opts.MaxInflight),
		timeout:        opts.RequestTimeout,
		walDir:         opts.WALDir,
		walSync:        opts.WALSync,
		commitWindow:   opts.CommitWindow,
		writeQueue:     opts.WriteQueue,
		chaseOpts:      chase.Options{Workers: opts.ChaseWorkers, Batch: opts.ChaseBatch, MaxFacts: opts.MaxFacts},
		compactCommits: opts.CompactCommits,
		compactBytes:   opts.CompactBytes,
		logf:           logger.Printf,
	}
	if opts.WALDir != "" && opts.WALSync == wal.SyncGroup {
		s.syncBatcher = wal.NewSyncBatcher()
	}
	if opts.RetireQueue > 0 {
		s.retireSlots = make(chan struct{}, opts.RetireQueue)
	}
	for _, a := range apps.All() {
		p, err := a.Pipeline(core.Config{
			Chase:                chase.Options{Workers: opts.ChaseWorkers, Batch: opts.ChaseBatch, MaxFacts: opts.MaxFacts},
			ResultCacheSize:      opts.ResultCacheSize,
			ExplanationCacheSize: opts.MaxExplanations,
		})
		if err != nil {
			return nil, fmt.Errorf("server: compiling %s: %w", a.Name, err)
		}
		s.pipes[a.Name] = p
		s.scenarios[a.Name] = a.Scenario()
		s.fingerprints[a.Name] = programFingerprint(p.Program())
	}
	if s.walDir != "" {
		if err := os.MkdirAll(s.walDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: WAL directory: %w", err)
		}
		// Never reuse a session id that still has durable state: ids name
		// WAL files, and a collision would truncate a restorable session.
		s.nextID = scanWALDir(s.walDir)
	}
	// Eviction quiesces the session and checkpoints its fixpoint to the
	// snapshot file before releasing the write-path resources (commit
	// queue, WAL handle), so evicting a mutated session never discards work
	// a restore would have to replay; the files stay on disk for restore.
	// The work itself runs on the bounded retirement queue — the request
	// that caused the eviction does not wait for the checkpoint. The
	// retirement is registered under the cache lock, atomically with the
	// removal, so a restore that misses the session table always finds the
	// retirement entry to wait on.
	s.sessions.OnEvictLocked(func(id string, sess *session) { s.registerRetirement(id) })
	s.sessions.OnEvict(func(id string, sess *session) { s.retireEvicted(id, sess) })
	return s, nil
}

// Handler returns the route multiplexer. The reasoning endpoints run behind
// the admission guard (bounded in-flight slots, per-request deadline); the
// cheap metadata endpoints bypass it so /stats stays observable under
// saturation; the whole mux runs behind panic recovery and the drain gate.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /apps", s.handleApps)
	mux.HandleFunc("POST /reason", s.guard(s.handleReason))
	mux.HandleFunc("POST /facts", s.guard(s.handleFacts))
	mux.HandleFunc("GET /explain", s.guard(s.handleExplain))
	mux.HandleFunc("GET /paths", s.handlePaths)
	mux.HandleFunc("GET /stats", s.handleStats)
	// Rebalance control plane (see rebalance.go): cheap listing plus the
	// release/prewarm handoff pair the router drives on membership change.
	// They bypass the admission guard — prewarm bounds its own restore
	// concurrency — but sit behind the drain gate like everything else.
	mux.HandleFunc("GET /sessions", s.handleSessions)
	mux.HandleFunc("POST /release", s.handleRelease)
	mux.HandleFunc("POST /prewarm", s.handlePrewarm)
	return s.protect(mux)
}

// appInfo is one row of the /apps listing.
type appInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	var out []appInfo
	for _, a := range apps.All() {
		out = append(out, appInfo{Name: a.Name, Title: a.Title, Description: a.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// reasonRequest is the /reason payload. App/Facts/Scenario open a new
// session; Session (plus an optional Epoch, also accepted as ?epoch=)
// instead reads a live session's current answers, waiting until its state
// has caught up with the given commit epoch.
type reasonRequest struct {
	// App is the application registry name.
	App string `json:"app"`
	// Facts holds extensional facts in concrete syntax (optional).
	Facts string `json:"facts,omitempty"`
	// Scenario loads the application's bundled scenario facts.
	Scenario bool `json:"scenario,omitempty"`
	// Session reads an existing session instead of opening one.
	Session string `json:"session,omitempty"`
	// Epoch makes a session read wait (bounded by the request deadline)
	// until the session has applied at least this commit epoch; an epoch
	// that was never issued answers 409.
	Epoch uint64 `json:"epoch,omitempty"`
	// AssignID names the new session instead of letting the server pick an
	// id. The routing tier uses it so a session's id — which the router
	// consistent-hashes to pick a worker — is fixed before the first
	// request is dispatched. Ids are [A-Za-z0-9_-], at most 64 bytes, must
	// not collide with the server-generated s<N> namespace, and are never
	// reused: a taken id answers 409.
	AssignID string `json:"assignId,omitempty"`
}

// reasonResponse reports the derived knowledge and the session id for
// follow-up explanation queries.
type reasonResponse struct {
	Session string `json:"session"`
	// Epoch is the session's last applied commit epoch (0 before the first
	// mutation); present on session reads.
	Epoch   uint64   `json:"epoch,omitempty"`
	Rounds  int      `json:"rounds"`
	Facts   int      `json:"facts"`
	Answers []string `json:"answers"`
}

func (s *Server) handleReason(w http.ResponseWriter, r *http.Request) {
	var req reasonRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if q := r.URL.Query().Get("epoch"); q != "" {
		e, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("epoch: %w", err))
			return
		}
		req.Epoch = e
	}
	if req.Session != "" {
		s.handleSessionRead(w, r, req)
		return
	}
	if req.Epoch != 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("epoch requires a session"))
		return
	}
	if _, err := apps.ByName(req.App); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	pipe := s.pipe(req.App)
	var extra []ast.Atom
	if req.Scenario {
		extra = s.scenarios[req.App]
	}
	if req.Facts != "" {
		factProg, err := parser.Parse(req.Facts)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("facts: %w", err))
			return
		}
		// Clip so the append copies instead of writing into the shared
		// scenario slice.
		extra = append(slices.Clip(extra), factProg.Facts...)
	}
	var id string
	if req.AssignID != "" {
		if err := validateAssignedID(req.AssignID); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if !s.claimID(req.AssignID) {
			writeError(w, http.StatusConflict, fmt.Errorf("session id %q is taken", req.AssignID))
			return
		}
		id = req.AssignID
	}
	res, err := pipe.ReasonContext(r.Context(), extra...)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}

	if id == "" {
		s.mu.Lock()
		s.nextID++
		id = "s" + strconv.Itoa(s.nextID)
		s.mu.Unlock()
	}
	sess, err := s.newSession(id, req.App, extra, res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.sessions.Put(id, sess)

	resp := reasonResponse{Session: id, Rounds: res.Rounds, Facts: res.Store.Len()}
	for _, fid := range res.Answers() {
		resp.Answers = append(resp.Answers, res.Store.Get(fid).String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionRead answers a /reason request naming an existing session:
// the session's current answers, optionally not before a given commit
// epoch.
func (s *Server) handleSessionRead(w http.ResponseWriter, r *http.Request, req reasonRequest) {
	if req.App != "" || req.Facts != "" || req.Scenario {
		writeError(w, http.StatusBadRequest, fmt.Errorf("a session read takes no app, facts or scenario"))
		return
	}
	sess, ok := s.liveSession(w, r.Context(), req.Session)
	if !ok {
		return
	}
	if !s.awaitEpoch(w, r.Context(), sess, req.Epoch) {
		return
	}
	writeJSON(w, http.StatusOK, sess.readAnswers(req.Session))
}

// readAnswers renders the session's published answers under renderMu.
func (sess *session) readAnswers(id string) reasonResponse {
	sess.renderMu.RLock()
	defer sess.renderMu.RUnlock()
	res, epoch := sess.read()
	resp := reasonResponse{Session: id, Epoch: epoch, Rounds: res.Rounds, Facts: res.Store.LiveLen()}
	for _, fid := range res.Answers() {
		resp.Answers = append(resp.Answers, res.Store.Get(fid).String())
	}
	return resp
}

// validateAssignedID checks the client-assigned session id grammar:
// [A-Za-z0-9_-], at most 64 bytes, outside the server-generated s<N>
// namespace.
func validateAssignedID(id string) error {
	if len(id) == 0 || len(id) > 64 {
		return fmt.Errorf("assignId must be 1-64 characters")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
		if !ok {
			return fmt.Errorf("assignId: invalid character %q", c)
		}
	}
	if isGeneratedID(id) {
		return fmt.Errorf("assignId %q collides with the server-generated s<N> namespace", id)
	}
	return nil
}

// isGeneratedID reports whether id has the server-generated s<N> form.
func isGeneratedID(id string) bool {
	if len(id) < 2 || id[0] != 's' {
		return false
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	return true
}

// claimID reserves a client-assigned session id, refusing ids that are
// live, were ever assigned in this process, or left durable state on disk
// in a previous one.
func (s *Server) claimID(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.assigned[id] || s.session(id) != nil {
		return false
	}
	if s.walDir != "" {
		if _, err := os.Stat(s.walPath(id)); err == nil {
			return false
		}
		if _, err := os.Stat(s.snapPath(id)); err == nil {
			return false
		}
	}
	s.assigned[id] = true
	return true
}

// liveSession resolves a session id, transparently restoring evicted
// sessions from their WAL; on failure the response is already written.
func (s *Server) liveSession(w http.ResponseWriter, ctx context.Context, id string) (*session, bool) {
	if sess := s.session(id); sess != nil {
		return sess, true
	}
	sess, err := s.restore(ctx, id)
	if err != nil {
		if chase.ContextErr(ctx) != nil {
			s.writeEngineError(w, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return nil, false
	}
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session"))
		return nil, false
	}
	return sess, true
}

// awaitEpoch blocks until the session has applied the requested commit
// epoch (0 = no wait). Unissued epochs answer 409; a request deadline
// expiring mid-wait answers through the engine-error mapping (408/499). On
// failure the response is already written.
func (s *Server) awaitEpoch(w http.ResponseWriter, ctx context.Context, sess *session, epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	if err := sess.cmt.WaitApplied(ctx, epoch); err != nil {
		switch {
		case errors.Is(err, core.ErrEpochUnknown), errors.Is(err, core.ErrCommitterClosed):
			writeError(w, http.StatusConflict, err)
		default:
			s.writeEngineError(w, err)
		}
		return false
	}
	return true
}

// factsRequest is the /facts payload: base facts to add and retract, in
// concrete syntax (newline- or period-separated fact lists, same format as
// the /reason facts field). With Async set the request answers 202 as soon
// as its batch is durably logged, carrying the commit epoch to wait on.
type factsRequest struct {
	Session string `json:"session"`
	Add     string `json:"add,omitempty"`
	Retract string `json:"retract,omitempty"`
	Async   bool   `json:"async,omitempty"`
}

// factsResponse reports the repaired fixpoint and what the update did.
type factsResponse struct {
	Session string `json:"session"`
	// Epoch is the session's new version; explanations rendered before it
	// are no longer served.
	Epoch   uint64                  `json:"epoch"`
	Stats   incremental.UpdateStats `json:"stats"`
	Facts   int                     `json:"facts"`
	Answers []string                `json:"answers"`
	// Batch is the number of concurrent writes coalesced into this
	// request's commit (1 when it committed alone).
	Batch int `json:"batch"`
	// InvalidatedExplanations counts cached renderings this update removed.
	InvalidatedExplanations int `json:"invalidatedExplanations"`
}

// asyncFactsResponse is the 202 body of an async write: the epoch token to
// pass to /reason or /explain.
type asyncFactsResponse struct {
	Session string `json:"session"`
	Epoch   uint64 `json:"epoch"`
}

func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	var req factsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sess, ok := s.liveSession(w, r.Context(), req.Session)
	if !ok {
		return
	}
	parseFacts := func(field, src string) ([]ast.Atom, bool) {
		if src == "" {
			return nil, true
		}
		prog, err := parser.Parse(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", field, err))
			return nil, false
		}
		return prog.Facts, true
	}
	add, ok := parseFacts("add", req.Add)
	if !ok {
		return
	}
	retract, ok := parseFacts("retract", req.Retract)
	if !ok {
		return
	}

	// The write joins the session's commit queue: concurrent writes
	// coalesce into one logged, applied batch, and this request observes
	// the shared commit epoch and result. The apply itself runs detached
	// from r.Context() under the server timeout — a client hanging up
	// abandons only its wait, never a repair in progress.
	if s.testHookSubmit != nil {
		s.testHookSubmit(req.Session)
	}
	res, err := sess.cmt.Submit(r.Context(), add, retract, req.Async)
	if errors.Is(err, core.ErrCommitterClosed) {
		// The session was evicted between lookup and Submit. A closed
		// committer refuses writes before logging them, so resubmitting to
		// the restored session cannot apply this write twice.
		if sess, ok = s.liveSession(w, r.Context(), req.Session); !ok {
			return
		}
		res, err = sess.cmt.Submit(r.Context(), add, retract, req.Async)
	}
	if err != nil {
		if errors.Is(err, core.ErrQueueFull) {
			s.sessionBusy.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("session %s write queue is full; retry", req.Session))
			return
		}
		s.writeEngineError(w, err)
		return
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, asyncFactsResponse{Session: req.Session, Epoch: res.Seq})
		return
	}
	writeJSON(w, http.StatusOK, sess.commitAnswers(req.Session, res))
}

// commitAnswers renders a commit's repaired fixpoint under renderMu.
func (sess *session) commitAnswers(id string, res *core.CommitResult) factsResponse {
	sess.renderMu.RLock()
	defer sess.renderMu.RUnlock()
	resp := factsResponse{
		Session:                 id,
		Epoch:                   res.Seq,
		Stats:                   res.Stats,
		Facts:                   res.Result.Store.LiveLen(),
		Batch:                   res.Batch,
		InvalidatedExplanations: res.Invalidated,
	}
	for _, fid := range res.Result.Answers() {
		resp.Answers = append(resp.Answers, res.Result.Store.Get(fid).String())
	}
	return resp
}

// explainResponse is the JSON form of one explanation, including the proof
// provenance for graph front-ends.
type explainResponse struct {
	Fact           string      `json:"fact"`
	Text           string      `json:"text"`
	Deterministic  string      `json:"deterministic"`
	ReasoningPaths []string    `json:"reasoningPaths"`
	ProofSteps     []proofStep `json:"proofSteps"`
	Constants      []string    `json:"constants"`
	Complete       bool        `json:"complete"`
}

// proofStep is one chase step of the proof.
type proofStep struct {
	Rule     string   `json:"rule"`
	Premises []string `json:"premises"`
	Derived  string   `json:"derived"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sessionID := r.URL.Query().Get("session")
	sess, ok := s.liveSession(w, r.Context(), sessionID)
	if !ok {
		return
	}
	query := r.URL.Query().Get("query")
	if query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing query parameter"))
		return
	}
	if q := r.URL.Query().Get("epoch"); q != "" {
		e, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("epoch: %w", err))
			return
		}
		if !s.awaitEpoch(w, r.Context(), sess, e) {
			return
		}
	}
	resp, err := s.renderExplain(sess, sessionID, query)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderExplain answers one explanation query against the session's
// published fixpoint, from the rendered-explanation cache when it can. It
// read-holds renderMu from before it reads (result, epoch) until the
// response is built, and releases it on every path, a panic included.
func (s *Server) renderExplain(sess *session, sessionID, query string) (*explainResponse, error) {
	sess.renderMu.RLock()
	defer sess.renderMu.RUnlock()
	// Session ids are never reused and the session's epoch is part of the
	// key, so a cached rendering can only ever repeat a response this exact
	// session produced against its current fixpoint; the live-session check
	// keeps unrestorable sessions from answering, and every commit removes
	// the previous epoch's entries. Errors are never cached.
	result, epoch := sess.read()
	cacheKey := sessionID + "#" + strconv.FormatUint(epoch, 10) + "\x00" + query
	if resp, ok := s.explanations.Get(cacheKey); ok {
		return resp, nil
	}
	if s.testHookRender != nil {
		s.testHookRender()
	}
	e, err := s.pipe(sess.app).ExplainQuery(result, query)
	if err != nil {
		return nil, err
	}
	resp := &explainResponse{
		Fact:           e.Fact.String(),
		Text:           e.Text,
		Deterministic:  e.Deterministic,
		ReasoningPaths: e.PathIDs(),
		Constants:      e.Proof.Constants(),
		Complete:       e.Verify() == nil,
	}
	for _, d := range e.Proof.Steps {
		step := proofStep{Rule: d.Rule.Label, Derived: result.Store.Get(d.Fact).String()}
		for _, p := range d.Premises {
			step.Premises = append(step.Premises, result.Store.Get(p).String())
		}
		resp.ProofSteps = append(resp.ProofSteps, step)
	}
	// Holding renderMu, the session cannot have moved past epoch, so the
	// entry belongs to the current epoch and the next commit removes it.
	sess.stateMu.Lock()
	s.explanations.Put(cacheKey, resp)
	sess.explKeys = append(sess.explKeys, cacheKey)
	sess.stateMu.Unlock()
	return resp, nil
}

// statsResponse is the /stats payload: serving-layer cache accounting plus
// per-application pipeline cache stats.
type statsResponse struct {
	// Sessions accounts the bounded session store.
	Sessions lru.Stats `json:"sessions"`
	// Explanations accounts the rendered-explanation cache.
	Explanations lru.Stats `json:"explanations"`
	// Apps maps application name to its pipeline cache stats (reasoning
	// results, explanation memo, deduplicated runs).
	Apps map[string]core.CacheStats `json:"apps"`
	// Incremental aggregates /facts maintenance work across all sessions.
	Incremental incrementalStats `json:"incremental"`
	// Columnar aggregates columnar index-maintenance work (rebuilds,
	// tail merges, tail refreshes, appended rows) across every fact store
	// in the process — the cost side of the batch executor's ledger.
	Columnar database.ColumnarStats `json:"columnar"`
	// Requests reports the request-lifecycle accounting (admission,
	// deadlines, contained panics).
	Requests requestStats `json:"requests"`
	// WritePath reports the group-commit and durability accounting.
	WritePath writePathStats `json:"writePath"`
}

// writePathStats is the /stats write-path section: group-commit batching,
// WAL appends/fsyncs and session restores.
type writePathStats struct {
	// Commit is the process-wide group-commit accounting: writes accepted,
	// batches applied, coalesced batch sizes (Batched/Commits is the
	// mean), queue depth high-water mark and queue-full rejections.
	Commit core.CommitStats `json:"commit"`
	// WAL is the process-wide write-ahead-log accounting (appends, fsyncs,
	// bytes, replays).
	WAL wal.Stats `json:"wal"`
	// Restores counts sessions transparently rebuilt from their WAL after
	// eviction or restart; RestoreMillis is the total wall time spent
	// replaying them.
	Restores      uint64 `json:"restores"`
	RestoreMillis uint64 `json:"restoreMillis"`
	// RestoreLatency summarizes per-restore wall time (log-bucket
	// histogram: quantiles are bucket upper bounds, the max is exact).
	RestoreLatency latencySummary `json:"restoreLatency"`
	// Retirements accounts the eviction retirement queue.
	Retirements retireStats `json:"retirements"`
	// Released counts sessions checkpointed and handed off through
	// POST /release; Prewarmed counts sessions restored ahead of first
	// touch through POST /prewarm (the rebalance control plane).
	Released  uint64 `json:"released"`
	Prewarmed uint64 `json:"prewarmed"`
	// Compactions counts WAL checkpoint-and-truncate cycles; SnapshotWrites
	// counts engine snapshots written (compaction, eviction, drain).
	Compactions    uint64 `json:"compactions"`
	SnapshotWrites uint64 `json:"snapshotWrites"`
	// SnapshotRestores counts restores served from a snapshot instead of a
	// full WAL replay; TailReplays is the total log deltas replayed on top
	// of restored snapshots (the short tails).
	SnapshotRestores uint64 `json:"snapshotRestores"`
	TailReplays      uint64 `json:"tailReplays"`
}

// retireStats is the /stats retirement-queue section.
type retireStats struct {
	// Async counts retirements completed by background retirers; Inline
	// counts evictions that retired synchronously (queue saturated, queue
	// disabled, or server closing).
	Async  uint64 `json:"async"`
	Inline uint64 `json:"inline"`
	// Pending is the number of retirements queued or running right now.
	Pending int `json:"pending"`
}

// incrementalStats is the /stats incremental-maintenance section.
type incrementalStats struct {
	// Updates counts successful /facts mutations.
	Updates uint64 `json:"updates"`
	// DeltaRounds is the total semi-naive rounds spent repairing fixpoints.
	DeltaRounds uint64 `json:"deltaRounds"`
	// OverDeleted is the total derived facts tombstoned by retractions.
	OverDeleted uint64 `json:"overDeleted"`
	// Rederived is the total over-deleted facts revived through alternative
	// proofs.
	Rederived uint64 `json:"rederived"`
	// Invalidations is the total cached explanations removed by mutations.
	Invalidations uint64 `json:"invalidations"`
}

// requestStats is the /stats request-lifecycle section.
type requestStats struct {
	// Inflight is the number of reasoning requests currently admitted, out
	// of MaxInflight slots.
	Inflight    int `json:"inflight"`
	MaxInflight int `json:"maxInflight"`
	// Rejected counts requests answered 503 because every slot was taken.
	Rejected uint64 `json:"rejected"`
	// Timeouts counts requests answered 408 because reasoning overran the
	// per-request deadline.
	Timeouts uint64 `json:"timeouts"`
	// ClientGone counts reasoning runs abandoned because the client
	// disconnected (status 499 in logs; the client never sees it).
	ClientGone uint64 `json:"clientGone"`
	// Panics counts handler panics contained by the recovery middleware.
	Panics uint64 `json:"panics"`
	// SessionBusy counts mutations answered 429 because their session's
	// write queue was full (queue-full backpressure).
	SessionBusy uint64 `json:"sessionBusy"`
	// Draining reports whether the server is refusing new work for
	// shutdown.
	Draining bool `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Sessions:     s.sessions.Stats(),
		Explanations: s.explanations.Stats(),
		Apps:         map[string]core.CacheStats{},
		Incremental: incrementalStats{
			Updates:       s.updates.Load(),
			DeltaRounds:   s.deltaRounds.Load(),
			OverDeleted:   s.overDeleted.Load(),
			Rederived:     s.rederived.Load(),
			Invalidations: s.invalidations.Load(),
		},
		Columnar: database.GlobalColumnarStats(),
		Requests: requestStats{
			Inflight:    len(s.inflight),
			MaxInflight: cap(s.inflight),
			Rejected:    s.rejected.Load(),
			Timeouts:    s.timeouts.Load(),
			ClientGone:  s.clientGone.Load(),
			Panics:      s.panics.Load(),
			SessionBusy: s.sessionBusy.Load(),
			Draining:    s.draining.Load(),
		},
		WritePath: writePathStats{
			Commit:         core.GlobalCommitStats(),
			WAL:            wal.GlobalStats(),
			Restores:       s.restores.Load(),
			RestoreMillis:  s.restoreNanos.Load() / uint64(time.Millisecond),
			RestoreLatency: s.restoreHist.summary(),
			Retirements: retireStats{
				Async:   s.asyncRetires.Load(),
				Inline:  s.inlineRetires.Load(),
				Pending: s.pendingRetirements(),
			},
			Released:         s.releases.Load(),
			Prewarmed:        s.prewarms.Load(),
			Compactions:      s.compactions.Load(),
			SnapshotWrites:   s.snapshotWrites.Load(),
			SnapshotRestores: s.snapshotRestores.Load(),
			TailReplays:      s.tailReplays.Load(),
		},
	}
	for name, pipe := range s.pipes {
		resp.Apps[name] = pipe.CacheStats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// pathInfo is one reasoning path of /paths.
type pathInfo struct {
	ID     string   `json:"id"`
	Kind   string   `json:"kind"`
	Rules  []string `json:"rules"`
	Dashed bool     `json:"dashed"`
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("app")
	pipe := s.pipe(name)
	if pipe == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown application %q", name))
		return
	}
	var out []pathInfo
	for _, p := range pipe.Analysis().All() {
		out = append(out, pathInfo{
			ID:     p.ID,
			Kind:   p.Kind.String(),
			Rules:  p.RuleLabels(),
			Dashed: p.Dashed,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// pipe returns the compiled pipeline for an app; pipes is immutable after
// construction so no locking is needed.
func (s *Server) pipe(name string) *core.Pipeline {
	return s.pipes[name]
}

func (s *Server) session(id string) *session {
	sess, _ := s.sessions.Get(id)
	return sess
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
