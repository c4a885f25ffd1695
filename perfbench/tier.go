package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/lru"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/wal"
)

// compactCommits is the server's count-based compaction threshold, the value
// `bench -fig load` uses.
const compactCommits = 8

// serverOptions is the one server configuration every workload runs: the
// cmd/serve defaults plus a WAL directory, compaction every 8 commits and
// the group fsync policy. Only the session-table capacity is the workload's.
func serverOptions(walDir string, resident int, logger *log.Logger) server.Options {
	return server.Options{
		MaxSessions:    resident,
		WALDir:         walDir,
		WALSync:        wal.SyncGroup,
		CompactCommits: compactCommits,
		Log:            logger,
	}
}

// tier is one stood-up serving tier: its workers, the optional router and
// the base URL the clients talk to.
type tier struct {
	walDir  string
	servers []*server.Server
	workers []string // worker base URLs
	https   []*http.Server
	rt      *router.Router
	base    string
}

// serve runs h on a loopback listener. The http.Server is closed, never
// shut down gracefully, at the end: a handler wedged on a session lock
// must not hang the benchmark.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

// standUp builds the workload's tier over a fresh WAL directory under root.
// tr, when non-nil, wraps the router and worker handlers and the router's
// forwarding transport in span recorders.
func standUp(wl workload, root string, tr *tracer, logger *log.Logger) (*tier, error) {
	dir, err := os.MkdirTemp(root, "wal-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	t := &tier{walDir: dir}
	for i := 0; i < wl.workers; i++ {
		s, err := server.NewWithOptions(serverOptions(dir, wl.resident, logger))
		if err != nil {
			t.close()
			return nil, err
		}
		var h http.Handler = s.Handler()
		if tr != nil {
			parent := spanClient
			if wl.workers > 1 {
				parent = spanHop
			}
			h = tr.handler(spanWorker, parent, h)
		}
		hs, url, err := serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		t.servers = append(t.servers, s)
		t.https = append(t.https, hs)
		t.workers = append(t.workers, url)
	}
	t.base = t.workers[0]
	if wl.workers > 1 {
		opts := router.Options{Workers: t.workers, Logf: logger.Printf}
		if tr != nil {
			// Same transport settings as the router's default client, with
			// each forwarded round trip recorded as a hop span.
			opts.Client = &http.Client{Transport: &hopTransport{tr: tr, base: &http.Transport{
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			}}}
		}
		rt, err := router.New(opts)
		if err != nil {
			t.close()
			return nil, err
		}
		rt.Start()
		t.rt = rt
		var h http.Handler = rt.Handler()
		if tr != nil {
			h = tr.handler(spanRouter, spanClient, h)
		}
		hs, url, err := serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		t.https = append(t.https, hs)
		t.base = url
	}
	return t, nil
}

// close stops the listeners and the router's loops. The servers themselves
// are not closed: Server.Close checkpoints every resident session and
// would block forever behind a wedged session.
func (t *tier) close() {
	for _, hs := range t.https {
		_ = hs.Close()
	}
	if t.rt != nil {
		t.rt.Close()
	}
}

// quiesce waits (bounded) until no background retirement is running, so
// the WAL directory can be removed without racing a retirer.
func (t *tier) quiesce(ctx context.Context) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := t.stats(ctx)
		if err != nil || st["retire.pending"] == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// workerDoc is the part of a worker's /stats document the benchmark reads.
type workerDoc struct {
	Sessions     lru.Stats                  `json:"sessions"`
	Explanations lru.Stats                  `json:"explanations"`
	Apps         map[string]core.CacheStats `json:"apps"`
	Incremental  struct {
		Updates     uint64 `json:"updates"`
		DeltaRounds uint64 `json:"deltaRounds"`
		OverDeleted uint64 `json:"overDeleted"`
		Rederived   uint64 `json:"rederived"`
	} `json:"incremental"`
	Columnar database.ColumnarStats `json:"columnar"`
	Requests struct {
		Rejected    uint64 `json:"rejected"`
		Timeouts    uint64 `json:"timeouts"`
		Panics      uint64 `json:"panics"`
		SessionBusy uint64 `json:"sessionBusy"`
	} `json:"requests"`
	WritePath struct {
		Commit        core.CommitStats `json:"commit"`
		WAL           wal.Stats        `json:"wal"`
		Restores      uint64           `json:"restores"`
		RestoreMillis uint64           `json:"restoreMillis"`
		Retirements   struct {
			Async   uint64 `json:"async"`
			Inline  uint64 `json:"inline"`
			Pending int    `json:"pending"`
		} `json:"retirements"`
		SnapshotWrites   uint64 `json:"snapshotWrites"`
		SnapshotRestores uint64 `json:"snapshotRestores"`
		TailReplays      uint64 `json:"tailReplays"`
		Compactions      uint64 `json:"compactions"`
	} `json:"writePath"`
}

// counters is a flat set of named tier counters; deltas subtract key-wise.
type counters map[string]float64

func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// stats reads every worker's /stats directly and folds them into one set of
// tier counters. Per-Server fields are summed across workers. The WAL,
// group-commit and columnar sections are process-global — every in-process
// worker repeats the same numbers — so they are read once.
func (t *tier) stats(ctx context.Context) (counters, error) {
	c := counters{}
	for i, url := range t.workers {
		var doc workerDoc
		if err := getJSON(ctx, url+"/stats", &doc); err != nil {
			return nil, fmt.Errorf("stats of worker %d: %w", i, err)
		}
		c["sessions.hits"] += float64(doc.Sessions.Hits)
		c["sessions.misses"] += float64(doc.Sessions.Misses)
		c["sessions.evictions"] += float64(doc.Sessions.Evictions)
		c["sessions.len"] += float64(doc.Sessions.Len)
		c["explanations.hits"] += float64(doc.Explanations.Hits)
		c["explanations.misses"] += float64(doc.Explanations.Misses)
		for _, a := range doc.Apps {
			c["results.hits"] += float64(a.Results.Hits)
			c["results.misses"] += float64(a.Results.Misses)
			c["memo.hits"] += float64(a.Explanations.Hits)
			c["memo.misses"] += float64(a.Explanations.Misses)
		}
		c["incr.updates"] += float64(doc.Incremental.Updates)
		c["incr.deltaRounds"] += float64(doc.Incremental.DeltaRounds)
		c["incr.overDeleted"] += float64(doc.Incremental.OverDeleted)
		c["incr.rederived"] += float64(doc.Incremental.Rederived)
		c["req.rejected"] += float64(doc.Requests.Rejected)
		c["req.timeouts"] += float64(doc.Requests.Timeouts)
		c["req.panics"] += float64(doc.Requests.Panics)
		c["req.busy"] += float64(doc.Requests.SessionBusy)
		wp := doc.WritePath
		c["restores"] += float64(wp.Restores)
		c["restore.millis"] += float64(wp.RestoreMillis)
		c["retire.async"] += float64(wp.Retirements.Async)
		c["retire.inline"] += float64(wp.Retirements.Inline)
		c["retire.pending"] += float64(wp.Retirements.Pending)
		c["snapshot.writes"] += float64(wp.SnapshotWrites)
		c["snapshot.restores"] += float64(wp.SnapshotRestores)
		c["tail.replays"] += float64(wp.TailReplays)
		c["compactions"] += float64(wp.Compactions)
		if i == 0 {
			c["commit.commits"] = float64(wp.Commit.Commits)
			c["commit.batched"] = float64(wp.Commit.Batched)
			c["wal.appends"] = float64(wp.WAL.Appends)
			c["wal.syncs"] = float64(wp.WAL.Syncs)
			c["wal.bytes"] = float64(wp.WAL.Bytes)
			c["wal.replays"] = float64(wp.WAL.Replays)
		}
	}
	if t.rt != nil {
		rs := t.rt.Snapshot()
		c["router.requests"] = float64(rs.Requests)
		c["router.retried"] = float64(rs.Retried)
		c["router.loc.hits"] = float64(rs.LocationCache.Hits)
		c["router.loc.misses"] = float64(rs.LocationCache.Misses)
	}
	return c, nil
}

// dirUsage lists the WAL directory: total bytes and file count.
func dirUsage(dir string) (bytes, files int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
			files++
		}
	}
	return bytes, files
}

// statsClient reads /stats; it is separate from the analysts' connections.
var statsClient = &http.Client{Timeout: 30 * time.Second}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := statsClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
