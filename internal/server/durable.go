package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// This file is the durable half of the write path: per-session WAL wiring
// (log-before-apply hooks for the group committer) and transparent session
// restore — an evicted or crash-lost session with a WAL on disk is rebuilt
// to byte-identical state the next time /facts, /explain or a session-read
// /reason names it, instead of answering 404.

// programFingerprint identifies a compiled program in WAL headers: replay
// refuses to resurrect a session against different rules.
func programFingerprint(p *ast.Program) string {
	sum := sha256.Sum256([]byte(p.String()))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// walPath is the session's log file; session ids are never reused within a
// WAL directory (nextID starts past every id found on disk).
func (s *Server) walPath(id string) string {
	return filepath.Join(s.walDir, id+".wal")
}

// scanWALDir returns the highest session number among s<N>.wal files, so a
// restarted process never reissues an id that still has state on disk.
func scanWALDir(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	max := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "s") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "s"), ".wal"))
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// newSession builds a live session around a group committer wired to this
// server: lazy maintainer stand-up, log-before-apply, abort records, and
// publication of each applied batch to the session's read state. With a
// WAL directory configured the session's log is created eagerly — header
// first, durable before the session id is handed out — so read-only
// sessions survive eviction and restarts too (restore re-chases their
// logged base), not just mutated ones.
func (s *Server) newSession(id, app string, extra []ast.Atom, res *chase.Result) (*session, error) {
	sess := &session{id: id, app: app, extra: extra, result: res, syncWAL: s.logSync}
	if s.walDir != "" {
		l, err := wal.Create(s.walPath(id), wal.Header{
			App:     app,
			Program: s.fingerprints[app],
			Base:    extra,
		}, s.walSync)
		if err != nil {
			// Durability was promised (a WAL dir is configured) but is
			// unavailable: fail the session rather than silently running
			// volatile.
			return nil, fmt.Errorf("session WAL: %w", err)
		}
		sess.setWAL(l)
	}
	s.attachCommitter(sess, core.CommitterConfig{Standup: s.standup(sess)})
	return sess, nil
}

// attachCommitter gives the session its group committer: cfg carries the
// session's starting point (StartSeq and Maintainer, or Standup), and the
// server's write-path settings and hooks fill in the rest.
func (s *Server) attachCommitter(sess *session, cfg core.CommitterConfig) {
	cfg.Queue = s.writeQueue
	cfg.Window = s.commitWindow
	cfg.ApplyTimeout = s.timeout
	cfg.ApplyLock = &sess.renderMu
	cfg.OnLog = sess.onLog
	cfg.OnAbort = sess.onAbort
	cfg.Publish = sess.publish
	cfg.OnApply = s.onApply(sess)
	sess.cmt = core.NewCommitter(cfg)
}

// standup returns the committer's lazy maintainer factory for a fresh
// session: one full chase over the session's opening facts on the first
// write.
func (s *Server) standup(sess *session) func(context.Context) (*incremental.Maintainer, error) {
	return func(ctx context.Context) (*incremental.Maintainer, error) {
		return s.pipe(sess.app).MaintainContext(ctx, sess.extra...)
	}
}

// logSync flushes one session log after a commit. Under the group policy
// the fsync goes through the server's cross-session SyncBatcher, so commit
// windows that close together across concurrent sessions share flush rounds
// instead of each paying a serialized fsync; otherwise (or when batching is
// off) it is a direct Log.Sync.
func (s *Server) logSync(l *wal.Log) error {
	if s.syncBatcher != nil {
		return s.syncBatcher.Sync(l)
	}
	return l.Sync()
}

// onLog appends the merged batch delta and makes it durable per policy —
// one record and (under the group policy) at most one fsync per commit,
// shared across sessions by the server's SyncBatcher, regardless of how
// many writes coalesced into it.
func (sess *session) onLog(seq uint64, add, retract []ast.Atom) error {
	l := sess.getWAL()
	if l == nil {
		return nil
	}
	if err := l.Append(wal.Delta{Seq: seq, Add: add, Retract: retract}); err != nil {
		return err
	}
	return sess.syncWAL(l)
}

// onAbort marks a logged-but-failed batch so replay skips it. Best effort:
// if the abort record cannot be written, restore-time replay discovers the
// failure by re-running the delta and skipping it when it fails again.
func (sess *session) onAbort(seq uint64) {
	l := sess.getWAL()
	if l == nil {
		return
	}
	_ = l.AppendAbort(seq)
	_ = sess.syncWAL(l)
}

// publish makes an applied batch the session's read state: the repaired
// fixpoint and its commit epoch. The committer calls it while still
// write-holding renderMu, so a handler that reads the state under the read
// side always renders a result that matches the store. Explanations cached
// for the previous epoch are handed to onApply for removal.
func (sess *session) publish(seq uint64, res *chase.Result) {
	sess.stateMu.Lock()
	sess.result = res
	sess.epoch = seq
	sess.staleKeys = sess.explKeys
	sess.explKeys = nil
	sess.stateMu.Unlock()
}

// onApply finishes an applied batch once renderMu is released: cached
// explanations rendered against the previous epoch are removed, and the
// server-wide incremental counters advance once per batch. It runs on the
// session's commit leader, which is also where compaction triggers: the
// leader is quiescent between batches, so the checkpoint it writes is
// exactly the state at seq.
func (s *Server) onApply(sess *session) func(uint64, *chase.Result, incremental.UpdateStats) int {
	return func(seq uint64, res *chase.Result, stats incremental.UpdateStats) int {
		if s.testHookApply != nil {
			s.testHookApply()
		}
		stale := sess.staleKeys
		sess.staleKeys = nil
		invalidated := 0
		for _, key := range stale {
			if s.explanations.Remove(key) {
				invalidated++
			}
		}
		s.updates.Add(1)
		s.deltaRounds.Add(uint64(stats.DeltaRounds))
		s.overDeleted.Add(uint64(stats.OverDeleted))
		s.rederived.Add(uint64(stats.Rederived))
		s.invalidations.Add(uint64(invalidated))
		if s.walDir != "" {
			sess.deltasSinceSnap++
			if s.shouldCompact(sess) {
				if err := s.compact(sess, seq); err != nil {
					s.logf("server: compacting session %s: %v", sess.id, err)
				}
			}
		}
		return invalidated
	}
}

// restoreFlight is one in-progress restore in the per-session singleflight
// table: the leader publishes sess/err and closes done; followers wait on
// done instead of replaying the same session twice.
type restoreFlight struct {
	done chan struct{}
	sess *session
	err  error
}

// restore rebuilds an evicted (or crash-lost) session from its durable
// state. Restores of distinct sessions run in parallel — the snapshot+tail
// rebuild is session-local — while concurrent requests naming one session
// share a single restore through the per-session singleflight table (only
// the table itself and the session-store insert are coordinated). Returns
// (nil, nil) when the session has no durable state at all — the caller
// answers 404 exactly as before.
func (s *Server) restore(ctx context.Context, id string) (*session, error) {
	if s.walDir == "" {
		return nil, nil
	}
	for {
		s.restoreMu.Lock()
		if sess := s.session(id); sess != nil {
			s.restoreMu.Unlock()
			return sess, nil // raced with another restorer: done
		}
		if f, ok := s.restoring[id]; ok {
			s.restoreMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, chase.ContextErr(ctx)
			}
			if f.err != nil && chase.IsCancellation(f.err) && ctx.Err() == nil {
				// The leader died of its own request's cancellation, not of
				// bad durable state; this request is still live, so take
				// over the restore.
				continue
			}
			return f.sess, f.err
		}
		f := &restoreFlight{done: make(chan struct{})}
		s.restoring[id] = f
		s.restoreMu.Unlock()

		f.sess, f.err = s.restoreSession(ctx, id)
		if f.err == nil && f.sess != nil {
			// Publish to the session table before retiring the flight, so a
			// request arriving in between finds either the flight or the
			// live session — never a gap that would start a second restore.
			s.sessions.Put(id, f.sess)
		}
		s.restoreMu.Lock()
		delete(s.restoring, id)
		s.restoreMu.Unlock()
		close(f.done)
		return f.sess, f.err
	}
}

// restoreSession is one session's actual rebuild; it runs outside every
// server-wide lock (the singleflight table guarantees it runs at most once
// per session at a time). It prefers the session's snapshot: deserialize
// the engine (byte-identical to the checkpointed state) and replay only
// the short WAL tail past the snapshot epoch. Without a usable snapshot it
// falls back to a full WAL replay — header base plus every committed delta
// — unless the log was compacted (StartSeq > 0), in which case the prefix
// is gone and the restore fails loudly instead of rebuilding partial
// state. A pending background retirement of the same session is waited out
// first: the retirer is still producing the very files this restore reads.
func (s *Server) restoreSession(ctx context.Context, id string) (*session, error) {
	if err := s.waitRetirement(ctx, id); err != nil {
		return nil, err
	}
	if s.testHookRestore != nil {
		s.testHookRestore(id)
	}
	start := time.Now()
	snapHdr, payload, snapErr := snapshot.Read(s.snapPath(id))
	if snapErr == nil {
		sess, err := s.restoreFromSnapshot(ctx, id, snapHdr, payload)
		if err != nil {
			return nil, fmt.Errorf("restoring session %s: %w", id, err)
		}
		s.restores.Add(1)
		s.snapshotRestores.Add(1)
		d := time.Since(start)
		s.restoreNanos.Add(uint64(d))
		s.restoreHist.observe(d)
		return sess, nil
	}
	if !os.IsNotExist(snapErr) {
		s.logf("server: session %s: snapshot unusable (%v); falling back to full WAL replay", id, snapErr)
	}
	rec, err := wal.Replay(s.walPath(id))
	if os.IsNotExist(err) {
		if !os.IsNotExist(snapErr) {
			return nil, fmt.Errorf("restoring session %s: snapshot unusable (%v) and no WAL", id, snapErr)
		}
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", id, err)
	}
	if rec.Header.StartSeq > 0 {
		return nil, fmt.Errorf("restoring session %s: WAL is a tail starting at epoch %d and the snapshot it depends on is unusable (%v)",
			id, rec.Header.StartSeq, snapErr)
	}
	pipe := s.pipe(rec.Header.App)
	if pipe == nil {
		return nil, fmt.Errorf("restoring session %s: unknown application %q", id, rec.Header.App)
	}
	if got, want := rec.Header.Program, s.fingerprints[rec.Header.App]; got != want {
		return nil, fmt.Errorf("restoring session %s: program fingerprint changed (log %s, compiled %s)", id, got, want)
	}
	deltas := rec.Live()
	m, bad, err := s.replay(ctx, pipe, rec.Header.Base, deltas)
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", id, err)
	}
	log, err := rec.OpenAppend(s.walSync)
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", id, err)
	}
	// A delta that failed during replay was the poisoning write of the
	// previous life, crashed before its abort record landed; mark it now so
	// the next replay skips it outright.
	if bad != 0 {
		_ = log.AppendAbort(bad)
		_ = log.Sync()
	}
	res, err := m.Result()
	if err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("restoring session %s: %w", id, err)
	}
	sess := &session{id: id, app: rec.Header.App, extra: rec.Header.Base, result: res, epoch: rec.LastSeq(), syncWAL: s.logSync}
	sess.setWAL(log)
	s.attachCommitter(sess, core.CommitterConfig{StartSeq: rec.LastSeq(), Maintainer: m})
	s.restores.Add(1)
	d := time.Since(start)
	s.restoreNanos.Add(uint64(d))
	s.restoreHist.observe(d)
	return sess, nil
}

// replay rebuilds a maintainer by applying the committed deltas in order.
// The incremental engine is deterministic, so the rebuilt instance is
// byte-identical — same atoms, same fact ids, same proofs — to the state
// the session had after its last acknowledged commit. A delta that fails
// mid-replay can only be the final one (its failure poisoned or crashed the
// previous life, and nothing committed after it); the maintainer is rebuilt
// once more without it and its seq is reported for an abort record.
func (s *Server) replay(ctx context.Context, pipe *core.Pipeline, base []ast.Atom, deltas []wal.Delta) (*incremental.Maintainer, uint64, error) {
	m, err := pipe.MaintainContext(ctx, base...)
	if err != nil {
		return nil, 0, err
	}
	for i, d := range deltas {
		if _, _, err := m.UpdateContext(ctx, d.Add, d.Retract); err != nil {
			if i != len(deltas)-1 {
				return nil, 0, fmt.Errorf("replay: delta %d/%d failed before the tail: %w", i+1, len(deltas), err)
			}
			m, err2 := s.replayClean(ctx, pipe, base, deltas[:i])
			if err2 != nil {
				return nil, 0, err2
			}
			return m, d.Seq, nil
		}
	}
	return m, 0, nil
}

// replayClean rebuilds a maintainer over deltas known to apply cleanly.
func (s *Server) replayClean(ctx context.Context, pipe *core.Pipeline, base []ast.Atom, deltas []wal.Delta) (*incremental.Maintainer, error) {
	m, err := pipe.MaintainContext(ctx, base...)
	if err != nil {
		return nil, err
	}
	for _, d := range deltas {
		if _, _, err := m.UpdateContext(ctx, d.Add, d.Retract); err != nil {
			return nil, fmt.Errorf("replay: delta failed on clean rebuild: %w", err)
		}
	}
	return m, nil
}
