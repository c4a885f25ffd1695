package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// This file is the checkpoint half of the durable write path: serializing a
// session's live engine to its snapshot file (internal/snapshot over
// chase.Live.EncodeState) and using those snapshots as WAL checkpoints —
// compaction truncates a session's log to a tail once the fixpoint is
// durable, eviction and drain checkpoint sessions so their state survives
// without a replay, and restore loads the snapshot plus the short tail
// instead of re-running every committed delta.

// snapPath is the session's snapshot file, next to its WAL.
func (s *Server) snapPath(id string) string {
	return filepath.Join(s.walDir, id+".snap")
}

// shouldCompact reports whether the session's WAL has outgrown a threshold.
// Runs on the session's commit leader.
func (s *Server) shouldCompact(sess *session) bool {
	if s.compactCommits > 0 && sess.deltasSinceSnap >= s.compactCommits {
		return true
	}
	if s.compactBytes > 0 {
		if fi, err := os.Stat(s.walPath(sess.id)); err == nil && fi.Size() >= s.compactBytes {
			return true
		}
	}
	return false
}

// compact checkpoints the session at commit epoch seq and truncates its WAL
// to a tail. It runs on the session's commit leader between batches, so the
// maintainer holds exactly the state at seq. The ordering is crash-safe:
// the snapshot is durable before the log is touched, so a crash leaves
// either the old log (snapshot simply unused, deltas <= seq replayed and
// skipped... they are filtered by seq on restore) or the truncated one
// (restore = snapshot + empty tail); a crash inside the log rewrite itself
// leaves an unreadable log, which restore repairs from the snapshot by
// recreating the tail log.
func (s *Server) compact(sess *session, seq uint64) error {
	m := sess.cmt.Maintainer()
	if m == nil {
		return nil
	}
	payload, err := m.EncodeState()
	if err != nil {
		return err // poisoned maintainer: never checkpoint partial repairs
	}
	h := snapshot.Header{App: sess.app, Program: s.fingerprints[sess.app], Epoch: seq}
	if err := snapshot.Write(s.snapPath(sess.id), h, payload); err != nil {
		return err
	}
	s.snapshotWrites.Add(1)
	sess.snapshotAt(seq)
	old := sess.getWAL()
	l, err := wal.Create(s.walPath(sess.id), wal.Header{
		App:      sess.app,
		Program:  h.Program,
		Base:     sess.extra,
		StartSeq: seq,
	}, s.walSync)
	if err != nil {
		return fmt.Errorf("recreating WAL after checkpoint: %w", err)
	}
	sess.setWAL(l)
	if old != nil {
		_ = old.Close()
	}
	sess.deltasSinceSnap = 0
	s.compactions.Add(1)
	return nil
}

// retire quiesces a session leaving the session table (eviction): the
// committer drains and stops, the fixpoint is checkpointed so the eviction
// discards nothing a restore would have to recompute, and the WAL handle is
// closed. The files stay on disk — they are what restore reads.
func (s *Server) retire(sess *session) {
	sess.cmt.CloseWait()
	s.snapshotQuiesced(sess)
	if l := sess.getWAL(); l != nil {
		_ = l.Close()
	}
}

// retirement is one session's in-flight retirement. It is registered in
// Server.retiring until the session's files are final: a restore of the
// same session waits on done before touching disk, and the drain barrier
// waits on every entry.
type retirement struct {
	done chan struct{}
}

// registerRetirement records a pending retirement for id. It runs as the
// session store's locked eviction hook — in the same critical section
// that removes the session from the table — so at every instant a
// session is either resident or has a retirement entry: a restore (or a
// /release) that misses the table is guaranteed to find the entry and
// wait for the files to be final instead of racing the in-flight retire.
func (s *Server) registerRetirement(id string) {
	s.retireMu.Lock()
	s.retiring[id] = &retirement{done: make(chan struct{})}
	s.retireMu.Unlock()
}

// finishRetirement completes a registered retirement: the entry leaves
// the table and every waiter is released. The session's files are final
// by the time this is called.
func (s *Server) finishRetirement(id string) {
	s.retireMu.Lock()
	r := s.retiring[id]
	delete(s.retiring, id)
	s.retireMu.Unlock()
	if r != nil {
		close(r.done)
	}
}

// retireEvicted retires a session that just left the session table (its
// retirement was registered by the locked eviction hook): handed to a
// background retirer bounded by the retireSlots semaphore, so the request
// whose insert tipped the session store over capacity does not pay the
// committer quiesce + snapshot encode + fsync of an unrelated session.
// With no free slot (or the queue disabled or the server closing) it
// retires inline: backpressure on eviction, never an unbounded goroutine
// pile-up. Retirers are transient goroutines — no persistent worker — so
// an idle server holds no extra goroutines. Either way the registered
// retirement is completed when the files are final.
func (s *Server) retireEvicted(id string, sess *session) {
	s.retireMu.Lock()
	if s.retireClosed || s.retireSlots == nil {
		s.retireMu.Unlock()
		s.inlineRetires.Add(1)
		s.retire(sess)
		s.finishRetirement(id)
		return
	}
	select {
	case s.retireSlots <- struct{}{}:
	default:
		s.retireMu.Unlock()
		s.inlineRetires.Add(1)
		s.retire(sess)
		s.finishRetirement(id)
		return
	}
	s.retireMu.Unlock()
	go func() {
		defer func() {
			s.finishRetirement(id)
			<-s.retireSlots
		}()
		if s.testHookRetire != nil {
			s.testHookRetire(id)
		}
		s.retire(sess)
		s.asyncRetires.Add(1)
	}()
}

// waitRetirement blocks until a pending background retirement of id (if
// any) has finished: the retirer is writing the snapshot and closing the
// WAL handle that a restore of the same session is about to read.
func (s *Server) waitRetirement(ctx context.Context, id string) error {
	s.retireMu.Lock()
	r := s.retiring[id]
	s.retireMu.Unlock()
	if r == nil {
		return nil
	}
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return chase.ContextErr(ctx)
	}
}

// drainRetirements waits for every queued or running background retirement
// to finish — the barrier SnapshotAll and Close take before walking the
// session files themselves.
func (s *Server) drainRetirements() {
	for {
		s.retireMu.Lock()
		var r *retirement
		for _, pending := range s.retiring {
			r = pending
			break
		}
		s.retireMu.Unlock()
		if r == nil {
			return
		}
		<-r.done
	}
}

// pendingRetirements reports the retirement-queue depth for /stats.
func (s *Server) pendingRetirements() int {
	s.retireMu.Lock()
	defer s.retireMu.Unlock()
	return len(s.retiring)
}

// Close quiesces the server for shutdown: the retirement queue is drained
// and refused from then on (later evictions retire inline), and with a WAL
// directory every live session is checkpointed and released. Safe to call
// more than once.
func (s *Server) Close() {
	s.retireMu.Lock()
	s.retireClosed = true
	s.retireMu.Unlock()
	s.SnapshotAll()
}

// snapshotQuiesced checkpoints a session whose committer has fully stopped
// (CloseWait returned): Applied() is exact and nothing mutates the
// maintainer. A clean session — nothing applied past the snapshot it was
// restored from or last wrote — is skipped without touching the disk, so
// re-evicting an unmodified restored session is free. A dirty one first
// probes the on-disk header and skips the write when another owner's
// snapshot there is already as new (the stale-owner guard). Read-only
// sessions (no maintainer ever stood up) have nothing to serialize; their
// WAL header alone restores them.
func (s *Server) snapshotQuiesced(sess *session) bool {
	if s.walDir == "" {
		return false
	}
	m := sess.cmt.Maintainer()
	if m == nil {
		return false
	}
	epoch := sess.cmt.Applied()
	if sess.snapshotCovers(epoch) {
		return false
	}
	if s.testHookSnapshotProbe != nil {
		s.testHookSnapshotProbe(sess.id)
	}
	if h, err := snapshot.ReadHeader(s.snapPath(sess.id)); err == nil && h.Epoch >= epoch {
		return false
	}
	payload, err := m.EncodeState()
	if err != nil {
		s.logf("server: session %s: skipping eviction checkpoint: %v", sess.id, err)
		return false
	}
	h := snapshot.Header{App: sess.app, Program: s.fingerprints[sess.app], Epoch: epoch}
	if err := snapshot.Write(s.snapPath(sess.id), h, payload); err != nil {
		s.logf("server: session %s: eviction checkpoint failed: %v", sess.id, err)
		return false
	}
	s.snapshotWrites.Add(1)
	sess.snapshotAt(epoch)
	return true
}

// SnapshotAll checkpoints every live session and releases it — the
// snapshot-then-handoff half of a graceful drain. After it returns, every
// session's state is on disk and another worker sharing the directory can
// restore it from the snapshot plus an empty tail. Queued background
// retirements are waited out first, so the handoff covers sessions evicted
// moments before the drain too. Returns the number of snapshots written
// (sessions already current on disk are counted as handed off but not
// rewritten).
func (s *Server) SnapshotAll() (written int) {
	s.drainRetirements()
	if s.walDir == "" {
		return 0
	}
	for _, id := range s.sessions.Keys() {
		sess, ok := s.sessions.Get(id)
		if !ok {
			continue
		}
		sess.cmt.CloseWait()
		if s.snapshotQuiesced(sess) {
			written++
		}
		if l := sess.getWAL(); l != nil {
			_ = l.Close()
		}
		s.sessions.Remove(id)
	}
	return written
}

// restoreFromSnapshot rebuilds a session from its snapshot plus the WAL
// tail: deserialize the engine (byte-identical to the checkpointed state —
// same fact ids, proofs and aggregation state), then replay only committed
// deltas with sequence numbers past the snapshot epoch. A missing or
// unreadable log next to a good snapshot is the compaction crash window
// (the snapshot was durable before the log rewrite); the tail log is
// recreated empty at the snapshot epoch.
func (s *Server) restoreFromSnapshot(ctx context.Context, id string, h snapshot.Header, payload []byte) (*session, error) {
	pipe := s.pipe(h.App)
	if pipe == nil {
		return nil, fmt.Errorf("unknown application %q", h.App)
	}
	if got, want := h.Program, s.fingerprints[h.App]; got != want {
		return nil, fmt.Errorf("program fingerprint changed (snapshot %s, compiled %s)", got, want)
	}
	live, err := pipe.Compiled().RestoreLive(s.chaseOpts, payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot state: %w", err)
	}
	m := incremental.FromLive(live)
	lastSeq := h.Epoch
	var logHandle *wal.Log
	var extra []ast.Atom
	var replayed int
	rec, walErr := wal.Replay(s.walPath(id))
	if walErr == nil {
		extra = rec.Header.Base
		var tail []wal.Delta
		for _, d := range rec.Live() {
			if d.Seq > h.Epoch {
				tail = append(tail, d)
			}
		}
		var bad uint64
		for i, d := range tail {
			if _, _, uerr := m.UpdateContext(ctx, d.Add, d.Retract); uerr != nil {
				if i != len(tail)-1 {
					return nil, fmt.Errorf("tail replay: delta %d/%d failed before the tail end: %w", i+1, len(tail), uerr)
				}
				// The poisoning write of the previous life, crashed before
				// its abort record landed: rebuild from the snapshot without
				// it and mark it aborted.
				live2, rerr := pipe.Compiled().RestoreLive(s.chaseOpts, payload)
				if rerr != nil {
					return nil, fmt.Errorf("snapshot state: %w", rerr)
				}
				m = incremental.FromLive(live2)
				for _, d2 := range tail[:i] {
					if _, _, uerr2 := m.UpdateContext(ctx, d2.Add, d2.Retract); uerr2 != nil {
						return nil, fmt.Errorf("tail replay failed on clean rebuild: %w", uerr2)
					}
				}
				bad = d.Seq
			}
		}
		replayed = len(tail)
		s.tailReplays.Add(uint64(replayed))
		if rl := rec.LastSeq(); rl > lastSeq {
			lastSeq = rl
		}
		logHandle, err = rec.OpenAppend(s.walSync)
		if err != nil {
			return nil, err
		}
		if bad != 0 {
			_ = logHandle.AppendAbort(bad)
			_ = logHandle.Sync()
		}
	} else {
		if !os.IsNotExist(walErr) {
			s.logf("server: session %s: WAL unreadable next to a good snapshot (%v); recreating tail log at epoch %d", id, walErr, h.Epoch)
		}
		logHandle, err = wal.Create(s.walPath(id), wal.Header{
			App:      h.App,
			Program:  h.Program,
			StartSeq: h.Epoch,
		}, s.walSync)
		if err != nil {
			return nil, err
		}
	}
	res, err := m.Result()
	if err != nil {
		_ = logHandle.Close()
		return nil, err
	}
	sess := &session{id: id, app: h.App, extra: extra, result: res, epoch: lastSeq, syncWAL: s.logSync, deltasSinceSnap: replayed}
	sess.snapshotAt(h.Epoch)
	sess.setWAL(logHandle)
	s.attachCommitter(sess, core.CommitterConfig{StartSeq: lastSeq, Maintainer: m})
	return sess, nil
}
