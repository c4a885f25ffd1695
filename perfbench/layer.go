package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// layerDraws bounds the layer pass: this many of client 0's generated
// actions are replayed (fewer if layerBudget runs out first).
const (
	layerDraws  = 600
	layerBudget = 8 * time.Second
)

// layerSess is one session as the layer pass rebuilds it.
type layerSess struct {
	st        *sessState
	res       *chase.Result
	log       *wal.Log
	cmt       *core.Committer
	twin      *incremental.Maintainer
	sinceSnap int
}

// layerPass replays a sample of the workload's generated actions directly
// against the layers' public functions, in the order the server calls
// them, and records a span around each call:
//
//	open:    Pipeline.ReasonContext -> wal.Create
//	explain: Pipeline.ExplainQuery
//	write:   Committer.Submit (OnLog: Log.Append, Log.Sync; every 8th
//	         commit: Maintainer.EncodeState -> snapshot.Write -> wal.Create)
//	         plus Maintainer.UpdateContext of the same delta on a twin
//	retire:  Maintainer.EncodeState -> snapshot.Write
//	restore: snapshot.Read -> chase.RestoreLive -> incremental.FromLive ->
//	         wal.Replay (full re-chase when the session has no snapshot)
//
// Each restored session's answers are checked against its answers before
// retirement; differences are returned as mismatches.
func layerPass(ctx context.Context, wl workload, specs []sessionSpec, seed int64, root string, tr *tracer) (stateBytes []float64, mismatches []string, err error) {
	a, err := apps.ByName(appName)
	if err != nil {
		return nil, nil, err
	}
	pipe, err := a.Pipeline(core.Config{
		ResultCacheSize:      server.DefaultResultCacheSize,
		ExplanationCacheSize: server.DefaultMaxExplanations,
	})
	if err != nil {
		return nil, nil, err
	}
	sum := sha256.Sum256([]byte(pipe.Program().String()))
	fp := "sha256:" + hex.EncodeToString(sum[:])
	dir, err := os.MkdirTemp(root, "layer-"+wl.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	walPath := func(id string) string { return filepath.Join(dir, id+".wal") }
	snapPath := func(id string) string { return filepath.Join(dir, id+".snap") }

	var op uint64 = 1 << 50
	sessions := map[int]*layerSess{}
	var order []int
	dr := newDrawer(wl, seed, 0)
	writeSeq := 0
	deadline := time.Now().Add(layerBudget)
	for n := 0; n < layerDraws && time.Now().Before(deadline); n++ {
		d := dr.next()
		ls := sessions[d.sess]
		if ls == nil {
			op++
			ls = &layerSess{st: newSessStates(specs[d.sess : d.sess+1])[0]}
			spec := ls.st.spec
			var rerr error
			tr.timed(op, "core.reason", "open", func() { ls.res, rerr = pipe.ReasonContext(ctx, spec.facts...) })
			if rerr != nil {
				return nil, nil, fmt.Errorf("layer pass: reason %s: %w", spec.id, rerr)
			}
			var werr error
			tr.timed(op, "wal.create", "open", func() {
				ls.log, werr = wal.Create(walPath(spec.id), wal.Header{App: appName, Program: fp, Base: spec.facts}, wal.SyncGroup)
			})
			if werr != nil {
				return nil, nil, fmt.Errorf("layer pass: %w", werr)
			}
			sessions[d.sess] = ls
			order = append(order, d.sess)
		}
		op++
		switch d.class {
		case opExplain:
			q := churnQuery
			if wl.chain {
				var k int
				q, k = ls.st.chainTarget(d.pick)
				ls.st.explainDone(k)
			}
			var eerr error
			tr.timed(op, "core.explain", "explain", func() { _, eerr = pipe.ExplainQuery(ls.res, q) })
			if eerr != nil {
				return nil, nil, fmt.Errorf("layer pass: explain %s %s: %w", ls.st.spec.id, q, eerr)
			}
		case opWrite:
			var add, retract []ast.Atom
			toggled := -1
			if wl.chain {
				add, retract, toggled = ls.st.chainWrite(d.pick)
			} else {
				add = churnAdd(0, writeSeq)
				writeSeq++
			}
			if ls.cmt == nil {
				ls.cmt = layerCommitter(ctx, pipe, ls, fp, walPath, snapPath, tr, &op)
				if ls.twin, err = pipe.MaintainContext(ctx, ls.st.spec.facts...); err != nil {
					return nil, nil, fmt.Errorf("layer pass: twin: %w", err)
				}
			}
			var res *core.CommitResult
			var cerr error
			tr.timed(op, "core.commit", "write", func() { res, cerr = ls.cmt.Submit(ctx, add, retract, false) })
			if cerr != nil {
				return nil, nil, fmt.Errorf("layer pass: commit %s: %w", ls.st.spec.id, cerr)
			}
			ls.res = res.Result
			tr.timed(op, "incremental.update", "write", func() { _, _, cerr = ls.twin.UpdateContext(ctx, add, retract) })
			if cerr != nil {
				return nil, nil, fmt.Errorf("layer pass: update %s: %w", ls.st.spec.id, cerr)
			}
			ls.st.commitWrite(add, retract, toggled)
		}
	}

	for _, i := range order {
		ls := sessions[i]
		id := ls.st.spec.id
		want := answerText(ls.res)
		op++
		if ls.cmt != nil {
			ls.cmt.CloseWait()
			if m := ls.cmt.Maintainer(); m != nil {
				var payload []byte
				var eerr error
				tr.timed(op, "chase.encode", "retire", func() { payload, eerr = m.EncodeState() })
				if eerr != nil {
					return nil, nil, fmt.Errorf("layer pass: encode %s: %w", id, eerr)
				}
				stateBytes = append(stateBytes, float64(len(payload)))
				h := snapshot.Header{App: appName, Program: fp, Epoch: ls.cmt.Applied()}
				tr.timed(op, "snapshot.write", "retire", func() { eerr = snapshot.Write(snapPath(id), h, payload) })
				if eerr != nil {
					return nil, nil, fmt.Errorf("layer pass: %w", eerr)
				}
			}
		}
		_ = ls.log.Close()
		op++
		got, err := layerRestore(ctx, pipe, id, walPath(id), snapPath(id), tr, op)
		if err != nil {
			return nil, nil, fmt.Errorf("layer pass: restore %s: %w", id, err)
		}
		if got != want {
			mismatches = append(mismatches, fmt.Sprintf("layer pass: session %s restored with different answers", id))
		}
	}
	return stateBytes, mismatches, nil
}

// layerCommitter wires a committer to the session's WAL the way the server
// does: log-before-apply with one group fsync per batch, and compaction to
// a snapshot plus a fresh tail log every compactCommits commits.
func layerCommitter(ctx context.Context, pipe *core.Pipeline, ls *layerSess, fp string, walPath, snapPath func(string) string, tr *tracer, op *uint64) *core.Committer {
	spec := ls.st.spec
	var cmt *core.Committer
	cmt = core.NewCommitter(core.CommitterConfig{
		Standup: func(ctx context.Context) (*incremental.Maintainer, error) {
			return pipe.MaintainContext(ctx, spec.facts...)
		},
		OnLog: func(seq uint64, add, retract []ast.Atom) error {
			var err error
			tr.timed(*op, "wal.append", "core.commit", func() { err = ls.log.Append(wal.Delta{Seq: seq, Add: add, Retract: retract}) })
			if err != nil {
				return err
			}
			tr.timed(*op, "wal.sync", "core.commit", func() { err = ls.log.Sync() })
			return err
		},
		OnApply: func(seq uint64, _ *chase.Result, _ incremental.UpdateStats) int {
			ls.sinceSnap++
			if ls.sinceSnap < compactCommits {
				return 0
			}
			ls.sinceSnap = 0
			payload, err := cmt.Maintainer().EncodeState()
			if err != nil {
				return 0
			}
			h := snapshot.Header{App: appName, Program: fp, Epoch: seq}
			tr.timed(*op, "snapshot.write", "compact", func() { err = snapshot.Write(snapPath(spec.id), h, payload) })
			if err != nil {
				return 0
			}
			l, err := wal.Create(walPath(spec.id), wal.Header{App: appName, Program: fp, Base: spec.facts, StartSeq: seq}, wal.SyncGroup)
			if err != nil {
				return 0
			}
			_ = ls.log.Close()
			ls.log = l
			return 0
		},
	})
	return cmt
}

// layerRestore rebuilds a retired session as the server's restore does and
// returns its answers.
func layerRestore(ctx context.Context, pipe *core.Pipeline, id, walPath, snapPath string, tr *tracer, op uint64) (string, error) {
	var (
		h       snapshot.Header
		payload []byte
		err     error
	)
	tr.timed(op, "snapshot.read", "restore", func() { h, payload, err = snapshot.Read(snapPath) })
	if err == nil {
		var live *chase.Live
		tr.timed(op, "chase.restore", "restore", func() { live, err = chase.RestoreLive(pipe.Program(), chase.Options{}, payload) })
		if err != nil {
			return "", err
		}
		var m *incremental.Maintainer
		tr.timed(op, "incremental.fromlive", "restore", func() { m = incremental.FromLive(live) })
		var rec *wal.Recovered
		tr.timed(op, "wal.replay", "restore", func() { rec, err = wal.Replay(walPath) })
		if err != nil {
			return "", err
		}
		for _, d := range rec.Live() {
			if d.Seq <= h.Epoch {
				continue
			}
			if _, _, err := m.UpdateContext(ctx, d.Add, d.Retract); err != nil {
				return "", err
			}
		}
		res, err := m.Result()
		if err != nil {
			return "", err
		}
		return answerText(res), nil
	}
	if !os.IsNotExist(err) {
		return "", err
	}
	var rec *wal.Recovered
	tr.timed(op, "wal.replay", "restore", func() { rec, err = wal.Replay(walPath) })
	if err != nil {
		return "", err
	}
	var m *incremental.Maintainer
	tr.timed(op, "core.maintain", "restore", func() { m, err = pipe.MaintainContext(ctx, rec.Header.Base...) })
	if err != nil {
		return "", err
	}
	for _, d := range rec.Live() {
		if _, _, err := m.UpdateContext(ctx, d.Add, d.Retract); err != nil {
			return "", err
		}
	}
	res, err := m.Result()
	if err != nil {
		return "", err
	}
	return answerText(res), nil
}

// answerText is a result's answers, sorted, one per line: the form the
// oracle compares (fact ids, and so answer order, legitimately differ
// between an incrementally maintained fixpoint and a fresh chase).
func answerText(res *chase.Result) string {
	var out []string
	for _, id := range res.Answers() {
		out = append(out, res.Store.Get(id).String())
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
