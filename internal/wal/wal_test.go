package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
)

func atom(t testing.TB, src string) ast.Atom {
	t.Helper()
	a, err := parser.ParseAtom(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return a
}

func atoms(t testing.TB, srcs ...string) []ast.Atom {
	out := make([]ast.Atom, 0, len(srcs))
	for _, s := range srcs {
		out = append(out, atom(t, s))
	}
	return out
}

func sameAtoms(a, b []ast.Atom) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func testHeader(t testing.TB) Header {
	return Header{
		App:     "company-control",
		Program: "sha256:deadbeef",
		Base:    atoms(t, `own("a","b",60)`, `own("b","c",80)`),
	}
}

func testDeltas(t testing.TB) []Delta {
	return []Delta{
		{Seq: 1, Add: atoms(t, `own("c","d",55)`)},
		{Seq: 2, Retract: atoms(t, `own("a","b",60)`)},
		// Repeats exercise the dictionary path: own("c","d",55) and the
		// header base atoms are already interned.
		{Seq: 3, Add: atoms(t, `own("a","b",60)`, `own("x","y",10)`), Retract: atoms(t, `own("c","d",55)`)},
	}
}

func writeLog(t testing.TB, dir string, policy SyncPolicy) string {
	t.Helper()
	path := filepath.Join(dir, "s1.wal")
	l, err := Create(path, testHeader(t), policy)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, d := range testDeltas(t) {
		if err := l.Append(d); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

func TestRoundtrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncGroup, SyncPerCommit, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			path := writeLog(t, t.TempDir(), policy)
			r, err := Replay(path)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if r.Truncated {
				t.Fatal("clean log reported truncated")
			}
			h := testHeader(t)
			if r.Header.App != h.App || r.Header.Program != h.Program || !sameAtoms(r.Header.Base, h.Base) {
				t.Fatalf("header mismatch: %+v", r.Header)
			}
			want := testDeltas(t)
			if len(r.Deltas) != len(want) {
				t.Fatalf("got %d deltas, want %d", len(r.Deltas), len(want))
			}
			for i := range want {
				if r.Deltas[i].Seq != want[i].Seq ||
					!sameAtoms(r.Deltas[i].Add, want[i].Add) ||
					!sameAtoms(r.Deltas[i].Retract, want[i].Retract) {
					t.Fatalf("delta %d mismatch: got %+v want %+v", i, r.Deltas[i], want[i])
				}
			}
			if got := r.LastSeq(); got != 3 {
				t.Fatalf("LastSeq = %d, want 3", got)
			}
		})
	}
}

func TestAbortSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s1.wal")
	l, err := Create(path, testHeader(t), SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Delta{Seq: 1, Add: atoms(t, `own("c","d",55)`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Delta{Seq: 2, Add: atoms(t, `own("d","e",55)`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAbort(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Delta{Seq: 3, Add: atoms(t, `own("e","f",55)`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	live := r.Live()
	if len(live) != 2 || live[0].Seq != 1 || live[1].Seq != 3 {
		t.Fatalf("Live() = %+v, want seqs [1 3]", live)
	}
	if got := r.LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
}

// TestCorruptionMatrix truncates the log at every byte offset and flips a
// byte at every offset, asserting replay always yields a valid prefix of
// the uninterrupted log and never an error (past the header) or a mangled
// delta.
func TestCorruptionMatrix(t *testing.T) {
	path := writeLog(t, t.TempDir(), SyncOff)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	// isPrefix checks r's deltas form a prefix of the oracle's.
	isPrefix := func(r *Recovered) bool {
		if len(r.Deltas) > len(oracle.Deltas) {
			return false
		}
		for i, d := range r.Deltas {
			o := oracle.Deltas[i]
			if d.Seq != o.Seq || !sameAtoms(d.Add, o.Add) || !sameAtoms(d.Retract, o.Retract) {
				return false
			}
		}
		return true
	}
	headerEnd := int64(len(magic))
	if p, next, ok := frame(clean, headerEnd); !ok || p[0] != recHeader {
		t.Fatal("cannot locate header record")
	} else {
		headerEnd = next
	}
	// Record boundaries: a cut exactly at one is indistinguishable from a
	// shorter valid log, so Truncated is only required for mid-record cuts.
	boundary := map[int]bool{len(magic): true}
	for pos := int64(len(magic)); ; {
		_, next, ok := frame(clean, pos)
		if !ok {
			break
		}
		boundary[int(next)] = true
		pos = next
	}

	dir := t.TempDir()
	check := func(t *testing.T, data []byte, headerIntact bool) {
		mut := filepath.Join(dir, "mut.wal")
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Replay(mut)
		if !headerIntact {
			// Damage inside magic or the header record may make the whole
			// log unreadable — that is allowed; a readable result must
			// still be a valid prefix.
			if err != nil {
				return
			}
		} else if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if !isPrefix(r) {
			t.Fatalf("recovered deltas are not a prefix of the oracle: %+v", r.Deltas)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut <= len(clean); cut++ {
			check(t, clean[:cut], int64(cut) >= headerEnd)
			if int64(cut) >= headerEnd {
				// A truncated-but-readable log must notice missing bytes.
				mut := filepath.Join(dir, "mut.wal")
				os.WriteFile(mut, clean[:cut], 0o644)
				r, err := Replay(mut)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if cut < len(clean) && !boundary[cut] && !r.Truncated {
					t.Fatalf("cut %d: mid-record truncation not reported", cut)
				}
			}
		}
	})
	t.Run("flip", func(t *testing.T) {
		for off := 0; off < len(clean); off++ {
			data := bytes.Clone(clean)
			data[off] ^= 0x5a
			check(t, data, false)
		}
	})
	t.Run("garbage-tail", func(t *testing.T) {
		data := append(bytes.Clone(clean), 0xff, 0xff, 0xff, 0x7f, 1, 2, 3)
		mut := filepath.Join(dir, "mut.wal")
		os.WriteFile(mut, data, 0o644)
		r, err := Replay(mut)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Truncated || !isPrefix(r) || len(r.Deltas) != len(oracle.Deltas) {
			t.Fatalf("garbage tail: Truncated=%v deltas=%d", r.Truncated, len(r.Deltas))
		}
	})
}

// TestOpenAppend corrupts the tail, replays, resumes appending and checks
// the resumed log replays to prefix + new delta with the dictionary intact.
func TestOpenAppend(t *testing.T) {
	path := writeLog(t, t.TempDir(), SyncOff)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	if err := os.WriteFile(path, clean[:len(clean)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated || len(r.Deltas) != 2 {
		t.Fatalf("Truncated=%v deltas=%d, want torn tail with 2 deltas", r.Truncated, len(r.Deltas))
	}
	l, err := r.OpenAppend(SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	// Re-log seq 3 with a dictionary-hit atom from the header base.
	if err := l.Append(Delta{Seq: 3, Add: atoms(t, `own("a","b",60)`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Truncated || len(r2.Deltas) != 3 {
		t.Fatalf("after resume: Truncated=%v deltas=%d", r2.Truncated, len(r2.Deltas))
	}
	last := r2.Deltas[2]
	if last.Seq != 3 || !sameAtoms(last.Add, atoms(t, `own("a","b",60)`)) {
		t.Fatalf("resumed delta mismatch: %+v", last)
	}
}

// TestOpenAppendLeavesIntactLog: reopening a log whose every byte replayed
// cleanly rewrites nothing — size, bytes and modification time stay as
// they were (the mtime is pinned in the past first, so a truncate of any
// length would show) — while a torn tail is still cut to the valid prefix
// before the first append.
func TestOpenAppendLeavesIntactLog(t *testing.T) {
	path := writeLog(t, t.TempDir(), SyncOff)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	past := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	r, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated {
		t.Fatal("intact log replayed as truncated")
	}
	l, err := r.OpenAppend(SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(past) || fi.Size() != int64(len(clean)) {
		t.Errorf("OpenAppend touched an intact log: size %d (was %d), mtime %v", fi.Size(), len(clean), fi.ModTime())
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
		t.Error("OpenAppend changed an intact log's bytes")
	}
	if err := l.Append(Delta{Seq: 4, Add: atoms(t, `own("y","z",20)`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if r2, err := Replay(path); err != nil || r2.Truncated || len(r2.Deltas) != 4 {
		t.Fatalf("after append to intact log: err=%v deltas=%d", err, len(r2.Deltas))
	}

	// A torn tail: OpenAppend cuts the file back to the valid prefix.
	torn := append(append([]byte{}, clean...), 0x17, 0, 0, 0, 1, 2)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = Replay(path)
	if err != nil || !r.Truncated {
		t.Fatalf("torn log: err=%v, Truncated=%v", err, r != nil && r.Truncated)
	}
	l, err = r.OpenAppend(SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
		t.Errorf("torn tail not cut to the valid prefix: %d bytes, want %d", len(got), len(clean))
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s1.wal")
	l, err := Create(path, testHeader(t), SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(Delta{Seq: 1}); err != ErrClosed {
		t.Fatalf("Append after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v, want ErrClosed", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"group", SyncGroup, false},
		{"per-commit", SyncPerCommit, false},
		{"off", SyncOff, false},
		{"always", 0, true},
		{"", 0, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncPerCommit.String() != "per-commit" || SyncGroup.String() != "group" || SyncOff.String() != "off" {
		t.Fatal("SyncPolicy.String mismatch")
	}
}

func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Replay(filepath.Join(dir, "missing.wal")); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.wal")
	os.WriteFile(bad, []byte("not a wal file"), 0o644)
	if _, err := Replay(bad); err == nil {
		t.Fatal("bad magic: want error")
	}
	empty := filepath.Join(dir, "empty.wal")
	os.WriteFile(empty, magic[:], 0o644)
	if _, err := Replay(empty); err == nil {
		t.Fatal("magic without header: want error")
	}
}

// FuzzWALReplay drives random delta sequences through write+replay and
// random mutations through the prefix property.
func FuzzWALReplay(f *testing.F) {
	f.Add(uint64(3), []byte{0, 1, 2, 3}, -1, byte(0))
	f.Add(uint64(7), []byte{5, 4, 3, 2, 1, 0}, 20, byte(0x5a))
	f.Add(uint64(1), []byte{}, 5, byte(0xff))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte, mutate int, flip byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		// Deterministically derive a delta sequence from ops.
		mk := func(i int, b byte) Delta {
			d := Delta{Seq: uint64(i + 1)}
			n := int(b%3) + 1
			for j := 0; j < n; j++ {
				a := atom(t, fmt.Sprintf(`own("n%d","n%d",%d)`, (int(b)+j)%9, (int(b)*7+j)%9, seed%100))
				if (int(b)+j)%4 == 0 {
					d.Retract = append(d.Retract, a)
				} else {
					d.Add = append(d.Add, a)
				}
			}
			return d
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "f.wal")
		h := Header{App: "fuzz", Program: "p", Base: atoms(t, fmt.Sprintf(`own("b","b",%d)`, seed%50))}
		l, err := Create(path, h, SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		var want []Delta
		for i, b := range ops {
			d := mk(i, b)
			if err := l.Append(d); err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Truncated || len(r.Deltas) != len(want) {
			t.Fatalf("clean replay: Truncated=%v got %d deltas want %d", r.Truncated, len(r.Deltas), len(want))
		}
		for i := range want {
			if r.Deltas[i].Seq != want[i].Seq ||
				!sameAtoms(r.Deltas[i].Add, want[i].Add) ||
				!sameAtoms(r.Deltas[i].Retract, want[i].Retract) {
				t.Fatalf("delta %d mismatch", i)
			}
		}
		// Mutate and require the prefix property.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if mutate >= 0 && mutate < len(data) {
			data[mutate] ^= flip | 1
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			r2, err := Replay(path)
			if err != nil {
				return // header damage: whole log rejected, acceptable
			}
			if len(r2.Deltas) > len(want) {
				t.Fatal("mutation grew the log")
			}
			for i := range r2.Deltas {
				if r2.Deltas[i].Seq != want[i].Seq ||
					!sameAtoms(r2.Deltas[i].Add, want[i].Add) ||
					!sameAtoms(r2.Deltas[i].Retract, want[i].Retract) {
					t.Fatalf("mutated replay: delta %d is not an oracle prefix", i)
				}
			}
		}
	})
}

// TestSyncBatcherSharesFsync drives many concurrent Sync requests against
// one log through a batcher: every caller must return durably (no error),
// and at least some requests must have piggybacked on another's fsync
// (SyncsSaved advances) while flush rounds stay bounded by requests.
func TestSyncBatcherSharesFsync(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(filepath.Join(dir, "s1.wal"), testHeader(t), SyncGroup)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()

	before := GlobalStats()
	b := NewSyncBatcher()
	const callers = 32
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	// Appends are single-writer per log (the committer serializes them);
	// only the Sync requests race, which is the path under test.
	var appendMu sync.Mutex
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			appendMu.Lock()
			err := l.Append(Delta{Seq: uint64(i + 1), Add: atoms(t, fmt.Sprintf(`own("w%d","t",1)`, i))})
			appendMu.Unlock()
			if err != nil {
				errs <- err
				return
			}
			errs <- b.Sync(l)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("batched sync: %v", err)
		}
	}
	after := GlobalStats()
	if got := after.BatchedSyncs - before.BatchedSyncs; got != callers {
		t.Fatalf("BatchedSyncs advanced by %d, want %d", got, callers)
	}
	if after.GroupWindows == before.GroupWindows {
		t.Fatal("no flush round was led")
	}
	windows := after.GroupWindows - before.GroupWindows
	saved := after.SyncsSaved - before.SyncsSaved
	if windows+saved > callers {
		t.Fatalf("accounting overruns requests: windows=%d saved=%d callers=%d", windows, saved, callers)
	}
}

// TestSyncBatcherManyLogs checks a flush round covers several distinct
// logs: all waiters complete, every log's records are durable and
// replayable afterward.
func TestSyncBatcherManyLogs(t *testing.T) {
	dir := t.TempDir()
	const logs = 8
	b := NewSyncBatcher()
	var wg sync.WaitGroup
	paths := make([]string, logs)
	errs := make(chan error, logs)
	for i := 0; i < logs; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.wal", i+1))
		l, err := Create(paths[i], testHeader(t), SyncGroup)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		wg.Add(1)
		go func(l *Log) {
			defer wg.Done()
			defer l.Close()
			for _, d := range testDeltas(t) {
				if err := l.Append(d); err != nil {
					errs <- err
					return
				}
				if err := b.Sync(l); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(l)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("session: %v", err)
		}
	}
	want := testDeltas(t)
	for _, p := range paths {
		r, err := Replay(p)
		if err != nil {
			t.Fatalf("Replay %s: %v", p, err)
		}
		if len(r.Deltas) != len(want) {
			t.Fatalf("%s: %d deltas, want %d", p, len(r.Deltas), len(want))
		}
	}
}

// TestSyncBatcherClosedLog: a closed log's waiters get ErrClosed while
// other logs in the same round still flush cleanly.
func TestSyncBatcherClosedLog(t *testing.T) {
	dir := t.TempDir()
	closed, err := Create(filepath.Join(dir, "dead.wal"), testHeader(t), SyncGroup)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := closed.Append(testDeltas(t)[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := closed.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	live, err := Create(filepath.Join(dir, "live.wal"), testHeader(t), SyncGroup)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer live.Close()
	if err := live.Append(testDeltas(t)[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	b := NewSyncBatcher()
	if err := b.Sync(closed); err != ErrClosed {
		t.Fatalf("closed log sync = %v, want ErrClosed", err)
	}
	if err := b.Sync(live); err != nil {
		t.Fatalf("live log sync: %v", err)
	}
}
