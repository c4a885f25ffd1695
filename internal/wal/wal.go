// Package wal implements the per-session write-ahead log of the serving
// layer: an append-only, checksummed record stream that makes a live
// reasoning session durable across eviction and process crashes.
//
// A log begins with a header record naming the compiled program the session
// runs on (the application registry name plus a fingerprint of the compiled
// rules, so replay refuses to resurrect a session against different rules)
// and the session's initial extensional base facts. Every committed write
// batch follows as one delta record: a monotonically increasing commit
// sequence number and the merged add/retract atom lists exactly as they
// were handed to the incremental maintainer. Because the maintainer is
// deterministic, replaying the same deltas in the same order against the
// same program rebuilds a byte-identical engine — same fact ids, same
// provenance, same proofs. A batch whose application failed after it was
// logged is followed by an abort record, so replay skips it instead of
// re-poisoning the restored session.
//
// # Record format
//
// The file opens with an 8-byte magic. Each record is
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// in little-endian byte order. The payload's first byte is the record type;
// the rest is type-specific, built from uvarints and raw bytes. Atoms are
// written in their canonical concrete syntax through a per-log string
// dictionary: the first occurrence of an atom carries its bytes and
// implicitly assigns the next dense id, later occurrences are a single
// uvarint — the same interning idea the fact store uses for values, applied
// at the log layer so long-lived sessions that toggle the same facts pay
// for each atom's text once.
//
// # Corruption and torn writes
//
// Replay reads the longest valid prefix: a truncated final record, a length
// that overruns the file, or a checksum mismatch ends replay at the last
// record that decoded cleanly (Recovered.Truncated reports that damage was
// discarded). This is exactly the crash contract of log-structured storage:
// an interrupted append can only damage the tail, and the tail was never
// acknowledged. OpenAppend truncates the damaged bytes and resumes
// appending after the valid prefix.
//
// # Fsync policy
//
// SyncPerCommit makes every Append durable before it returns (one
// fsync per committed batch); SyncGroup leaves syncing to the caller's
// explicit Sync calls, which the serving layer issues once per group
// commit; SyncOff never syncs and leaves durability to the kernel's
// writeback (crash may lose the last seconds of acknowledged writes, but
// the prefix property still holds). Sync counts are reported on
// GlobalStats for the /stats endpoint.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/parser"
)

// magic identifies a session WAL file and its format version.
var magic = [8]byte{'E', 'K', 'G', 'W', 'A', 'L', '0', '1'}

// Record types.
const (
	recHeader byte = 1
	recDelta  byte = 2
	recAbort  byte = 3
)

// maxRecord bounds a single record payload; a length prefix beyond it is
// treated as tail corruption rather than an allocation request.
const maxRecord = 64 << 20

// SyncPolicy selects when an appended record is flushed to stable storage.
type SyncPolicy int

const (
	// SyncGroup defers fsync to explicit Sync calls — the serving layer
	// calls Sync once per group commit, so one fsync covers every write
	// coalesced into the batch.
	SyncGroup SyncPolicy = iota
	// SyncPerCommit fsyncs inside every Append before it returns.
	SyncPerCommit
	// SyncOff never fsyncs; durability is whatever the kernel's writeback
	// provides.
	SyncOff
)

// ParseSyncPolicy parses the cmd/serve -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "per-commit":
		return SyncPerCommit, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want group, per-commit or off)", s)
}

// String renders the policy as its flag value.
func (p SyncPolicy) String() string {
	switch p {
	case SyncPerCommit:
		return "per-commit"
	case SyncOff:
		return "off"
	default:
		return "group"
	}
}

// Header is the first record of every log: which compiled application the
// session runs on and the extensional base it was opened with.
type Header struct {
	// App is the application registry name.
	App string
	// Program fingerprints the compiled rules; replay refuses a log whose
	// fingerprint does not match the currently compiled program.
	Program string
	// Base is the session's initial extensional fact list.
	Base []ast.Atom
	// StartSeq is the commit sequence number the log starts after: 0 for a
	// log that records the session from its beginning, E for a log recreated
	// by compaction against a snapshot at epoch E. A log with StartSeq > 0
	// is a tail — replaying it from Base alone would silently skip the
	// compacted prefix, so restore refuses unless the snapshot is readable.
	StartSeq uint64
}

// Delta is one committed write batch: the merged add/retract lists applied
// to the maintainer under commit sequence number Seq.
type Delta struct {
	Seq     uint64
	Add     []ast.Atom
	Retract []ast.Atom
}

// Stats is the package-wide WAL accounting snapshot reported on /stats.
type Stats struct {
	// Appends counts records written (header, delta and abort).
	Appends uint64 `json:"appends"`
	// Syncs counts fsync calls actually issued.
	Syncs uint64 `json:"syncs"`
	// Bytes counts bytes appended across all logs.
	Bytes uint64 `json:"bytes"`
	// Replays counts Replay calls that decoded a valid header.
	Replays uint64 `json:"replays"`
	// GroupWindows counts cross-session flush rounds led by one
	// SyncBatcher caller on behalf of every log pending at that moment.
	GroupWindows uint64 `json:"groupWindows"`
	// BatchedSyncs counts sync requests routed through a SyncBatcher.
	BatchedSyncs uint64 `json:"batchedSyncs"`
	// SyncsSaved counts batched requests that piggybacked on another
	// request's fsync of the same log instead of issuing their own —
	// the fsyncs the cross-session batching eliminated.
	SyncsSaved uint64 `json:"syncsSaved"`
}

var global struct {
	appends      atomic.Uint64
	syncs        atomic.Uint64
	bytes        atomic.Uint64
	replays      atomic.Uint64
	groupWindows atomic.Uint64
	batchedSyncs atomic.Uint64
	syncsSaved   atomic.Uint64
}

// GlobalStats snapshots the process-wide WAL counters.
func GlobalStats() Stats {
	return Stats{
		Appends:      global.appends.Load(),
		Syncs:        global.syncs.Load(),
		Bytes:        global.bytes.Load(),
		Replays:      global.replays.Load(),
		GroupWindows: global.groupWindows.Load(),
		BatchedSyncs: global.batchedSyncs.Load(),
		SyncsSaved:   global.syncsSaved.Load(),
	}
}

// ErrClosed is returned by appends to a closed log (e.g. a session evicted
// while a late write was still in flight).
var ErrClosed = errors.New("wal: log is closed")

// Log is an open, appendable session WAL. Methods are safe for concurrent
// use, though the serving layer funnels all appends through one committer
// goroutine per session.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	policy SyncPolicy
	// dict maps an atom's canonical string to its 1-based dictionary id.
	dict   map[string]uint64
	dirty  bool // appended since the last sync
	closed bool
}

// Create creates a fresh log at path, writes the header record and makes
// the file durable (unless the policy is SyncOff). An existing file at path
// is truncated: session ids are never reused, so a leftover can only be
// damage from a previous crash of the same session id space.
func Create(path string, h Header, policy SyncPolicy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	l := &Log{f: f, path: path, policy: policy, dict: map[string]uint64{}}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: write magic: %w", err)
	}
	global.bytes.Add(uint64(len(magic)))
	var p payload
	p.byte(recHeader)
	p.bytes([]byte(h.App))
	p.bytes([]byte(h.Program))
	p.atoms(l.dict, h.Base)
	p.uvarint(h.StartSeq)
	if err := l.append(p); err != nil {
		f.Close()
		return nil, err
	}
	// The header must survive a crash even under the group policy: it is
	// written once, before any commit is acknowledged against it.
	if policy != SyncOff {
		if err := l.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

// Append logs one committed delta. Under SyncPerCommit the record is
// durable when Append returns; under SyncGroup the caller issues Sync once
// per group commit; under SyncOff durability is best-effort.
func (l *Log) Append(d Delta) error {
	var p payload
	p.byte(recDelta)
	p.uvarint(d.Seq)
	p.atoms(l.dictLocked(), d.Add)
	p.atoms(l.dict, d.Retract)
	return l.appendPolicy(p)
}

// AppendAbort marks the delta logged under seq as never applied: the batch
// failed after it was logged, and replay must skip it.
func (l *Log) AppendAbort(seq uint64) error {
	var p payload
	p.byte(recAbort)
	p.uvarint(seq)
	return l.appendPolicy(p)
}

// dictLocked returns the dictionary; encoding happens outside l.mu but the
// serving layer serializes appends per log, so the map is single-writer.
func (l *Log) dictLocked() map[string]uint64 { return l.dict }

func (l *Log) appendPolicy(p payload) error {
	if err := l.append(p); err != nil {
		return err
	}
	if l.policy == SyncPerCommit {
		return l.Sync()
	}
	return nil
}

// append frames and writes one record.
func (l *Log) append(p payload) error {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p.buf)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(p.buf))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.f.Write(frame[:]); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.f.Write(p.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.dirty = true
	global.appends.Add(1)
	global.bytes.Add(uint64(len(frame) + len(p.buf)))
	return nil
}

// Sync flushes appended records to stable storage. It is a no-op when
// nothing was appended since the last sync or the policy is SyncOff.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.dirty || l.policy == SyncOff {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	global.syncs.Add(1)
	return nil
}

// SyncBatcher coalesces fsyncs across sessions. The per-session group
// committer already amortizes one fsync over every write coalesced into a
// commit window, but concurrent sessions each still pay their own: N busy
// sessions cost N fsyncs per window even though the device serializes them
// anyway. A SyncBatcher funnels those through a lazy leader — the first
// caller to arrive while no flush is running flushes every pending log (one
// fsync per distinct log, shared by all of that log's waiters) and keeps
// flushing while new requests pile up behind it; everyone else parks until
// the round covering their log completes. Callers for the same log that
// land in one window share a single fsync, which is the cross-session
// saving the SyncsSaved counter reports.
//
// Durability is unchanged: Sync returns only after an fsync that began
// after the caller's records were appended has completed, exactly the
// guarantee of calling Log.Sync directly.
type SyncBatcher struct {
	mu      sync.Mutex
	leading bool
	pending map[*Log]*syncWait
}

// syncWait is one pending log's flush rendezvous: every caller for that log
// in the current window blocks on done and shares err.
type syncWait struct {
	done chan struct{}
	err  error
}

// NewSyncBatcher returns an empty batcher; the serving layer creates one per
// process when the group sync policy is active.
func NewSyncBatcher() *SyncBatcher {
	return &SyncBatcher{pending: map[*Log]*syncWait{}}
}

// Sync makes every record appended to l before the call durable, combining
// the fsync with other sessions' concurrent requests when possible.
func (b *SyncBatcher) Sync(l *Log) error {
	global.batchedSyncs.Add(1)
	b.mu.Lock()
	w, joined := b.pending[l]
	if !joined {
		w = &syncWait{done: make(chan struct{})}
		b.pending[l] = w
	} else {
		global.syncsSaved.Add(1)
	}
	if b.leading {
		// A leader is flushing; it re-checks pending before stepping down,
		// so this entry is guaranteed a round. Park until it completes.
		b.mu.Unlock()
		<-w.done
		return w.err
	}
	b.leading = true
	for len(b.pending) > 0 {
		batch := b.pending
		b.pending = map[*Log]*syncWait{}
		b.mu.Unlock()
		global.groupWindows.Add(1)
		for log, bw := range batch {
			bw.err = log.Sync()
			close(bw.done)
		}
		b.mu.Lock()
	}
	b.leading = false
	b.mu.Unlock()
	return w.err
}

// Close syncs (policy permitting) and closes the file. Appends after Close
// return ErrClosed; Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.dirty && l.policy != SyncOff {
		if serr := l.f.Sync(); serr == nil {
			global.syncs.Add(1)
		} else {
			err = serr
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the file path the log appends to.
func (l *Log) Path() string { return l.path }

// payload builds one record payload.
type payload struct{ buf []byte }

func (p *payload) byte(b byte) { p.buf = append(p.buf, b) }

func (p *payload) uvarint(v uint64) {
	p.buf = binary.AppendUvarint(p.buf, v)
}

func (p *payload) bytes(b []byte) {
	p.uvarint(uint64(len(b)))
	p.buf = append(p.buf, b...)
}

// atoms encodes an atom list against the log dictionary: known atoms as
// their 1-based id, new atoms as id 0 followed by their canonical bytes
// (assigning the next dense id).
func (p *payload) atoms(dict map[string]uint64, list []ast.Atom) {
	p.uvarint(uint64(len(list)))
	for _, a := range list {
		key := a.String()
		if id, ok := dict[key]; ok {
			p.uvarint(id)
			continue
		}
		p.uvarint(0)
		p.bytes([]byte(key))
		dict[key] = uint64(len(dict) + 1)
	}
}

// Recovered is the result of replaying a log: the decoded header, every
// committed delta of the valid prefix in commit order, and enough state to
// resume appending after the prefix.
type Recovered struct {
	Header Header
	// Deltas lists the committed write batches in commit order, including
	// aborted ones; Aborted marks the sequence numbers replay must skip.
	Deltas  []Delta
	Aborted map[uint64]bool
	// Truncated reports that damaged or torn tail bytes were discarded.
	Truncated bool

	path   string
	offset int64    // end of the valid prefix
	dict   []string // dictionary state at the end of the prefix
}

// LastSeq returns the highest commit sequence number the log accounts for
// (the header's StartSeq when no delta was ever logged). Aborted sequence
// numbers count: they were issued.
func (r *Recovered) LastSeq() uint64 {
	max := r.Header.StartSeq
	for _, d := range r.Deltas {
		if d.Seq > max {
			max = d.Seq
		}
	}
	for seq := range r.Aborted {
		if seq > max {
			max = seq
		}
	}
	return max
}

// Live returns the deltas replay should apply: the committed prefix minus
// aborted batches, in commit order.
func (r *Recovered) Live() []Delta {
	out := make([]Delta, 0, len(r.Deltas))
	for _, d := range r.Deltas {
		if !r.Aborted[d.Seq] {
			out = append(out, d)
		}
	}
	return out
}

// OpenAppend reopens the log for appending after its valid prefix with the
// recovered dictionary, so a restored session keeps writing the same file.
// A damaged tail (Truncated) is cut off first; an intact log is not
// rewritten.
func (r *Recovered) OpenAppend(policy SyncPolicy) (*Log, error) {
	f, err := os.OpenFile(r.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen: %w", err)
	}
	if r.Truncated {
		if err := f.Truncate(r.offset); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate damaged tail: %w", err)
		}
	}
	if _, err := f.Seek(r.offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	dict := make(map[string]uint64, len(r.dict))
	for i, s := range r.dict {
		dict[s] = uint64(i + 1)
	}
	return &Log{f: f, path: r.path, policy: policy, dict: dict}, nil
}

// Replay reads the longest valid prefix of the log at path. It fails only
// when the file cannot be read at all or its header is unreadable — there
// is no session to restore without one; tail damage is reported through
// Recovered.Truncated instead of an error.
func Replay(path string) (*Recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("wal: %s: bad magic", path)
	}
	r := &Recovered{Aborted: map[uint64]bool{}, path: path}
	dec := decoder{}
	pos := int64(len(magic))
	sawHeader := false
	for {
		payload, next, ok := frame(data, pos)
		if !ok {
			r.Truncated = next != int64(len(data)) || pos != int64(len(data))
			break
		}
		if err := dec.record(payload, r, sawHeader); err != nil {
			// A record that frames correctly but does not decode is
			// corruption like any other: the prefix before it stands.
			r.Truncated = true
			break
		}
		sawHeader = true
		pos = next
		r.offset = pos
	}
	if !sawHeader {
		return nil, fmt.Errorf("wal: %s: no readable header record", path)
	}
	r.dict = dec.dict
	global.replays.Add(1)
	return r, nil
}

// frame extracts one record payload at pos, returning (payload, next
// offset, true) or (nil, end-of-valid-bytes, false) on a torn or corrupt
// frame.
func frame(data []byte, pos int64) ([]byte, int64, bool) {
	if pos+8 > int64(len(data)) {
		return nil, pos, false
	}
	n := int64(binary.LittleEndian.Uint32(data[pos : pos+4]))
	sum := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
	if n > maxRecord || pos+8+n > int64(len(data)) {
		return nil, pos, false
	}
	payload := data[pos+8 : pos+8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, pos, false
	}
	return payload, pos + 8 + n, true
}

// decoder decodes record payloads, growing the dictionary as atom
// definitions stream past.
type decoder struct {
	dict  []string
	atoms []ast.Atom // parsed form, parallel to dict
}

func (d *decoder) record(p []byte, r *Recovered, sawHeader bool) error {
	if len(p) == 0 {
		return errors.New("empty record")
	}
	typ, p := p[0], p[1:]
	switch typ {
	case recHeader:
		if sawHeader {
			return errors.New("duplicate header record")
		}
		app, p, err := readBytes(p)
		if err != nil {
			return err
		}
		prog, p, err := readBytes(p)
		if err != nil {
			return err
		}
		base, p, err := d.readAtoms(p)
		if err != nil {
			return err
		}
		// StartSeq was added for compaction; logs written before it simply
		// end here and read as StartSeq 0 (a from-the-beginning log).
		var startSeq uint64
		if len(p) != 0 {
			if startSeq, p, err = readUvarint(p); err != nil {
				return err
			}
		}
		if len(p) != 0 {
			return errors.New("trailing bytes in header record")
		}
		r.Header = Header{App: string(app), Program: string(prog), Base: base, StartSeq: startSeq}
	case recDelta:
		if !sawHeader {
			return errors.New("delta before header")
		}
		seq, p, err := readUvarint(p)
		if err != nil {
			return err
		}
		add, p, err := d.readAtoms(p)
		if err != nil {
			return err
		}
		retract, p, err := d.readAtoms(p)
		if err != nil {
			return err
		}
		if len(p) != 0 {
			return errors.New("trailing bytes in delta record")
		}
		r.Deltas = append(r.Deltas, Delta{Seq: seq, Add: add, Retract: retract})
	case recAbort:
		if !sawHeader {
			return errors.New("abort before header")
		}
		seq, p, err := readUvarint(p)
		if err != nil {
			return err
		}
		if len(p) != 0 {
			return errors.New("trailing bytes in abort record")
		}
		r.Aborted[seq] = true
	default:
		return fmt.Errorf("unknown record type %d", typ)
	}
	return nil
}

func (d *decoder) readAtoms(p []byte) ([]ast.Atom, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) { // each atom needs at least one byte
		return nil, nil, errors.New("atom count overruns record")
	}
	out := make([]ast.Atom, 0, n)
	for i := uint64(0); i < n; i++ {
		var id uint64
		id, p, err = readUvarint(p)
		if err != nil {
			return nil, nil, err
		}
		if id == 0 {
			var raw []byte
			raw, p, err = readBytes(p)
			if err != nil {
				return nil, nil, err
			}
			a, err := parser.ParseAtom(string(raw))
			if err != nil {
				return nil, nil, fmt.Errorf("atom %q: %w", raw, err)
			}
			if !a.IsGround() {
				return nil, nil, fmt.Errorf("atom %q: not ground", raw)
			}
			d.dict = append(d.dict, string(raw))
			d.atoms = append(d.atoms, a)
			out = append(out, a)
			continue
		}
		if id > uint64(len(d.atoms)) {
			return nil, nil, fmt.Errorf("atom id %d beyond dictionary (%d entries)", id, len(d.atoms))
		}
		out = append(out, d.atoms[id-1])
	}
	return out, p, nil
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errors.New("bad uvarint")
	}
	return v, p[n:], nil
}

func readBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, errors.New("byte string overruns record")
	}
	return p[:n], p[n:], nil
}
