package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/incremental"
)

// This file implements group commit for session mutations: a per-session
// write queue whose single leader goroutine coalesces concurrently arriving
// add/retract requests into one merged maintainer delta, logs it (WAL hook),
// applies it under one maintainer lock acquisition, and fans the shared
// epoch and result back to every waiter. Under write pressure the cost of a
// fixpoint repair and an fsync is paid once per batch instead of once per
// request; under light load a batch is a single request and nothing is
// slower.
//
// Merging preserves sequential semantics exactly: the merged delta applied
// once yields the same live instance as applying each request's delta in
// submission order (see mergeBatch). Requests that would fail on their own
// (non-ground atoms, retracting a derived fact) fail individually with
// their own error and do not poison the batch; a request pattern that
// cannot be expressed in one merged delta (retracting an atom an earlier
// request in the same batch adds) splits the batch at that point and the
// tail commits as the next batch — still in order, still exact.

// ErrQueueFull is returned by Submit when the session's write queue is at
// capacity. It is the only condition the serving layer maps to 429: with
// group commit, contention coalesces instead of bouncing.
var ErrQueueFull = errors.New("core: session write queue is full")

// ErrCommitterClosed is returned by Submit after Close (e.g. the session
// was evicted while the request was in flight).
var ErrCommitterClosed = errors.New("core: committer is closed")

// ErrEpochUnknown is returned by WaitApplied for an epoch that was never
// issued by this committer — the serving layer maps it to 409.
var ErrEpochUnknown = errors.New("core: epoch was never issued")

// CommitResult is what a write observes once its batch commits.
type CommitResult struct {
	// Seq is the commit sequence number — the epoch token. Every write
	// coalesced into one batch observes the same Seq.
	Seq uint64
	// Result is the repaired fixpoint after the batch applied; nil for
	// async submissions, which return at log time.
	Result *chase.Result
	// Stats are the batch's update statistics, shared by all its writes.
	Stats incremental.UpdateStats
	// Batch is the number of writes coalesced into this commit.
	Batch int
	// Invalidated is the OnApply hook's return value (the serving layer
	// reports invalidated explanation-cache entries through it).
	Invalidated int
}

// CommitterConfig wires a Committer to its session.
type CommitterConfig struct {
	// Queue bounds pending writes; Submit returns ErrQueueFull beyond it.
	// Defaults to 64.
	Queue int
	// Window is how long the leader keeps collecting writes after the
	// first one of a batch arrives. 0 commits whatever is queued when the
	// leader gets to it — the classic group-commit policy: no added
	// latency when idle, large batches under pressure.
	Window time.Duration
	// ApplyTimeout bounds maintainer stand-up plus batch application.
	// Applies run detached from request contexts (a waiter hanging up
	// must not poison the fixpoint mid-repair), so this is the only bound.
	// 0 means no bound.
	ApplyTimeout time.Duration
	// StartSeq is the last sequence number already committed (from WAL
	// replay when restoring); issuance continues at StartSeq+1.
	StartSeq uint64
	// ApplyLock, when set, is write-held around each batch application.
	// Results handed to waiters share the maintainer's grow-only store, so
	// the serving layer renders responses under the read side: renders see
	// only quiescent stores, and an in-flight repair is the only thing a
	// reader ever waits for.
	ApplyLock *sync.RWMutex
	// Maintainer is the session's live maintainer when it already exists
	// (restored sessions); otherwise Standup builds it on the first batch.
	Maintainer *incremental.Maintainer
	// Standup builds the maintainer lazily on first write. A failed
	// stand-up fails that batch but is retried by the next one.
	Standup func(ctx context.Context) (*incremental.Maintainer, error)
	// OnLog, when set, durably logs the merged batch delta before it is
	// applied (log-before-apply). An error fails the whole batch.
	OnLog func(seq uint64, add, retract []ast.Atom) error
	// OnAbort, when set, records that a logged batch failed to apply so
	// replay skips it.
	OnAbort func(seq uint64)
	// Publish, when set, runs after a batch applies while ApplyLock is still
	// write-held: the serving layer swaps in the new (result, epoch) pair
	// there, so a reader holding the read side never pairs a result with a
	// store that a later batch has already mutated.
	Publish func(seq uint64, res *chase.Result)
	// OnApply, when set, runs after Publish once ApplyLock is released (the
	// serving layer bumps its counters, invalidates explanation caches and
	// compacts); its return value is fanned out as CommitResult.Invalidated.
	OnApply func(seq uint64, res *chase.Result, stats incremental.UpdateStats) int
}

// Committer is a per-session group-commit pipeline. Submit is safe for
// arbitrary concurrent use; one leader goroutine (started on first write)
// owns the maintainer and applies batches in order.
type Committer struct {
	cfg       CommitterConfig
	queue     chan *writeReq
	stop      chan struct{}
	startOnce sync.Once
	// leaderDone closes when the leader goroutine exits; started reports
	// whether one was ever launched. Together they let CloseWait observe
	// quiescence.
	leaderDone chan struct{}
	started    atomic.Bool

	mu        sync.Mutex
	mnt       *incremental.Maintainer
	nextSeq   uint64
	issued    uint64
	applied   uint64
	appliedCh chan struct{}
	closed    bool
}

type writeReq struct {
	add, retract []ast.Atom
	async        bool
	logged       chan logOutcome // buffered 1; async waiters return here
	done         chan doneOutcome
	failed       error // set during merge when the request is invalid alone
}

type logOutcome struct {
	seq uint64
	err error
}

type doneOutcome struct {
	res *CommitResult
	err error
}

// NewCommitter builds a committer; the leader goroutine starts lazily on
// the first Submit.
func NewCommitter(cfg CommitterConfig) *Committer {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	return &Committer{
		cfg:        cfg,
		queue:      make(chan *writeReq, cfg.Queue),
		stop:       make(chan struct{}),
		leaderDone: make(chan struct{}),
		mnt:        cfg.Maintainer,
		nextSeq:    cfg.StartSeq + 1,
		issued:     cfg.StartSeq,
		applied:    cfg.StartSeq,
		appliedCh:  make(chan struct{}),
	}
}

// Submit enqueues one write and waits for its outcome. Synchronous
// submissions return once their batch has applied, with the shared
// CommitResult. Async submissions return as soon as the batch is durably
// logged, with only Seq set — the epoch token the caller can later wait on.
// A dead ctx abandons the wait (the commit itself proceeds detached) and
// returns the typed chase context error.
func (c *Committer) Submit(ctx context.Context, add, retract []ast.Atom, async bool) (*CommitResult, error) {
	req := &writeReq{
		add:     add,
		retract: retract,
		async:   async,
		logged:  make(chan logOutcome, 1),
		done:    make(chan doneOutcome, 1),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCommitterClosed
	}
	select {
	case c.queue <- req:
	default:
		c.mu.Unlock()
		commitGlobal.rejected.Add(1)
		return nil, ErrQueueFull
	}
	c.mu.Unlock()
	commitGlobal.writes.Add(1)
	if async {
		commitGlobal.async.Add(1)
	}
	maxU64(&commitGlobal.queueHighWater, uint64(len(c.queue)))
	c.startOnce.Do(func() {
		c.started.Store(true)
		go c.run()
	})
	if async {
		select {
		case lo := <-req.logged:
			if lo.err != nil {
				return nil, lo.err
			}
			return &CommitResult{Seq: lo.seq}, nil
		case <-ctx.Done():
			return nil, chase.ContextErr(ctx)
		}
	}
	select {
	case do := <-req.done:
		return do.res, do.err
	case <-ctx.Done():
		return nil, chase.ContextErr(ctx)
	}
}

// Applied returns the last applied commit sequence number.
func (c *Committer) Applied() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied
}

// WaitApplied blocks until the state has moved at least past epoch (every
// batch with Seq <= epoch has been applied or aborted), the context dies
// (typed chase error), or the epoch turns out never to have been issued
// (ErrEpochUnknown).
func (c *Committer) WaitApplied(ctx context.Context, epoch uint64) error {
	for {
		c.mu.Lock()
		if c.applied >= epoch {
			c.mu.Unlock()
			return nil
		}
		if epoch > c.issued {
			c.mu.Unlock()
			return fmt.Errorf("%w: epoch %d", ErrEpochUnknown, epoch)
		}
		ch := c.appliedCh
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return chase.ContextErr(ctx)
		case <-c.stop:
			return ErrCommitterClosed
		}
	}
}

// Close stops the committer: later Submits fail with ErrCommitterClosed,
// queued-but-uncommitted writes fail, the leader exits after its current
// batch. Idempotent.
func (c *Committer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.mu.Unlock()
}

// CloseWait closes the committer and blocks until the leader goroutine has
// exited — no batch is being logged or applied afterwards, and Applied()
// is the exact commit sequence number of the maintainer's state. This is
// the quiescence point the serving layer snapshots at (eviction, drain):
// serializing the maintainer concurrently with an in-flight apply could
// pair state that already includes commit N with an epoch header saying
// N-1, and the restore would replay N on top of itself.
func (c *Committer) CloseWait() {
	c.Close()
	if c.started.Load() {
		<-c.leaderDone
	}
}

// Pending returns the current write-queue depth: writes accepted by Submit
// that the leader has not yet picked up.
func (c *Committer) Pending() int { return len(c.queue) }

// Maintainer returns the session's maintainer, nil before the first batch
// stood it up.
func (c *Committer) Maintainer() *incremental.Maintainer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mnt
}

// run is the leader loop: pick up the oldest write, coalesce, commit.
func (c *Committer) run() {
	defer close(c.leaderDone)
	for {
		select {
		case <-c.stop:
			c.failQueued()
			return
		case req := <-c.queue:
			c.commit(req)
		}
	}
}

// failQueued drains the queue after Close, failing every pending write.
func (c *Committer) failQueued() {
	for {
		select {
		case req := <-c.queue:
			req.fail(ErrCommitterClosed)
		default:
			return
		}
	}
}

func (r *writeReq) fail(err error) {
	r.logged <- logOutcome{err: err}
	r.done <- doneOutcome{err: err}
}

// commit collects a batch starting at first and applies it; a split (see
// mergeBatch) commits the tail as follow-up batches, still in order.
func (c *Committer) commit(first *writeReq) {
	pending := c.collect(first)
	ctx, cancel := c.applyCtx()
	defer cancel()
	mnt, err := c.standup(ctx)
	if err != nil {
		for _, r := range pending {
			r.fail(err)
		}
		return
	}
	for len(pending) > 0 {
		var batch []*writeReq
		var add, retract []ast.Atom
		batch, add, retract, pending = mergeBatch(mnt, pending)
		if len(pending) > 0 {
			commitGlobal.splits.Add(1)
		}
		c.apply(ctx, mnt, batch, add, retract)
	}
}

// collect gathers the current batch: everything already queued, plus —
// under a positive Window — whatever else arrives before it elapses.
func (c *Committer) collect(first *writeReq) []*writeReq {
	pending := []*writeReq{first}
	if c.cfg.Window > 0 {
		t := time.NewTimer(c.cfg.Window)
		defer t.Stop()
		for {
			select {
			case r := <-c.queue:
				pending = append(pending, r)
			case <-t.C:
				return pending
			case <-c.stop:
				return pending
			}
		}
	}
	for {
		select {
		case r := <-c.queue:
			pending = append(pending, r)
		default:
			return pending
		}
	}
}

func (c *Committer) applyCtx() (context.Context, context.CancelFunc) {
	if c.cfg.ApplyTimeout > 0 {
		return context.WithTimeout(context.Background(), c.cfg.ApplyTimeout)
	}
	return context.WithCancel(context.Background())
}

// standup returns the session maintainer, building it on first use.
func (c *Committer) standup(ctx context.Context) (*incremental.Maintainer, error) {
	c.mu.Lock()
	mnt := c.mnt
	c.mu.Unlock()
	if mnt != nil {
		return mnt, nil
	}
	if c.cfg.Standup == nil {
		return nil, errors.New("core: committer has no maintainer and no Standup")
	}
	mnt, err := c.cfg.Standup(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.mnt = mnt
	c.mu.Unlock()
	return mnt, nil
}

// apply logs and applies one merged batch, fanning the outcome to every
// write in it.
func (c *Committer) apply(ctx context.Context, mnt *incremental.Maintainer, batch []*writeReq, add, retract []ast.Atom) {
	if len(batch) == 0 {
		return
	}
	c.mu.Lock()
	seq := c.nextSeq
	c.nextSeq++
	c.mu.Unlock()

	// Log before apply: once OnLog returns, the batch is durable and the
	// async waiters may be released with their epoch token.
	if c.cfg.OnLog != nil {
		if err := c.cfg.OnLog(seq, add, retract); err != nil {
			for _, r := range batch {
				r.fail(fmt.Errorf("core: logging commit %d: %w", seq, err))
			}
			return
		}
	}
	c.mu.Lock()
	c.issued = seq
	c.mu.Unlock()
	for _, r := range batch {
		r.logged <- logOutcome{seq: seq}
	}

	if c.cfg.ApplyLock != nil {
		c.cfg.ApplyLock.Lock()
	}
	res, stats, err := mnt.UpdateContext(ctx, add, retract)
	if err == nil && c.cfg.Publish != nil {
		c.cfg.Publish(seq, res)
	}
	if c.cfg.ApplyLock != nil {
		c.cfg.ApplyLock.Unlock()
	}
	if err != nil {
		if c.cfg.OnAbort != nil {
			c.cfg.OnAbort(seq)
		}
		commitGlobal.aborts.Add(1)
		c.markApplied(seq)
		for _, r := range batch {
			r.done <- doneOutcome{err: err}
		}
		return
	}
	invalidated := 0
	if c.cfg.OnApply != nil {
		invalidated = c.cfg.OnApply(seq, res, stats)
	}
	c.markApplied(seq)
	commitGlobal.commits.Add(1)
	commitGlobal.batched.Add(uint64(len(batch)))
	maxU64(&commitGlobal.maxBatch, uint64(len(batch)))
	out := &CommitResult{
		Seq:         seq,
		Result:      res,
		Stats:       stats,
		Batch:       len(batch),
		Invalidated: invalidated,
	}
	for _, r := range batch {
		r.done <- doneOutcome{res: out}
	}
}

// markApplied advances the applied watermark and wakes epoch waiters. An
// aborted batch advances it too: the state has moved past that epoch (the
// batch will never apply), so waiting on it must not hang.
func (c *Committer) markApplied(seq uint64) {
	c.mu.Lock()
	if seq > c.applied {
		c.applied = seq
		close(c.appliedCh)
		c.appliedCh = make(chan struct{})
	}
	c.mu.Unlock()
}

// atomState tracks one atom's fate across the batch being merged.
type atomState struct {
	atom ast.Atom
	// final: 0 untouched (validation-only entry), 1 added, 2 retracted.
	final int
	// everRetracted forces the atom into the merged retract list even when
	// it is finally added, so it gets a fresh fact id exactly as the
	// sequential retract-then-add would produce.
	everRetracted bool
}

// mergeBatch folds as many pending requests as possible into one merged
// delta whose single application is equivalent to applying each request
// sequentially in order. It returns the merged requests (invalid ones
// already failed and excluded), the merged add/retract lists (deterministic
// first-touch order), and the unmerged tail (non-empty only on a split).
//
// Per-request validation mirrors Maintainer.UpdateContext exactly —
// non-ground atoms and retractions of derived facts fail that request alone
// (its own error is delivered, it contributes nothing to the batch) — with
// one batch-aware extension: a retraction of an atom that is derived in the
// store but promoted to base by an earlier request in this batch is legal
// sequentially, cannot be expressed in one merged delta, and therefore
// splits the batch before the retracting request; the tail commits as the
// next batch after this one applied.
func mergeBatch(mnt *incremental.Maintainer, pending []*writeReq) (batch []*writeReq, add, retract []ast.Atom, rest []*writeReq) {
	states := map[string]*atomState{}
	var order []string
	touch := func(a ast.Atom) *atomState {
		k := a.Key()
		st, ok := states[k]
		if !ok {
			st = &atomState{atom: a}
			states[k] = st
			order = append(order, k)
		}
		return st
	}

	for i, r := range pending {
		// Validate the whole request before folding any of it in, so a
		// failed request contributes nothing — UpdateContext's own
		// resolve-before-mutate contract, per request.
		split := false
		var reqErr error
		for _, a := range r.retract {
			if !a.IsGround() {
				reqErr = fmt.Errorf("incremental: retract %v: not ground", a)
				break
			}
			st, seen := states[a.Key()]
			if seen && st.final == 1 {
				// An earlier request in this batch leaves the atom added;
				// retracting it needs that request applied first.
				split = true
				break
			}
			if !seen {
				if present, base := mnt.Resolve(a); present && !base {
					reqErr = fmt.Errorf("incremental: cannot retract %v: it is derived, not a base fact", a.Display())
					break
				}
			}
		}
		if reqErr == nil && !split {
			for _, a := range r.add {
				if !a.IsGround() {
					reqErr = fmt.Errorf("incremental: add %v: not ground", a)
					break
				}
			}
		}
		if split {
			rest = pending[i:]
			break
		}
		if reqErr != nil {
			r.fail(reqErr)
			continue
		}
		batch = append(batch, r)
		// Fold in: retractions before additions, the maintainer's order.
		for _, a := range r.retract {
			st := touch(a)
			st.final = 2
			st.everRetracted = true
		}
		for _, a := range r.add {
			touch(a).final = 1
		}
	}
	for _, k := range order {
		st := states[k]
		switch st.final {
		case 1:
			add = append(add, st.atom)
			if st.everRetracted {
				retract = append(retract, st.atom)
			}
		case 2:
			retract = append(retract, st.atom)
		}
	}
	return batch, add, retract, rest
}

// CommitStats is the process-wide group-commit accounting snapshot for the
// /stats endpoint.
type CommitStats struct {
	// Writes counts accepted Submit calls; Async those with async set.
	Writes uint64 `json:"writes"`
	Async  uint64 `json:"async"`
	// Commits counts applied batches; Batched the writes they coalesced
	// (Batched/Commits is the mean commit batch size).
	Commits uint64 `json:"commits"`
	Batched uint64 `json:"batched"`
	// MaxBatch is the largest batch committed.
	MaxBatch uint64 `json:"maxBatch"`
	// QueueHighWater is the deepest any session write queue has been.
	QueueHighWater uint64 `json:"queueHighWater"`
	// Rejected counts queue-full rejections (the serving layer's 429s).
	Rejected uint64 `json:"rejected"`
	// Aborts counts batches that failed after being logged.
	Aborts uint64 `json:"aborts"`
	// Splits counts batch splits forced by in-batch promote-then-retract
	// patterns.
	Splits uint64 `json:"splits"`
}

var commitGlobal struct {
	writes, async, commits, batched atomic.Uint64
	maxBatch, queueHighWater        atomic.Uint64
	rejected, aborts, splits        atomic.Uint64
}

// GlobalCommitStats snapshots the process-wide group-commit counters.
func GlobalCommitStats() CommitStats {
	return CommitStats{
		Writes:         commitGlobal.writes.Load(),
		Async:          commitGlobal.async.Load(),
		Commits:        commitGlobal.commits.Load(),
		Batched:        commitGlobal.batched.Load(),
		MaxBatch:       commitGlobal.maxBatch.Load(),
		QueueHighWater: commitGlobal.queueHighWater.Load(),
		Rejected:       commitGlobal.rejected.Load(),
		Aborts:         commitGlobal.aborts.Load(),
		Splits:         commitGlobal.splits.Load(),
	}
}

func maxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
