package engine

import (
	"context"
	"fmt"
	"io"
	"sync"

	"kspot/internal/model"
)

// EpochRunner is the slice of an attached snapshot operator the scheduler
// drives: one acquisition round per epoch. topk.SnapshotOperator satisfies
// it after Attach.
type EpochRunner interface {
	Epoch(e model.Epoch, readings map[model.NodeID]model.Reading) ([]model.Answer, error)
}

// Outcome is one epoch's result for one scheduled query.
type Outcome struct {
	Epoch   model.Epoch
	Answers []model.Answer
	// Readings are the epoch's per-node inputs as this query saw them,
	// unioned across every shard (shared across queries unless the query
	// derives its own inputs). Treat as read-only.
	Readings map[model.NodeID]model.Reading
	// Err is the shard's (or merge's) error for this epoch, if any.
	Err error
}

// ScheduledQuery is one query's seat in the scheduler. Epoch outcomes are
// produced in lock-step for every scheduled query and buffered here until
// the query's cursor consumes them.
type ScheduledQuery struct {
	group *acqGroup // the shared acquisition this query rides
	merge MergeFunc // nil on single-shard deployments
	cutK  int       // >0: keep only the top cutK of the group's merged ranking

	// stepMu serializes Step/StepContext per query: a cancelled
	// StepContext's background hand-back holds it until the abandoned
	// outcome is re-buffered, so no later Step can observe the epoch
	// stream out of order. Queries never share a stepMu — one slow or
	// cancelled cursor cannot stall another's.
	stepMu sync.Mutex

	pending []Outcome // guarded by the scheduler's mu
	removed bool
}

// acqGroup is one shared in-network acquisition: the attachment every
// shard holds under id, acquired once per epoch and fanned out to every
// member's own merge and TOP-K cut. Queries scheduled under the same
// non-empty key join one group; a query scheduled without a key gets a
// private singleton group.
type acqGroup struct {
	key     string
	id      uint32     // the attachment id on every shard
	att     Attachment // what was attached, replayed by Install
	k       int        // the ranking depth the attachment acquires
	members []*ScheduledQuery
}

// QuerySpec declares one query's seat for Schedule.
type QuerySpec struct {
	// Key is the shared-acquisition key (kspot derives it from the plan's
	// SenseKey plus the resolved algorithm). Empty = private acquisition.
	Key string
	// Attach is the acquisition every shard sets up when the key's group
	// does not exist yet, or when K widens it.
	Attach Attachment
	// K is the ranking depth Attach acquires. A member whose K exceeds its
	// group's re-attaches the group at the wider depth; the narrower
	// attachment is detached.
	K int
	// Merge is this query's own coordinator-tier merge (nil on flat
	// deployments). Members of one group each run their own merge over the
	// group's shared per-shard rankings.
	Merge MergeFunc
	// CutK, when > 0, caps this member's merged answers at the top CutK of
	// the group ranking — the per-tenant TOP-K cut above the shared view. A
	// group acquiring at a wider K than a member asked for hands the member
	// a fresh prefix copy, never an alias of another member's slice.
	CutK int
}

// Scheduler drives several queries over a set of RoundShards in epoch
// lock-step: each epoch every shard runs ONE EpochRound — sense once, then
// one acquisition per group — and every scheduled query merges its
// group's per-shard rankings at the coordinator tier. Shards round
// concurrently. This is how one KSpot server serves many posted cursors
// without multiplying the per-epoch acquisition cost, on in-process shards
// and on shard processes behind sockets alike.
//
// Stepping is demand-driven: the epoch advances when a query with no
// buffered outcome is stepped, and the outcomes of the other queries are
// buffered until their cursors catch up. A query whose shard fails
// receives the error on its own outcome; the lock-step of the remaining
// queries is never wedged. All methods are safe for concurrent use.
type Scheduler struct {
	// inline: rounds run on the stepping goroutine (see LocalShard's
	// Synchronous), so StepContext observes cancellation between epochs.
	// Fixed at construction.
	inline bool

	// attachMu serializes group membership and shard attachments
	// (Schedule, Remove, Install) without holding up epochs: attaches run
	// outside mu, and group state flips under mu between epochs.
	attachMu sync.Mutex
	nextID   uint32

	mu     sync.Mutex
	shards []RoundShard
	groups []*acqGroup          // acquisition order: one entry per distinct acquisition
	byKey  map[string]*acqGroup // keyed (shared) groups only
	epoch  model.Epoch
	closed bool
}

// synchronous is implemented by shards whose rounds must not outlive a
// cancelled step (LocalShard over the deterministic simulator).
type synchronous interface{ Synchronous() bool }

// NewScheduler returns a scheduler over the shards.
func NewScheduler(shards ...RoundShard) *Scheduler {
	if len(shards) == 0 {
		panic("engine: scheduler needs at least one shard")
	}
	s := &Scheduler{shards: shards, byKey: make(map[string]*acqGroup)}
	for _, sh := range shards {
		if sy, ok := sh.(synchronous); ok && sy.Synchronous() {
			s.inline = true
		}
	}
	return s
}

// Schedule registers a query, joining (or creating) the shared-acquisition
// group its Key names — see QuerySpec. A new or widened group is attached
// on every shard first; a failed attach schedules nothing. A query joins
// at the current epoch; earlier outcomes are not replayed.
func (s *Scheduler) Schedule(spec QuerySpec) (*ScheduledQuery, error) {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	var g *acqGroup
	if spec.Key != "" {
		g = s.byKey[spec.Key]
	}
	shards := s.shards
	s.mu.Unlock()

	var widened uint32
	if g == nil || spec.K > g.k {
		s.nextID++
		id := s.nextID
		if err := attachAll(shards, id, spec.Attach); err != nil {
			return nil, err
		}
		s.mu.Lock()
		if g == nil {
			g = &acqGroup{key: spec.Key}
			s.groups = append(s.groups, g)
			if spec.Key != "" {
				s.byKey[spec.Key] = g
			}
		} else {
			widened = g.id
		}
		g.id, g.att, g.k = id, spec.Attach, spec.K
	} else {
		s.mu.Lock()
	}
	sq := &ScheduledQuery{group: g, merge: spec.Merge, cutK: spec.CutK}
	g.members = append(g.members, sq)
	s.mu.Unlock()
	if widened != 0 {
		// No epoch acquires the narrower attachment any more.
		detachAll(shards, widened)
	}
	return sq, nil
}

// Remove unschedules a query; its buffered outcomes are discarded. The
// last member leaving a group dissolves it and detaches it from every
// shard — a later Schedule under the same key attaches afresh.
func (s *Scheduler) Remove(sq *ScheduledQuery) {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	s.mu.Lock()
	if sq.removed {
		s.mu.Unlock()
		return
	}
	sq.removed = true
	sq.pending = nil
	g := sq.group
	g.members = deleteFirst(g.members, sq)
	dissolved := len(g.members) == 0
	if dissolved {
		s.groups = deleteFirst(s.groups, g)
		if g.key != "" {
			delete(s.byKey, g.key)
		}
	}
	shards := s.shards
	s.mu.Unlock()
	if dissolved {
		detachAll(shards, g.id)
	}
}

func deleteFirst[T comparable](xs []T, x T) []T {
	for i, y := range xs {
		if y == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// attachAll attaches id on every shard; on failure the shards that did
// attach are detached again.
func attachAll(shards []RoundShard, id uint32, a Attachment) error {
	attached := make([]bool, len(shards))
	err := RunShards(shards, func(i int, sh RoundShard) error {
		if err := sh.Attach(id, a); err != nil {
			return err
		}
		attached[i] = true
		return nil
	})
	if err != nil {
		for i, sh := range shards {
			if attached[i] {
				sh.Detach(id)
			}
		}
	}
	return err
}

// detachAll detaches id from every shard, best effort: a shard that
// cannot be reached has nothing left to acquire under id anyway.
func detachAll(shards []RoundShard, id uint32) {
	RunShards(shards, func(_ int, sh RoundShard) error { return sh.Detach(id) })
}

// Install replaces the scheduler's shards — the final step of a live
// re-sharding migration. Every group is first attached on the new shards
// under its existing id while epochs keep running on the old ones; then
// taking the epoch lock IS the drain: no epoch round or Serialized run
// can be in flight while the swap happens, and the next epoch fans out to
// the new shards. The epoch clock, the groups and every buffered outcome
// carry over untouched. It returns how many groups were re-attached. The
// old shards are the caller's to close (serialized, see Serialized).
func (s *Scheduler) Install(shards []RoundShard) (int, error) {
	if len(shards) == 0 {
		return 0, fmt.Errorf("engine: scheduler needs at least one shard")
	}
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	s.mu.Lock()
	groups := append([]*acqGroup(nil), s.groups...)
	s.mu.Unlock()
	for _, g := range groups {
		if err := attachAll(shards, g.id, g.att); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = shards
	return len(groups), nil
}

// Serialized runs fn while holding the epoch lock: one-shot multi-call
// protocols (the federated historic threshold round over shard processes)
// run atomically with respect to epoch rounds on the shard state machines.
func (s *Scheduler) Serialized(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn()
}

// Epoch returns the next epoch number the scheduler will run.
func (s *Scheduler) Epoch() model.Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Step returns the query's next epoch outcome, advancing the shared epoch
// when nothing is buffered for it.
func (s *Scheduler) Step(sq *ScheduledQuery) (Outcome, error) {
	sq.stepMu.Lock()
	defer sq.stepMu.Unlock()
	out, _, err := s.step(sq)
	return out, err
}

// StepContext is Step with cancellation: when ctx expires while the epoch
// is in flight, the call returns ctx.Err() immediately and the epoch
// finishes in the background — its outcome is re-buffered at the front of
// the query's queue, so the next Step observes the epoch stream without a
// gap (the per-query stepMu holds later steps out until the hand-back
// lands). Nothing leaks: the in-flight epoch runs to completion on the
// scheduler's own goroutine. On synchronous shards (the deterministic
// simulator) cancellation is observed between epochs instead: an epoch,
// once demanded, runs to completion on the caller's goroutine.
func (s *Scheduler) StepContext(ctx context.Context, sq *ScheduledQuery) (Outcome, error) {
	// An already-expired context never starts work: stepping with a dead
	// ctx would run (and charge) a full epoch in the background on every
	// call, draining node budgets for a caller that consumes nothing.
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	if s.inline || ctx.Done() == nil {
		return s.Step(sq)
	}
	type stepRes struct {
		out Outcome
		err error
	}
	ch := make(chan stepRes)
	abandon := make(chan struct{})
	go func() {
		sq.stepMu.Lock()
		defer sq.stepMu.Unlock()
		out, popped, err := s.step(sq)
		select {
		case ch <- stepRes{out, err}:
		case <-abandon:
			if popped {
				s.pushFront(sq, out)
			}
		}
	}()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-ctx.Done():
		close(abandon)
		return Outcome{}, ctx.Err()
	}
}

// step pops the query's next outcome, running an epoch if none is
// buffered. popped reports whether an outcome was actually consumed (so a
// cancelled StepContext can re-buffer it).
func (s *Scheduler) step(sq *ScheduledQuery) (Outcome, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Outcome{}, false, errClosed
	}
	if sq.removed {
		return Outcome{}, false, errRemoved
	}
	if len(sq.pending) == 0 {
		s.runEpochLocked()
	}
	out := sq.pending[0]
	sq.pending = sq.pending[1:]
	return out, true, out.Err
}

// pushFront re-buffers an outcome a cancelled StepContext abandoned, so
// the epoch stream stays gapless for the next Step. On a closed scheduler
// or a removed seat the outcome is dropped instead: no Step can ever
// consume it, so re-buffering would only pin the epoch's readings alive
// behind a cursor the caller still holds.
func (s *Scheduler) pushFront(sq *ScheduledQuery, out Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sq.removed || s.closed {
		return
	}
	sq.pending = append([]Outcome{out}, sq.pending...)
}

// Close rejects further Steps and closes every shard that is an
// io.Closer. It blocks until any in-flight epoch has completed — and the
// shards' pipelined presamples are drained — so the transports can be
// torn down safely afterwards. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		if c, ok := sh.(io.Closer); ok {
			c.Close()
		}
	}
}

type schedulerError string

func (e schedulerError) Error() string { return string(e) }

const (
	errRemoved = schedulerError("engine: query was removed from the scheduler")
	errClosed  = schedulerError("engine: scheduler is closed")
)

// runEpochLocked executes one shared epoch for every scheduled query: one
// EpochRound per shard carrying every group's attachment id, then, per
// group, the union of the readings it ran on and each member's merge and
// cut (pure in-memory work). A round failure poisons the epoch for every
// query; a group failure only that group's members.
func (s *Scheduler) runEpochLocked() {
	e := s.epoch
	s.epoch++
	ids := make([]uint32, len(s.groups))
	for i, g := range s.groups {
		ids[i] = g.id
	}
	n := len(s.shards)
	sensed := make([]map[model.NodeID]model.Reading, n)
	results := make([][]GroupResult, n)
	err := RunShards(s.shards, func(i int, sh RoundShard) error {
		readings, res, err := sh.EpochRound(e, ids)
		if err != nil {
			return err
		}
		if len(res) != len(ids) {
			return fmt.Errorf("epoch round returned %d groups, want %d", len(res), len(ids))
		}
		sensed[i], results[i] = readings, res
		return nil
	})
	if err != nil {
		for _, g := range s.groups {
			for _, q := range g.members {
				q.pending = append(q.pending, Outcome{Epoch: e, Err: err})
			}
		}
		return
	}
	// The union for the oracle is identical for every group on the shared
	// sensing — compute it once, not once per group.
	union := MergeReadings(sensed)

	// Every member of a group runs its own merge/cut over the group's
	// shared per-shard rankings (fed.Merger never mutates its inputs), so
	// M same-key tenants cost M in-memory merges and ONE acquisition.
	derived := make([]map[model.NodeID]model.Reading, n)
	for gi, g := range s.groups {
		perShard := make([][]model.Answer, n)
		var gerr error
		override := false
		for i := range results {
			r := results[i][gi]
			if r.Err != nil && gerr == nil {
				gerr = fmt.Errorf("engine: shard %s: %w", s.shards[i].Name(), r.Err)
			}
			perShard[i], derived[i] = r.Answers, r.Readings
			override = override || r.Readings != nil
		}
		readings := union
		if gerr == nil && override {
			readings = MergeReadings(derived)
		}
		for _, q := range g.members {
			out := Outcome{Epoch: e, Readings: readings, Err: gerr}
			if gerr == nil {
				out.Answers, out.Err = mergeShards(q.merge, perShard)
			}
			q.pending = append(q.pending, q.cut(out))
		}
	}
}

// cut applies the member's TOP-K prefix cut to a merged outcome. The
// group's ranking may be wider than this member asked for (the group
// acquires at the widest member K); the member keeps the top cutK. The
// prefix is copied, never aliased — members of one group must not share
// answer slices across their buffered outcomes.
func (sq *ScheduledQuery) cut(out Outcome) Outcome {
	if sq.cutK > 0 && out.Err == nil && len(out.Answers) > sq.cutK {
		out.Answers = append([]model.Answer(nil), out.Answers[:sq.cutK]...)
	}
	return out
}
