package engine

import (
	"fmt"
	"sync"

	"kspot/internal/model"
	"kspot/internal/trace"
)

// RoundShard is one shard of a scheduled deployment: the unit the
// Scheduler drives through epoch rounds. The in-process shard (LocalShard,
// over the deterministic simulator or the live substrate) and the wire
// client (internal/wire, one MsgEpochRound frame per epoch) both implement
// it, so grouping, buffered outcomes, cancellation and the coordinator
// merge exist once, in the Scheduler, whatever the shards run on.
type RoundShard interface {
	// Name is the shard's display name (panels, error tags).
	Name() string
	// Attach sets up one acquisition group under id: the shard plans the
	// attachment's query and instantiates its own operator.
	Attach(id uint32, a Attachment) error
	// Detach drops the group attached under id.
	Detach(id uint32) error
	// EpochRound senses epoch e once — idle charge, dead-node drop, sensing
	// charge, history record — then runs one epoch of every listed group,
	// in order. It returns the committed readings and one result per id. A
	// transport-level failure poisons the whole round; a single group's
	// failure is carried in its result, and the sensing and the other
	// groups stand.
	EpochRound(e model.Epoch, ids []uint32) (map[model.NodeID]model.Reading, []GroupResult, error)
}

// Attachment is what a shard needs to set up an acquisition group: the
// algorithm's registry name and the query text. Every shard re-derives the
// plan and the operator from them, so an in-process shard and a shard
// process behind a socket run the identical operator.
type Attachment struct {
	Algo string
	SQL  string
}

// GroupResult is one group's slice of an epoch round: its ranking, or its
// isolated failure.
type GroupResult struct {
	Answers []model.Answer
	// Readings are the derived per-node inputs the group ran on (GROUP BY
	// ... WITH HISTORY), so the coordinator's oracle sees what the shard
	// saw; nil when the group ran on the round's sensing.
	Readings map[model.NodeID]model.Reading
	Err      error
}

// Attacher instantiates a shard's operator for an attachment over the
// shard's transport. It returns the attached operator and, for queries
// whose per-node inputs derive from the sensed field (node-local window
// aggregation), the derivation source — nil otherwise.
// internal/topk/registry.AttachSnapshot is the production attacher; tests
// and benchmarks pass fixed operators.
type Attacher func(tp Transport, src trace.Source, a Attachment) (EpochRunner, trace.Source, error)

// LocalShard is the in-process RoundShard: one network substrate
// (deterministic or live, possibly behind fault decorators and a durable
// tap) paired with the trace source its sensors sample.
//
// Every shard of a federated system shares the trace source built from
// the *flat* scenario — sampling is a pure function of (node, epoch), and
// node ids are globally unique across shards, so the sharded field senses
// exactly the world the flat field senses. That invariant is the root of
// the federation layer's identical-answer guarantee.
//
// On the live substrate the groups of a round acquire concurrently and the
// next epoch's sensing is presampled on a background goroutine once the
// round's transport work is done (see SetPipelining); on the deterministic
// simulator, a single-threaded state machine, the groups run one after
// another and nothing runs between rounds.
type LocalShard struct {
	name   string
	tp     Transport
	src    trace.Source
	attach Attacher
	live   bool

	mu     sync.Mutex // guards groups; attaches may land while a round runs
	groups map[uint32]localGroup

	roundMu  sync.Mutex // serializes rounds against SetPipelining and Close
	pipeline bool
	pre      *presample
}

// localGroup is one attached acquisition: its operator and, when the query
// derives its per-node inputs, the derivation source.
type localGroup struct {
	op  EpochRunner
	src trace.Source
}

// presample is an in-flight background sampling of the next epoch. The
// accounting the synchronous path does at sampling time is deferred to
// CommitSenseEpoch when the epoch's round actually runs — keeping ledgers,
// budgets and histories byte-identical to the unpipelined run.
type presample struct {
	epoch    model.Epoch
	done     chan struct{}
	readings map[model.NodeID]model.Reading
}

// NewLocalShard binds a transport and its trace source under a display
// name; attach instantiates the operators of the groups attached to it.
func NewLocalShard(name string, tp Transport, src trace.Source, attach Attacher) *LocalShard {
	_, live := Baseof(tp).(*Live)
	return &LocalShard{
		name:     name,
		tp:       tp,
		src:      src,
		attach:   attach,
		live:     live,
		groups:   make(map[uint32]localGroup),
		pipeline: live,
	}
}

// Name implements RoundShard.
func (l *LocalShard) Name() string { return l.name }

// Attached reports how many groups are attached.
func (l *LocalShard) Attached() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.groups)
}

// Attach implements RoundShard.
func (l *LocalShard) Attach(id uint32, a Attachment) error {
	op, src, err := l.attach(l.tp, l.src, a)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.groups[id] = localGroup{op: op, src: src}
	return nil
}

// Detach implements RoundShard: the operator is dropped.
func (l *LocalShard) Detach(id uint32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.groups[id]; !ok {
		return fmt.Errorf("engine: query %d not attached", id)
	}
	delete(l.groups, id)
	return nil
}

// Synchronous reports whether rounds must run on the stepping goroutine:
// the deterministic simulator is mutated out of band between steps
// (SetNodeDown, fault arming), so a round left finishing in the background
// by a cancelled StepContext would race those mutations.
func (l *LocalShard) Synchronous() bool { return !l.live }

// SetPipelining forces cross-epoch presampling on or off, overriding the
// default (on for the live substrate, off for the deterministic one).
// Outcomes and accounting are byte-identical either way. Callers that
// mutate a deterministic transport out of band between rounds must leave
// it off there: the background sample reads aliveness without a lock.
func (l *LocalShard) SetPipelining(on bool) {
	l.roundMu.Lock()
	defer l.roundMu.Unlock()
	l.pipeline = on
	if !on {
		l.drain()
	}
}

// Close waits out an in-flight presample and discards it (its charges were
// never committed), so the transport can be torn down safely afterwards.
func (l *LocalShard) Close() error {
	l.roundMu.Lock()
	defer l.roundMu.Unlock()
	l.drain()
	return nil
}

func (l *LocalShard) drain() {
	if l.pre != nil {
		<-l.pre.done
		l.pre = nil
	}
}

// EpochRound implements RoundShard.
func (l *LocalShard) EpochRound(e model.Epoch, ids []uint32) (map[model.NodeID]model.Reading, []GroupResult, error) {
	l.roundMu.Lock()
	defer l.roundMu.Unlock()

	// Sensing: a presample for exactly this epoch is consumed; a stale one
	// (the epoch clock moved on without this shard) is discarded — its
	// charges were never committed, so resampling is free of skew.
	var readings map[model.NodeID]model.Reading
	if pre := l.pre; pre != nil {
		l.pre = nil
		<-pre.done
		if pre.epoch == e {
			readings = pre.readings
		}
	}
	if readings == nil {
		readings = PresampleEpoch(l.tp, l.src, e)
	}
	CommitSenseEpoch(l.tp, e, readings)

	groups := make([]localGroup, len(ids))
	results := make([]GroupResult, len(ids))
	l.mu.Lock()
	for i, id := range ids {
		g, ok := l.groups[id]
		if !ok {
			results[i].Err = fmt.Errorf("engine: query %d not attached", id)
		}
		groups[i] = g
	}
	l.mu.Unlock()

	run := func(i int) {
		g := groups[i]
		if g.op == nil {
			return
		}
		in := readings
		if g.src != nil {
			// Derive over the sensed node set, not the transport's live
			// aliveness: an earlier group of this round may already have
			// fired churn flips, and every group of an epoch must see the
			// node set an independent run would.
			in = DeriveReadings(readings, g.src, e)
			results[i].Readings = in
		}
		results[i].Answers, results[i].Err = g.op.Epoch(e, in)
	}
	if l.live && len(ids) > 1 {
		// The live transport supports any number of in-flight sweeps.
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range ids {
			run(i)
		}
	}

	// All transport work for epoch e is done: overlap the next epoch's
	// sensing with the coordinator's merge stage.
	if l.pipeline {
		pre := &presample{epoch: e + 1, done: make(chan struct{})}
		l.pre = pre
		go func() {
			pre.readings = PresampleEpoch(l.tp, l.src, e+1)
			close(pre.done)
		}()
	}
	return readings, results, nil
}
