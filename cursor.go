package kspot

import (
	"context"
	"fmt"
	"sync"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/wire"
)

// Cursor is a prepared query. Snapshot (continuous) queries advance one
// epoch per Step (or StepContext) call; historic queries execute once via
// Run. On a federated deployment a cursor's answers aggregate across every
// shard through its coordinator-tier merger.
type Cursor struct {
	sys  *System
	plan *query.Plan
	algo Algorithm
	live bool

	merger *fed.Merger // nil on flat deployments

	// Continuous cursors are seats on one of the System's lock-step
	// schedulers — deterministic, live or remote. Cursors whose queries
	// share a sensing signature ride ONE in-network acquisition per epoch;
	// the cursor's own merge and TOP-K cut run above the shared view.
	sched *engine.Scheduler
	sq    *engine.ScheduledQuery

	// tenant/admitted record the admission slot Close releases.
	tenant    string
	admitted  bool
	closeOnce sync.Once
}

// StepResult is one epoch of a continuous query.
type StepResult struct {
	Epoch   Epoch
	Answers []Answer
	// Exact is the oracle answer for the same epoch over the union of
	// every shard's readings (the simulator knows ground truth; a real
	// deployment would not).
	Exact   []Answer
	Correct bool
}

// Plan describes how the router dispatched the query.
func (c *Cursor) Plan() string { return c.plan.Kind.String() }

// Query returns the canonical query text.
func (c *Cursor) Query() string { return c.plan.Query }

// Live reports whether the cursor runs on the concurrent substrate.
func (c *Cursor) Live() bool { return c.live }

// Continuous reports whether the cursor is advanced with Step (snapshot
// and basic queries) rather than executed once with Run.
func (c *Cursor) Continuous() bool {
	return c.plan.Kind != query.PlanHistoricTopK
}

func (c *Cursor) prepare() error {
	switch c.plan.Kind {
	case query.PlanHistoricTopK:
		// Historic TOP-K federates: each shard runs the historic operator
		// over its own windows and the coordinator closes the ranking with
		// a TPUT-style threshold round (fed.HistoricMerger). Run builds the
		// per-shard executions; nothing to prepare beyond the operator.
		_, err := historicOperator(c.algo)
		return err
	case query.PlanBasic:
		// Basic queries always run plain acquisition.
		if c.algo != AlgoAuto && c.algo != AlgoTAG {
			return fmt.Errorf("kspot: basic queries run on TAG, not %q", c.algo)
		}
	}
	algo := c.resolvedAlgo()
	// Validate the name here so a bad algorithm fails the Post with the
	// public API's error, before any shard sees it.
	if _, err := snapshotOperator(algo); err != nil {
		return err
	}
	sched, err := c.sys.scheduler(c.live)
	if err != nil {
		return err
	}
	if c.sys.Shards() > 1 {
		m, err := fed.New(c.plan.Snapshot, fed.Config{}, c.sys.fedStats)
		if err != nil {
			return err
		}
		c.merger = m
	}
	// Schedule under the sensing signature. The first query of a signature
	// attaches its acquisition on every shard (each shard plans the SQL and
	// instantiates the operator itself, internal/topk/registry); later ones
	// join it, widening it first when they need a deeper ranking.
	sq, err := sched.Schedule(engine.QuerySpec{
		Key:    string(algo) + "|" + c.plan.SenseKey,
		Attach: engine.Attachment{Algo: string(algo), SQL: c.plan.Query},
		K:      c.plan.Snapshot.K,
		Merge:  c.mergeFunc(),
		CutK:   c.cutK(),
	})
	if err != nil {
		return err
	}
	c.sched, c.sq = sched, sq
	return nil
}

// resolvedAlgo folds the algorithm the query actually runs on: basic
// queries always run TAG, and AlgoAuto resolves to MINT for snapshot plans
// (registry treats "" and "mint" as the same operator) — so equivalent
// posts derive equal acquisition keys.
func (c *Cursor) resolvedAlgo() Algorithm {
	if c.plan.Kind == query.PlanBasic {
		return AlgoTAG
	}
	if c.algo == AlgoAuto {
		return AlgoMINT
	}
	return c.algo
}

// cutK is this cursor's own TOP-K depth — the per-tenant cut applied above
// the (possibly wider) shared acquisition. 0 for plans without a TOP
// clause: they keep the full ranking.
func (c *Cursor) cutK() int {
	switch c.plan.Kind {
	case query.PlanSnapshotTopK, query.PlanHistoricGroupTopK:
		return c.plan.Snapshot.K
	default:
		return 0
	}
}

// Close detaches the cursor from its scheduler seat and releases its
// admission slot. The last cursor of a shared-acquisition group dissolves
// the group and detaches it from every shard (a later same-signature post
// attaches afresh). Safe to call multiple times; other cursors keep
// stepping undisturbed. Historic (Run) cursors hold no seat — Close just
// frees admission.
func (c *Cursor) Close() {
	c.closeOnce.Do(func() {
		if c.sq != nil {
			c.sched.Remove(c.sq)
		}
		if c.admitted {
			c.sys.admission.Release(c.tenant)
		}
	})
}

// mergeFunc adapts the cursor's fed merger to the engine's coordinator
// hook (nil on flat deployments — answers pass through).
func (c *Cursor) mergeFunc() engine.MergeFunc {
	if c.merger == nil {
		return nil
	}
	return c.merger.Merge
}

// Step runs one epoch of a continuous query.
func (c *Cursor) Step() (StepResult, error) {
	return c.StepContext(context.Background())
}

// StepContext is Step with cancellation. On the live substrate and on a
// remote deployment a cancelled step returns promptly while the in-flight
// epoch completes in the background — its outcome is re-buffered, so the
// next Step resumes the epoch stream without a gap and nothing leaks. On
// the deterministic substrate cancellation is observed between epochs:
// once demanded, an epoch runs to completion, so the stream can never
// skip one. A shard failure surfaces here, tagged with the shard's name;
// other cursors and the other shards continue.
func (c *Cursor) StepContext(ctx context.Context) (StepResult, error) {
	if !c.Continuous() {
		return StepResult{}, fmt.Errorf("kspot: historic query %q executes with Run, not Step", c.plan.Query)
	}
	out, err := c.sched.StepContext(ctx, c.sq)
	if err != nil {
		return StepResult{}, err
	}
	return c.result(out), nil
}

// result scores an epoch outcome against the exact oracle over the union
// of the shards' readings.
func (c *Cursor) result(out engine.Outcome) StepResult {
	exact := topk.ExactSnapshot(out.Readings, c.plan.Snapshot)
	return StepResult{
		Epoch:   out.Epoch,
		Answers: out.Answers,
		Exact:   exact,
		Correct: model.EqualAnswers(out.Answers, exact),
	}
}

// Run executes a historic query over the last Window epochs of buffered
// history (the simulator materializes each node's window through
// storage.Window, standing in for the motes' MicroHash-indexed flash
// buffers). On a federated deployment every shard runs the historic
// operator over its own windows and the coordinator merges the shard
// rankings with a two-phase threshold round (fed.HistoricMerger), exact
// and byte-identical to the flat run; coordinator backhaul is accounted
// in FederationStats.
func (c *Cursor) Run() ([]Answer, error) {
	if c.Continuous() {
		return nil, fmt.Errorf("kspot: continuous query %q advances with Step, not Run", c.plan.Query)
	}
	if c.sys.Remote() {
		return c.runRemote()
	}
	var tps []engine.Transport
	if c.live {
		// One-shot runs bypass the scheduler's epoch lock-step, so they
		// register with the System: Close waits registered runs out before
		// stopping any shard's node goroutines (a federated run must never
		// find one shard's Live torn down mid-protocol).
		liveTPs, release, err := c.sys.beginLiveRun()
		if err != nil {
			return nil, err
		}
		defer release()
		tps = liveTPs
	} else {
		tps = c.sys.detTransports()
	}
	shards := make([]fed.HistoricShard, len(tps))
	for i, tp := range tps {
		op, err := historicOperator(c.algo)
		if err != nil {
			return nil, err
		}
		series, err := storage.BufferSeries(tp.Topology().SensorNodes(), c.plan.Historic.Window, c.sys.source.Sample)
		if err != nil {
			return nil, fmt.Errorf("kspot: shard %s: %w", c.sys.scenario.ShardName(i), err)
		}
		data := topk.HistoricData(series)
		if len(tps) == 1 {
			return op.Run(tp, c.plan.Historic, data)
		}
		shards[i] = &fed.OperatorShard{Op: op, Tp: tp, Q: c.plan.Historic, Data: data}
	}
	return c.mergeHistoric(shards, c.live)
}

// runRemote executes a historic query on a remote deployment. Each shard
// process buffers its own windows and runs the historic operator locally;
// only shard-level results cross the wire — the shard's local TOP-shipK
// partial sums, then the sums the coordinator's threshold round targets
// in phase 2. The whole round runs serialized against epoch rounds on the
// shard state machines.
func (c *Cursor) runRemote() ([]Answer, error) {
	if _, err := historicOperator(c.algo); err != nil {
		return nil, err
	}
	exec := c.sys.nextQueryID()
	var execs []*wire.HistoricExec
	defer func() {
		for _, h := range execs {
			h.Release()
		}
	}()
	var answers []Answer
	err := c.sys.remote.Serialized(func() error {
		shards := []fed.HistoricShard{}
		for _, cl := range c.sys.remoteClients() {
			h := cl.Historic(exec, string(c.algo), c.plan.Historic)
			execs = append(execs, h)
			shards = append(shards, h)
		}
		var err error
		if len(execs) == 1 {
			answers, err = execs[0].Run()
		} else {
			answers, err = c.mergeHistoric(shards, true)
		}
		return err
	})
	return answers, err
}

// mergeHistoric closes a federated historic ranking with the coordinator
// tier's two-phase threshold round (fed.HistoricMerger), exact and
// byte-identical to the flat run; backhaul is accounted in
// FederationStats.
func (c *Cursor) mergeHistoric(shards []fed.HistoricShard, parallel bool) ([]Answer, error) {
	m, err := fed.NewHistoric(c.plan.Historic, fed.Config{}, c.sys.fedStats)
	if err != nil {
		return nil, err
	}
	return m.Run(shards, parallel)
}
