package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/topk/mint"
	"kspot/internal/trace"
)

// fixed is an Attacher handing out pre-built runners by the attachment's
// SQL — the engine tests schedule operators they built themselves.
func fixed(runners map[string]engine.EpochRunner) engine.Attacher {
	return func(_ engine.Transport, _ trace.Source, a engine.Attachment) (engine.EpochRunner, trace.Source, error) {
		r, ok := runners[a.SQL]
		if !ok {
			return nil, nil, fmt.Errorf("no runner %q", a.SQL)
		}
		return r, nil, nil
	}
}

// attachOp is an Attacher attaching a fresh operator for q on each shard.
func attachOp(newOp func() topk.SnapshotOperator, q topk.SnapshotQuery) engine.Attacher {
	return func(tp engine.Transport, _ trace.Source, _ engine.Attachment) (engine.EpochRunner, trace.Source, error) {
		op := newOp()
		return op, nil, op.Attach(tp, q)
	}
}

func newMint() topk.SnapshotOperator { return mint.New() }

// schedule schedules a private query, failing the test on error.
func schedule(t *testing.T, sched *engine.Scheduler, spec engine.QuerySpec) *engine.ScheduledQuery {
	t.Helper()
	sq, err := sched.Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sq
}

// figure1Shard is a deterministic Figure-1 shard whose groups run the
// given runners.
func figure1Shard(t *testing.T, runners map[string]engine.EpochRunner) (*engine.LocalShard, *sim.Network) {
	t.Helper()
	scen := config.Figure1Scenario()
	net, err := scen.Network()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewLocalShard("solo", net, src, fixed(runners)), net
}

// fedSetup builds a sharded Figure-3 deployment on the chosen substrate:
// per-shard networks sharing the flat trace source, MINT attached per
// shard, and a fed merger.
func fedSetup(t *testing.T, live bool, q topk.SnapshotQuery) (shards []engine.RoundShard, merge engine.MergeFunc, cleanup func()) {
	t.Helper()
	scen := config.Figure3Scenario()
	if err := scen.AutoShard(2); err != nil {
		t.Fatal(err)
	}
	subs, err := scen.ShardScenarios()
	if err != nil {
		t.Fatal(err)
	}
	src, err := scen.Source()
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for i, sub := range subs {
		net, err := sub.Network()
		if err != nil {
			t.Fatal(err)
		}
		var tp engine.Transport = net
		if live {
			l := engine.NewLive(net, engine.LiveOptions{Window: 8})
			ctx, cancel := context.WithCancel(context.Background())
			l.Start(ctx)
			stops = append(stops, func() { l.Stop(); cancel() })
			tp = l
		}
		shards = append(shards, engine.NewLocalShard(scen.ShardName(i), tp, src, attachOp(newMint, q)))
	}
	m, err := fed.New(q, fed.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return shards, m.Merge, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// TestCoordinatorFederatedEpochs: a 2-shard Figure-3 deployment must
// answer every epoch identically to the flat oracle over the union of the
// shards' readings, on both substrates.
func TestCoordinatorFederatedEpochs(t *testing.T) {
	q := topk.SnapshotQuery{K: 2, Agg: model.AggAvg, Range: &topk.ValueRange{Min: 0, Max: 100}}
	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("live=%v", live), func(t *testing.T) {
			shards, merge, cleanup := fedSetup(t, live, q)
			defer cleanup()
			sched := engine.NewScheduler(shards...)
			defer sched.Close()
			sq := schedule(t, sched, engine.QuerySpec{K: q.K, Merge: merge})
			for e := model.Epoch(0); e < 10; e++ {
				out, err := sched.Step(sq)
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
				}
				exact := topk.ExactSnapshot(out.Readings, q)
				if !model.EqualAnswers(out.Answers, exact) {
					t.Fatalf("epoch %d: federated %v, oracle %v", e, out.Answers, exact)
				}
			}
		})
	}
}

// errorRunner fails every epoch — the stand-in for a shard whose
// transport dies mid-sweep.
type errorRunner struct{}

func (errorRunner) Epoch(model.Epoch, map[model.NodeID]model.Reading) ([]model.Answer, error) {
	return nil, errors.New("transport failed mid-sweep")
}

// okRunner answers a fixed ranking.
type okRunner struct{ g model.GroupID }

func (r okRunner) Epoch(model.Epoch, map[model.NodeID]model.Reading) ([]model.Answer, error) {
	return []model.Answer{{Group: r.g, Score: 1}}, nil
}

// TestSchedulerShardErrorPropagation: a query whose shard fails mid-sweep
// must surface the error on its own posting cursor, while the lock-step
// keeps serving the healthy query — no wedge, no cross-contamination.
func TestSchedulerShardErrorPropagation(t *testing.T) {
	shard, _ := figure1Shard(t, map[string]engine.EpochRunner{"bad": errorRunner{}, "good": okRunner{g: 3}})
	sched := engine.NewScheduler(shard)
	bad := schedule(t, sched, engine.QuerySpec{Attach: engine.Attachment{SQL: "bad"}})
	good := schedule(t, sched, engine.QuerySpec{Attach: engine.Attachment{SQL: "good"}})

	for i := 0; i < 4; i++ {
		if _, err := sched.Step(bad); err == nil {
			t.Fatalf("step %d: failing shard did not surface its error", i)
		}
		out, err := sched.Step(good)
		if err != nil {
			t.Fatalf("step %d: healthy query wedged by the failing one: %v", i, err)
		}
		if out.Epoch != model.Epoch(i) || len(out.Answers) != 1 || out.Answers[0].Group != 3 {
			t.Fatalf("step %d: healthy outcome %+v", i, out)
		}
	}
	// The lock-step advanced one epoch per paired step, not two.
	if got := sched.Epoch(); got != 4 {
		t.Fatalf("scheduler advanced %d epochs, want 4", got)
	}
}

// slowShard is a background-capable shard whose rounds block until
// released, so a test can hold an epoch in flight while it cancels a
// StepContext.
type slowShard struct {
	enter chan struct{}
	gate  chan struct{}
}

func (*slowShard) Name() string                           { return "slow" }
func (*slowShard) Attach(uint32, engine.Attachment) error { return nil }
func (*slowShard) Detach(uint32) error                    { return nil }
func (r *slowShard) EpochRound(e model.Epoch, ids []uint32) (map[model.NodeID]model.Reading, []engine.GroupResult, error) {
	r.enter <- struct{}{}
	<-r.gate
	res := make([]engine.GroupResult, len(ids))
	for i := range res {
		res[i].Answers = []model.Answer{{Group: model.GroupID(e + 1), Score: model.Value(e)}}
	}
	return nil, res, nil
}

// TestSchedulerStepContext: a cancelled StepContext returns promptly, the
// in-flight epoch completes in the background, and its outcome is
// re-buffered — the next Step sees the epoch stream without a gap.
func TestSchedulerStepContext(t *testing.T) {
	r := &slowShard{enter: make(chan struct{}, 1), gate: make(chan struct{})}
	sched := engine.NewScheduler(r)
	sq := schedule(t, sched, engine.QuerySpec{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sched.StepContext(ctx, sq)
		done <- err
	}()
	<-r.enter // epoch 0 is in flight
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled StepContext returned %v", err)
	}
	close(r.gate) // let the abandoned epoch finish in the background

	// The next Step must observe epoch 0 (re-buffered), then epoch 1.
	for want := model.Epoch(0); want < 2; want++ {
		out, err := sched.StepContext(context.Background(), sq)
		if err != nil {
			t.Fatal(err)
		}
		if out.Epoch != want {
			t.Fatalf("post-cancel step saw epoch %d, want %d (gapless re-buffering)", out.Epoch, want)
		}
	}
}

// TestSchedulerStepContextExpired: an already-expired context never runs
// a fresh epoch for nothing — no work starts, no energy is charged, and
// the epoch stream still begins at 0 for the next live Step.
func TestSchedulerStepContextExpired(t *testing.T) {
	shard, net := figure1Shard(t, map[string]engine.EpochRunner{"ok": okRunner{g: 1}})
	sched := engine.NewScheduler(shard)
	sq := schedule(t, sched, engine.QuerySpec{Attach: engine.Attachment{SQL: "ok"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if _, err := sched.StepContext(ctx, sq); !errors.Is(err, context.Canceled) {
			t.Fatalf("expired StepContext returned %v", err)
		}
	}
	if sched.Epoch() != 0 {
		t.Fatalf("expired StepContexts advanced the epoch clock to %d", sched.Epoch())
	}
	if total := net.Ledger.Total(); total != 0 {
		t.Fatalf("expired StepContexts charged %v µJ of energy", total)
	}
	out, err := sched.Step(sq)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 0 {
		t.Fatalf("epoch stream began at %d after expired StepContexts, want 0", out.Epoch)
	}
}

// namedShard is a RoundShard stub that only has a name.
type namedShard struct {
	engine.RoundShard
	name string
}

func (n namedShard) Name() string { return n.name }

// TestRunShards: the per-shard fan-out visits every shard index-aligned,
// and the first error by shard order comes back tagged with the shard's
// name.
func TestRunShards(t *testing.T) {
	shards := make([]engine.RoundShard, 3)
	for i := range shards {
		shards[i] = namedShard{name: fmt.Sprintf("shard-%d", i)}
	}
	for _, n := range []int{1, 3} {
		var mu sync.Mutex
		seen := make(map[int]engine.RoundShard)
		err := engine.RunShards(shards[:n], func(i int, sh engine.RoundShard) error {
			mu.Lock()
			seen[i] = sh
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != n {
			t.Fatalf("visited %d shards, want %d", len(seen), n)
		}
		for i, sh := range shards[:n] {
			if seen[i] != sh {
				t.Fatalf("shard %d got %v", i, seen[i])
			}
		}
	}
	err := engine.RunShards(shards, func(i int, _ engine.RoundShard) error {
		if i >= 1 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "shard-1") || !strings.Contains(err.Error(), "boom 1") {
		t.Fatalf("error not first-by-shard-order or untagged: %v", err)
	}
}
