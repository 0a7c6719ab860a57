package engine

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kspot/internal/model"
)

// stubShard is a scripted RoundShard: every round returns its readings and,
// per group, its answers (plus override readings when set), with scripted
// failures; it logs the calls it receives.
type stubShard struct {
	name     string
	readings map[model.NodeID]model.Reading
	answers  []model.Answer
	override map[model.NodeID]model.Reading
	roundErr error
	groupErr map[int]error // by position in the round
	results  int           // >0: return this many results instead of one per id
	gate     chan struct{} // non-nil: rounds wait for it
	sync     bool          // reported by Synchronous

	mu       sync.Mutex
	rounds   [][]uint32
	attached []uint32
	detached []uint32
}

func (s *stubShard) Name() string { return s.name }

func (s *stubShard) Synchronous() bool { return s.sync }

// inFlight waits until n rounds have started.
func (s *stubShard) inFlight(n int) {
	for {
		s.mu.Lock()
		got := len(s.rounds)
		s.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *stubShard) Attach(id uint32, _ Attachment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attached = append(s.attached, id)
	return nil
}

func (s *stubShard) Detach(id uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detached = append(s.detached, id)
	return nil
}

func (s *stubShard) EpochRound(e model.Epoch, ids []uint32) (map[model.NodeID]model.Reading, []GroupResult, error) {
	s.mu.Lock()
	s.rounds = append(s.rounds, slices.Clone(ids))
	s.mu.Unlock()
	if s.gate != nil {
		<-s.gate
	}
	if s.roundErr != nil {
		return nil, nil, s.roundErr
	}
	n := len(ids)
	if s.results > 0 {
		n = s.results
	}
	res := make([]GroupResult, n)
	for i := range res {
		if err := s.groupErr[i]; err != nil {
			res[i].Err = err
			continue
		}
		res[i] = GroupResult{Answers: s.answers, Readings: s.override}
	}
	return s.readings, res, nil
}

func readingsOf(ids ...model.NodeID) map[model.NodeID]model.Reading {
	m := make(map[model.NodeID]model.Reading, len(ids))
	for _, id := range ids {
		m[id] = model.Reading{Node: id, Value: model.Value(id)}
	}
	return m
}

func mustSchedule(t *testing.T, s *Scheduler, spec QuerySpec) *ScheduledQuery {
	t.Helper()
	sq, err := s.Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sq
}

// TestSchedulerUnionAndMerge: an epoch unions every shard's readings for
// the oracle and hands the merge each shard's ranking in shard order.
func TestSchedulerUnionAndMerge(t *testing.T) {
	a := &stubShard{name: "shard-0", readings: readingsOf(1, 2), answers: []model.Answer{{Group: 1, Score: 5}}}
	b := &stubShard{name: "shard-1", readings: readingsOf(3), answers: []model.Answer{{Group: 2, Score: 9}}}
	s := NewScheduler(a, b)
	var got [][]model.Answer
	sq := mustSchedule(t, s, QuerySpec{Merge: func(per [][]model.Answer) ([]model.Answer, error) {
		got = per
		return append(append([]model.Answer(nil), per[1]...), per[0]...), nil
	}})
	out, err := s.Step(sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Readings) != 3 {
		t.Fatalf("union has %d readings, want 3", len(out.Readings))
	}
	if len(got) != 2 || got[0][0].Group != 1 || got[1][0].Group != 2 {
		t.Fatalf("merge saw %v, want shard order", got)
	}
	if len(out.Answers) != 2 || out.Answers[0].Group != 2 {
		t.Fatalf("merged answers %v", out.Answers)
	}
}

// TestSchedulerOverrideReadings: a group that ran on derived inputs
// reports them, and its outcome's readings are their union, not the
// round's sensing.
func TestSchedulerOverrideReadings(t *testing.T) {
	a := &stubShard{name: "shard-0", readings: readingsOf(1), override: readingsOf(10, 11)}
	b := &stubShard{name: "shard-1", readings: readingsOf(2), override: readingsOf(12)}
	s := NewScheduler(a, b)
	sq := mustSchedule(t, s, QuerySpec{Merge: func([][]model.Answer) ([]model.Answer, error) { return nil, nil }})
	out, err := s.Step(sq)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Readings) != 3 {
		t.Fatalf("override union has %d readings, want 3", len(out.Readings))
	}
	for _, id := range []model.NodeID{10, 11, 12} {
		if _, ok := out.Readings[id]; !ok {
			t.Fatalf("override reading %d missing: %v", id, out.Readings)
		}
	}
}

// TestSchedulerShardErrorTagged: a failed round poisons the epoch for
// every query, tagged with the failing shard's name, and a group failure
// is tagged the same way — the clock keeps running either way.
func TestSchedulerShardErrorTagged(t *testing.T) {
	a := &stubShard{name: "shard-0", readings: readingsOf(1)}
	bad := &stubShard{name: "shard-1", roundErr: errors.New("socket gone")}
	s := NewScheduler(a, bad)
	merge := func([][]model.Answer) ([]model.Answer, error) { return nil, nil }
	q1 := mustSchedule(t, s, QuerySpec{Merge: merge})
	q2 := mustSchedule(t, s, QuerySpec{Merge: merge})
	for _, q := range []*ScheduledQuery{q1, q2} {
		_, err := s.Step(q)
		if err == nil || !strings.Contains(err.Error(), "shard-1") || !strings.Contains(err.Error(), "socket gone") {
			t.Fatalf("round error not tagged: %v", err)
		}
	}
	if s.Epoch() != 1 {
		t.Fatalf("one failed epoch advanced the clock to %d", s.Epoch())
	}

	a2 := &stubShard{name: "shard-0", readings: readingsOf(1)}
	bad2 := &stubShard{name: "shard-1", readings: readingsOf(2), groupErr: map[int]error{0: errors.New("sweep died")}}
	s2 := NewScheduler(a2, bad2)
	q := mustSchedule(t, s2, QuerySpec{Merge: merge})
	if _, err := s2.Step(q); err == nil || !strings.Contains(err.Error(), "shard-1") || !strings.Contains(err.Error(), "sweep died") {
		t.Fatalf("group error not tagged: %v", err)
	}
}

// TestSchedulerMergeRequired: several shards without a merge function is
// an error; a single shard passes its ranking through.
func TestSchedulerMergeRequired(t *testing.T) {
	s := NewScheduler(&stubShard{name: "shard-0", readings: readingsOf(1)}, &stubShard{name: "shard-1", readings: readingsOf(2)})
	if _, err := s.Step(mustSchedule(t, s, QuerySpec{})); err == nil {
		t.Fatal("two shards without a merge succeeded")
	}
	solo := NewScheduler(&stubShard{name: "flat", readings: readingsOf(1), answers: []model.Answer{{Group: 7, Score: 1}}})
	out, err := solo.Step(mustSchedule(t, solo, QuerySpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 1 || out.Answers[0].Group != 7 {
		t.Fatalf("flat pass-through %v", out.Answers)
	}
}

// TestSchedulerGroupCountMismatch: a round answering a different number
// of groups than it was asked for poisons the epoch, tagged.
func TestSchedulerGroupCountMismatch(t *testing.T) {
	s := NewScheduler(&stubShard{name: "shard-0", readings: readingsOf(1), results: 3})
	q := mustSchedule(t, s, QuerySpec{})
	mustSchedule(t, s, QuerySpec{})
	if _, err := s.Step(q); err == nil || !strings.Contains(err.Error(), "shard-0") || !strings.Contains(err.Error(), "3 groups") {
		t.Fatalf("group-count mismatch: %v", err)
	}
}

// TestSchedulerGroupErrorIsolated: one group's failure reaches only its
// members; the other group's members answer in the same epoch.
func TestSchedulerGroupErrorIsolated(t *testing.T) {
	sh := &stubShard{name: "shard-0", readings: readingsOf(1), answers: []model.Answer{{Group: 1, Score: 1}},
		groupErr: map[int]error{0: errors.New("group 0 failed")}}
	s := NewScheduler(sh)
	bad := mustSchedule(t, s, QuerySpec{Key: "a"})
	badToo := mustSchedule(t, s, QuerySpec{Key: "a"})
	good := mustSchedule(t, s, QuerySpec{Key: "b"})
	for _, q := range []*ScheduledQuery{bad, badToo} {
		if _, err := s.Step(q); err == nil || !strings.Contains(err.Error(), "group 0 failed") {
			t.Fatalf("failing group's member: %v", err)
		}
	}
	out, err := s.Step(good)
	if err != nil || out.Epoch != 0 || len(out.Answers) != 1 {
		t.Fatalf("healthy group: %+v, %v", out, err)
	}
}

// TestSchedulerOneRoundPerEpoch: an epoch is ONE round per shard carrying
// every group's attachment id in group order, however many members ride
// each group.
func TestSchedulerOneRoundPerEpoch(t *testing.T) {
	a := &stubShard{name: "shard-0", readings: readingsOf(1)}
	b := &stubShard{name: "shard-1", readings: readingsOf(2)}
	s := NewScheduler(a, b)
	merge := func([][]model.Answer) ([]model.Answer, error) { return nil, nil }
	qs := []*ScheduledQuery{
		mustSchedule(t, s, QuerySpec{Key: "x", Merge: merge}),
		mustSchedule(t, s, QuerySpec{Key: "x", Merge: merge}),
		mustSchedule(t, s, QuerySpec{Key: "y", Merge: merge}),
		mustSchedule(t, s, QuerySpec{Merge: merge}),
	}
	const epochs = 3
	for e := 0; e < epochs; e++ {
		for _, q := range qs {
			if _, err := s.Step(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sh := range []*stubShard{a, b} {
		if len(sh.rounds) != epochs {
			t.Fatalf("%s ran %d rounds for %d epochs", sh.name, len(sh.rounds), epochs)
		}
		for _, ids := range sh.rounds {
			if !slices.Equal(ids, []uint32{1, 2, 3}) {
				t.Fatalf("%s round ids %v, want the 3 groups in order", sh.name, ids)
			}
		}
	}
}

// TestSchedulerDetachesDissolvedAndWidened: a group is detached from every
// shard when its last member leaves, and the narrower attachment when a
// wider member re-attaches the group; a removed seat drops its buffered
// outcomes at once.
func TestSchedulerDetachesDissolvedAndWidened(t *testing.T) {
	a := &stubShard{name: "shard-0", readings: readingsOf(1)}
	b := &stubShard{name: "shard-1", readings: readingsOf(2)}
	s := NewScheduler(a, b)
	merge := func([][]model.Answer) ([]model.Answer, error) { return nil, nil }
	narrow := mustSchedule(t, s, QuerySpec{Key: "k", K: 2, Merge: merge})
	same := mustSchedule(t, s, QuerySpec{Key: "k", K: 2, Merge: merge})
	wide := mustSchedule(t, s, QuerySpec{Key: "k", K: 5, Merge: merge})
	private := mustSchedule(t, s, QuerySpec{K: 1, Merge: merge})
	for _, sh := range []*stubShard{a, b} {
		if !slices.Equal(sh.attached, []uint32{1, 2, 3}) || !slices.Equal(sh.detached, []uint32{1}) {
			t.Fatalf("%s after widening: attached %v detached %v", sh.name, sh.attached, sh.detached)
		}
	}
	// Step one member twice: the others buffer two outcomes each.
	for i := 0; i < 2; i++ {
		if _, err := s.Step(wide); err != nil {
			t.Fatal(err)
		}
	}
	s.Remove(narrow)
	if narrow.pending != nil {
		t.Fatalf("removed seat holds %d outcomes", len(narrow.pending))
	}
	if _, err := s.Step(narrow); err != errRemoved {
		t.Fatalf("step on a removed seat: %v", err)
	}
	s.Remove(same)
	s.Remove(wide)
	s.Remove(private)
	for _, sh := range []*stubShard{a, b} {
		if !slices.Equal(sh.detached, []uint32{1, 2, 3}) {
			t.Fatalf("%s after dissolving: detached %v, want every attachment", sh.name, sh.detached)
		}
	}
	if len(s.groups) != 0 || len(s.byKey) != 0 {
		t.Fatalf("%d groups left after every seat was removed", len(s.groups))
	}
}

// TestSchedulerRemovedSeatDropsHandBack: a seat removed while its
// cancelled StepContext's epoch is still in flight keeps nothing — the
// abandoned outcome is dropped on hand-back, not re-buffered.
func TestSchedulerRemovedSeatDropsHandBack(t *testing.T) {
	sh := &stubShard{name: "shard-0", readings: readingsOf(1), gate: make(chan struct{})}
	s := NewScheduler(sh)
	sq := mustSchedule(t, s, QuerySpec{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.StepContext(ctx, sq)
		done <- err
	}()
	sh.inFlight(1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step returned %v", err)
	}
	removed := make(chan struct{})
	go func() {
		s.Remove(sq) // waits for the in-flight epoch
		close(removed)
	}()
	close(sh.gate)
	<-removed
	sq.stepMu.Lock() // the hand-back has landed
	sq.stepMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(sq.pending) != 0 {
		t.Fatalf("removed seat holds %d outcomes", len(sq.pending))
	}
}

// TestSchedulerSynchronousStepsInline: on synchronous shards (the
// deterministic simulator) cancellation is observed between epochs — a
// step whose context dies mid-epoch still runs the epoch to completion on
// the caller's goroutine and returns it; nothing runs in the background.
func TestSchedulerSynchronousStepsInline(t *testing.T) {
	sh := &stubShard{name: "det", readings: readingsOf(1), gate: make(chan struct{}), sync: true}
	s := NewScheduler(sh)
	sq := mustSchedule(t, s, QuerySpec{})
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		out Outcome
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := s.StepContext(ctx, sq)
		done <- res{out, err}
	}()
	sh.inFlight(1)
	cancel()
	select {
	case r := <-done:
		t.Fatalf("synchronous step returned mid-epoch: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(sh.gate)
	r := <-done
	if r.err != nil || r.out.Epoch != 0 {
		t.Fatalf("synchronous step: %+v, %v", r.out, r.err)
	}
	if _, err := s.StepContext(ctx, sq); !errors.Is(err, context.Canceled) {
		t.Fatalf("step with a dead context: %v", err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("clock at %d after one epoch", s.Epoch())
	}
}

// TestSchedulerConcurrentMembership: posts, widenings and removals racing
// epochs leave every shard holding exactly the live groups' attachments,
// and the fixed seat's epoch stream stays gapless throughout.
func TestSchedulerConcurrentMembership(t *testing.T) {
	a := &stubShard{name: "shard-0", readings: readingsOf(1)}
	b := &stubShard{name: "shard-1", readings: readingsOf(2)}
	s := NewScheduler(a, b)
	merge := func([][]model.Answer) ([]model.Answer, error) { return nil, nil }
	fixed := mustSchedule(t, s, QuerySpec{Key: "fixed", K: 1, Merge: merge})

	stop := make(chan struct{})
	stepped := make(chan error, 1)
	go func() {
		for want := model.Epoch(0); ; want++ {
			select {
			case <-stop:
				stepped <- nil
				return
			default:
			}
			out, err := s.Step(fixed)
			if err == nil && out.Epoch != want {
				err = errors.New("fixed seat skipped an epoch")
			}
			if err != nil {
				stepped <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []string{"x", "y", ""}[(w+i)%3]
				sq, err := s.Schedule(QuerySpec{Key: key, K: 1 + i%4, Merge: merge})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Step(sq); err != nil {
					t.Error(err)
					return
				}
				s.Remove(sq)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	for _, sh := range []*stubShard{a, b} {
		live := map[uint32]int{}
		for _, id := range sh.attached {
			live[id]++
		}
		for _, id := range sh.detached {
			live[id]--
		}
		for id, n := range live {
			if n != 0 && id != fixed.group.id {
				t.Fatalf("%s: attachment %d left at count %d", sh.name, id, n)
			}
		}
		if live[fixed.group.id] != 1 {
			t.Fatalf("%s: the fixed group's attachment count is %d", sh.name, live[fixed.group.id])
		}
	}
}
