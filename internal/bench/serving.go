package bench

// Multi-tenant serving benchmarks: what the shared-acquisition scheduler
// and the streaming results tier sustain, measured at the engine level so
// the -json trajectory and the module-root benchmarks share one body.
//
// The headline axis is queries/sec: M queries posted under one sensing
// signature ride ONE in-network acquisition per epoch, so stepping all M
// costs roughly one epoch of radio work plus M merge/cut stages — the
// shared M=64 run should push ~64× the queries/sec of M=1 at nearly the
// same ns/op. The unshared variant schedules the same M queries as
// private acquisition groups (the pre-sharing behavior) for the baseline
// column of EXPERIMENTS.md's serving table.

import (
	"sync"
	"testing"

	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/serve"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/trace"
)

// attachMINT is an engine.Attacher that attaches a fresh MINT operator for
// q, whatever the attachment names: the benchmarks build their queries in
// code rather than SQL.
func attachMINT(q topk.SnapshotQuery) engine.Attacher {
	return func(tp engine.Transport, _ trace.Source, _ engine.Attachment) (engine.EpochRunner, trace.Source, error) {
		op := mint.New()
		return op, nil, op.Attach(tp, q)
	}
}

// RunSharedAcquisitionBench steps m same-signature queries over b.N epochs
// of the standard deployment and reports the sustained queries/sec. With
// shared=true all m queries join one shared-acquisition group; with
// shared=false each gets a private group. The first epoch (query install +
// MINT creation phase) is a warm-up excluded from the measurement.
func RunSharedAcquisitionBench(b *testing.B, m int, shared bool) float64 {
	net, src, q, err := StandardDeployment()
	if err != nil {
		b.Fatal(err)
	}
	sched := engine.NewScheduler(engine.NewLocalShard("bench", net, src, attachMINT(q)))
	sqs := make([]*engine.ScheduledQuery, 0, m)
	for i := 0; i < m; i++ {
		// Shared: later members join the group's acquisition — no operator
		// of their own, just a per-member cut over the shared ranking.
		spec := engine.QuerySpec{K: q.K, CutK: q.K}
		if shared {
			spec.Key = "shared"
		}
		sq, err := sched.Schedule(spec)
		if err != nil {
			b.Fatal(err)
		}
		sqs = append(sqs, sq)
	}
	step := func() {
		for _, sq := range sqs {
			out, err := sched.Step(sq)
			if err != nil {
				b.Fatal(err)
			}
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}
	step() // creation epoch
	net.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	qps := 0.0
	if s := b.Elapsed().Seconds(); s > 0 {
		qps = float64(m) * float64(b.N) / s
	}
	b.ReportMetric(qps, "queries/sec")
	return qps
}

// RunHubFanOutBench publishes b.N epoch results through one serve.Hub into
// subs concurrent subscribers — the SSE fan-out path without the sockets —
// and reports the sustained subscriber-deliveries per second.
func RunHubFanOutBench(b *testing.B, subs int) float64 {
	hub := serve.NewHub(1)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub := hub.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := sub.Next(); !ok {
					return
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Publish(serve.Result{Epoch: model.Epoch(i)})
	}
	hub.Close()
	wg.Wait()
	b.StopTimer()
	rate := 0.0
	if s := b.Elapsed().Seconds(); s > 0 {
		rate = float64(subs) * float64(b.N) / s
	}
	b.ReportMetric(rate, "subscribers/sec")
	return rate
}
