package main

import (
	"fmt"
	"time"

	"kspot/internal/config"
	"kspot/internal/model"
	"kspot/internal/query"
	"kspot/internal/sim"
	"kspot/internal/topk"
	"kspot/internal/topk/mint"
	"kspot/internal/topo"
)

// probeEpochs is how many epochs the direct sense+MINT drive runs; the
// first (MINT's creation epoch) is left out of the medians.
const probeEpochs = 40

// probe holds what the traced run measures by calling layers directly,
// outside the System: the scenario split, the topology and network
// builds, query planning, and one sense + MINT acquisition per signature
// group per epoch on the workload's own shard networks.
type probe struct {
	shard, links, tree, network time.Duration
	linkCount, depth            int
	sense, mint                 []time.Duration // per epoch, summed over shards and groups
	plan                        []time.Duration
}

func planSQL(sql string) (*query.Plan, error) {
	return query.PlanText(sql, query.DefaultSchema())
}

// probeLayers runs the direct calls under root spans of their own: the
// builds and planning under "bench.probe" with epoch id firstID, each
// drive epoch under "bench.probe_epoch" with the ids after it.
func probeLayers(p *prepared, tr *tracer, firstID int64) (*probe, error) {
	w := p.w
	pr := &probe{}
	scen, err := config.Load(p.file)
	if err != nil {
		return nil, err
	}
	tr.begin("bench.probe", firstID)
	nets, err := pr.build(w, scen, tr)
	if err == nil {
		err = pr.planAll(w, tr)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	if err := pr.drive(w, scen, nets, tr, firstID+1); err != nil {
		return nil, err
	}
	return pr, nil
}

// build times the scenario split and, per shard, the topology and
// network builds, returning the shard networks.
func (pr *probe) build(w *workload, scen *config.Scenario, tr *tracer) ([]*sim.Network, error) {
	t0 := time.Now()
	tr.begin("config.shard", -1)
	err := scen.AutoShard(w.shards)
	var subs []*config.Scenario
	if err == nil {
		subs, err = scen.ShardScenarios()
	}
	tr.end()
	pr.shard = time.Since(t0)
	if err != nil {
		return nil, err
	}

	nets := make([]*sim.Network, len(subs))
	for i, sub := range subs {
		pl := sub.Placement()
		t0 = time.Now()
		tr.begin("topo.links", -1)
		links := topo.DiskLinks(pl, sub.Radius)
		tr.end()
		pr.links += time.Since(t0)
		t0 = time.Now()
		tr.begin("topo.tree", -1)
		tree, err := topo.BuildTree(pl, links)
		tr.end()
		pr.tree += time.Since(t0)
		if err != nil {
			return nil, err
		}
		for _, n := range pl.Nodes() {
			pr.linkCount += len(links.Neighbors(n))
		}
		for _, d := range tree.Depth {
			pr.depth = max(pr.depth, d)
		}
		t0 = time.Now()
		tr.begin("sim.network", -1)
		nets[i], err = sub.Network()
		tr.end()
		pr.network += time.Since(t0)
		if err != nil {
			return nil, err
		}
		nets[i].SetParallel(w.workers())
	}
	pr.linkCount /= 2
	return nets, nil
}

// drive runs sense + MINT directly on the shard networks: one MINT
// operator per signature group and shard, attached at the group's widest
// K, as the scheduler acquires it.
func (pr *probe) drive(w *workload, scen *config.Scenario, nets []*sim.Network, tr *tracer, firstID int64) error {
	groupK := map[int]int{}
	for _, q := range w.queries {
		groupK[q[0]] = max(groupK[q[0]], q[1])
	}
	src, err := scen.Source()
	if err != nil {
		return err
	}
	type attached struct {
		op  *mint.Operator
		net int
	}
	var ops []attached
	for sig := range w.signatures {
		k, ok := groupK[sig]
		if !ok {
			continue
		}
		plan, err := planSQL(w.sql(sig, k))
		if err != nil {
			return err
		}
		for i, net := range nets {
			op := mint.New()
			if err := op.Attach(net, plan.Snapshot); err != nil {
				return fmt.Errorf("attaching MINT on shard %d: %w", i, err)
			}
			ops = append(ops, attached{op, i})
		}
	}
	for e := 0; e < probeEpochs; e++ {
		tr.begin("bench.probe_epoch", firstID+int64(e))
		var sense, acquire time.Duration
		for i, net := range nets {
			t0 := time.Now()
			tr.begin("topk.sense", -1)
			readings := topk.SenseEpoch(net, src, model.Epoch(e))
			tr.end()
			sense += time.Since(t0)
			for _, a := range ops {
				if a.net != i {
					continue
				}
				t0 = time.Now()
				tr.begin("topk.mint_epoch", -1)
				_, err := a.op.Epoch(model.Epoch(e), readings)
				tr.end()
				acquire += time.Since(t0)
				if err != nil {
					tr.end()
					return fmt.Errorf("MINT epoch %d: %w", e, err)
				}
			}
		}
		tr.end()
		if e > 0 {
			pr.sense = append(pr.sense, sense)
			pr.mint = append(pr.mint, acquire)
		}
	}
	return nil
}

// planAll times query.PlanText on every SQL text the workload posts.
func (pr *probe) planAll(w *workload, tr *tracer) error {
	sqls := []string{historicSQL}
	for sig := range w.signatures {
		for _, k := range w.churnKs {
			sqls = append(sqls, w.sql(sig, k))
		}
	}
	for range 50 {
		for _, sql := range sqls {
			t0 := time.Now()
			tr.begin("query.plan", -1)
			_, err := planSQL(sql)
			tr.end()
			pr.plan = append(pr.plan, time.Since(t0))
			if err != nil {
				return err
			}
		}
	}
	return nil
}
