package main

import (
	"errors"
	"net"
	"path/filepath"
	"sync"

	"kspot"
	"kspot/internal/config"
	"kspot/internal/wire"
)

// deployment is one opened System plus, on the socket workload, the shard
// servers it coordinates. Every call into a layer runs under a span.
type deployment struct {
	w       *workload
	tr      *tracer
	file    string // the generated scenario, read at every set-up
	dataDir string // socket workload: shard i keeps its data under dataDir/<shard name>
	workers int

	scen    *config.Scenario
	sys     *kspot.System
	servers []*shardServer
	addrs   []string
}

type shardServer struct {
	srv  *wire.Server
	done chan error
}

// open reads the scenario, starts the shard servers when the workload has
// them, and opens the System. Posting the queries is the caller's part
// of set-up.
func (d *deployment) open() error {
	d.tr.begin("config.load", -1)
	scen, err := config.Load(d.file)
	d.tr.end()
	if err != nil {
		return err
	}
	d.scen = scen
	var opts []kspot.OpenOption
	if d.w.tenants > 0 {
		// Quotas leave room for one replacement posted before its victim
		// closes; the workload never hits them.
		perTenant := (len(d.w.queries)+1)/d.w.tenants + 2
		opts = append(opts, kspot.WithAdmission(kspot.AdmissionConfig{
			MaxQueries:  len(d.w.queries) + d.w.tenants + 2,
			TenantQuota: perTenant,
		}))
	}
	if !d.w.socket {
		d.tr.begin("kspot.open", -1)
		d.sys, err = kspot.Open(scen, append(opts, kspot.WithParallel(d.workers))...)
		d.tr.end()
		return err
	}
	n := len(scen.Shards)
	d.addrs = make([]string, n)
	for i := range d.addrs {
		d.addrs[i] = "127.0.0.1:0"
	}
	if err := d.startShards(); err != nil {
		return err
	}
	d.tr.begin("kspot.open", -1)
	d.sys, err = kspot.OpenFederated(scen, d.addrs, opts...)
	d.tr.end()
	return err
}

func (d *deployment) shardDir(i int) string {
	return filepath.Join(d.dataDir, d.scen.ShardName(i))
}

// startShards starts one wire.Server per shard on its data dir, all at
// once the way separate shard processes would start, listening on
// d.addrs (port 0 picks one; a restart re-binds the same address).
func (d *deployment) startShards() error {
	d.tr.begin("wire.start", -1)
	defer d.tr.end()
	n := len(d.addrs)
	d.servers = make([]*shardServer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.servers[i], errs[i] = d.startShard(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.stopShards()
		return err
	}
	return nil
}

func (d *deployment) startShard(i int) (*shardServer, error) {
	srv, err := wire.NewServer(wire.ServerConfig{
		Scenario: d.scen,
		Shard:    i,
		Parallel: d.workers,
		DataDir:  d.shardDir(i),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", d.addrs[i])
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.addrs[i] = ln.Addr().String()
	if d.tr.on {
		ln = timedListener{Listener: ln, tr: d.tr, shard: i}
	}
	s := &shardServer{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (d *deployment) stopShards() {
	for _, s := range d.servers {
		if s != nil {
			s.srv.Close()
			<-s.done
		}
	}
	d.servers = nil
}

// close closes the System and stops the shard servers.
func (d *deployment) close() {
	if d.sys != nil {
		d.tr.begin("kspot.close", -1)
		d.sys.Close()
		d.tr.end()
		d.sys = nil
	}
	d.stopShards()
}
