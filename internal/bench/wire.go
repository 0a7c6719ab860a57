package bench

// The wire epoch-round benchmark: what one federated epoch costs when the
// socket has real propagation latency. wire.Faults' LinkDelay injects a
// symmetric per-frame delay on the client's socket path (RTT =
// 2×LinkDelay), and a G-group epoch runs against a real shard server as
// ONE MsgEpochRound frame carrying the sense and every group's
// acquisition.
//
// BenchmarkWireEpochRTT (module root) and the trajectory's
// wire-epoch-batched entry both run this body; wire calls and wire bytes
// per epoch record the protocol's cost independent of host speed.

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"kspot/internal/config"
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/wire"
)

// WireRTTGroups is the shared-acquisition group count G of the benchmark:
// every group rides the epoch's one round trip.
const WireRTTGroups = 4

// WireRTTLinkDelay is the injected one-way propagation delay of the
// benchmark (RTT = 2×WireRTTLinkDelay) — large against loopback
// scheduling noise, small enough to keep the benchmark quick.
const WireRTTLinkDelay = time.Millisecond

// wireRig is one deployment: a real shard server for the Figure-3
// scenario on loopback, dialed by one client with link delay armed, with
// G separately attached groups.
type wireRig struct {
	cl  *wire.Client
	ids []uint32
}

func newWireRig(linkDelay time.Duration, groups int) (*wireRig, func(), error) {
	scen := config.Figure3Scenario()
	srv, err := wire.NewServer(wire.ServerConfig{Scenario: scen, Shard: 0})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	go srv.Serve(ln)
	roster := make([]model.NodeID, 0, len(scen.Nodes))
	for _, n := range scen.Nodes {
		roster = append(roster, model.NodeID(n.ID))
	}
	slices.Sort(roster)
	cl, err := wire.Dial(wire.ClientConfig{
		Addr:     ln.Addr().String(),
		Scenario: scen.Name,
		Shard:    0,
		Shards:   1,
		Nodes:    len(scen.Nodes),
		Roster:   roster,
		Faults:   &wire.Faults{LinkDelay: linkDelay},
	})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	rig := &wireRig{cl: cl, ids: make([]uint32, groups)}
	for i := range rig.ids {
		rig.ids[i] = uint32(i + 1)
		// G separately attached queries = G groups; the SQL is the same,
		// the protocol cost per group is what matters.
		att := engine.Attachment{Algo: "mint", SQL: "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid"}
		if err := cl.Attach(rig.ids[i], att); err != nil {
			cl.Close()
			srv.Close()
			return nil, nil, err
		}
	}
	return rig, func() { cl.Close(); srv.Close() }, nil
}

// epoch drives one coordinator epoch: one round trip.
func (r *wireRig) epoch(e model.Epoch) error {
	_, results, err := r.cl.EpochRound(e, r.ids)
	if err != nil {
		return err
	}
	for _, g := range results {
		if g.Err != nil {
			return g.Err
		}
	}
	return nil
}

// perEpoch returns the wire calls and bytes (both directions, frame
// headers included) per epoch between two metric snapshots.
func perEpoch(m0, m1 wire.ClientMetrics, epochs int) (calls, bytes float64) {
	n := float64(epochs)
	return float64(m1.Calls-m0.Calls) / n, float64((m1.BytesOut-m0.BytesOut)+(m1.BytesIn-m0.BytesIn)) / n
}

// RunWireEpochRTTBench is the shared measurement body: b.N steady-state
// epochs (the attach and a warm-up epoch are off the timer), returning
// wire calls and bytes per epoch.
func RunWireEpochRTTBench(b *testing.B, linkDelay time.Duration, groups int) (callsPerEpoch, bytesPerEpoch float64) {
	rig, cleanup, err := newWireRig(linkDelay, groups)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if err := rig.epoch(0); err != nil {
		b.Fatal(err)
	}
	m0 := rig.cl.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.epoch(model.Epoch(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		callsPerEpoch, bytesPerEpoch = perEpoch(m0, rig.cl.Metrics(), b.N)
	}
	return callsPerEpoch, bytesPerEpoch
}

// MeasureWireEpochRound runs a fixed number of steady-state epochs after
// a warm-up one and returns the wall time, wire calls and wire bytes per
// epoch. A fixed epoch count makes calls and bytes deterministic: they
// depend on the scenario's readings, never on the host.
func MeasureWireEpochRound(linkDelay time.Duration, groups, epochs int) (nsPerEpoch, callsPerEpoch, bytesPerEpoch float64, err error) {
	rig, cleanup, err := newWireRig(linkDelay, groups)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cleanup()
	if err := rig.epoch(0); err != nil {
		return 0, 0, 0, fmt.Errorf("bench: wire round warm-up: %w", err)
	}
	m0 := rig.cl.Metrics()
	start := time.Now()
	for i := 0; i < epochs; i++ {
		if err := rig.epoch(model.Epoch(i + 1)); err != nil {
			return 0, 0, 0, fmt.Errorf("bench: wire round epoch %d: %w", i+1, err)
		}
	}
	nsPerEpoch = float64(time.Since(start).Nanoseconds()) / float64(epochs)
	callsPerEpoch, bytesPerEpoch = perEpoch(m0, rig.cl.Metrics(), epochs)
	return nsPerEpoch, callsPerEpoch, bytesPerEpoch, nil
}
