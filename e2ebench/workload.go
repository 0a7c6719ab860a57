package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"kspot/internal/config"
	"kspot/internal/model"
)

// workload is one named input set of the benchmark. README.md records why
// each was chosen and which layers it loads.
type workload struct {
	name   string
	nodes  int  // config.ScaleScenario size
	shards int  // AutoShard count; 1 = flat
	socket bool // shards served by wire.Servers over loopback, each with a data dir
	live   bool // queries on the goroutine-per-node Live substrate
	// tenants > 0 arms admission control with that many tenants, posting
	// query i as tenant i%tenants.
	tenants int

	// signatures are the workload's sensing signatures as SQL with a %d
	// for K; queries lists the initial continuous queries as
	// (signature index, K) pairs. Churn replaces a query by one of the
	// same signature with a K drawn from churnKs, so the set of
	// acquisition groups — and with it the per-epoch work — does not
	// depend on the seed.
	signatures []string
	queries    [][2]int
	churnKs    []int

	churnEvery    int // every n-th epoch one query is replaced
	historicEvery int // every n-th epoch the historic query runs
	setups        int // timed set-ups per run, after one untimed; the last one serves the run
	// checkpoint is the epoch count at which every counter is read and
	// the first restart happens, so that the exact counts depend on the
	// seed alone, and memory and recovery on fixed run lengths in epochs,
	// not on how many epochs fit in the run on a given host.
	checkpoint   int
	restarts     int // restarts, one every restartEvery epochs from the checkpoint
	restartEvery int
}

const historicSQL = "SELECT TOP 4 epoch, AVG(sound) FROM sensors WITH HISTORY 16"

var ks = []int{1, 2, 3, 5}

var workloads = []*workload{
	{
		name: "flat-scale", nodes: 8000, shards: 1,
		signatures: []string{
			"SELECT TOP %d roomid, AVG(sound) FROM sensors GROUP BY roomid",
			"SELECT TOP %d roomid, MAX(temp) FROM sensors GROUP BY roomid",
		},
		queries:    [][2]int{{0, 3}, {1, 5}},
		churnKs:    ks,
		churnEvery: 10, historicEvery: 4,
		setups:     1,
		checkpoint: 100, restarts: 5, restartEvery: 40,
	},
	{
		name: "fed-live-serve", nodes: 1000, shards: 4, live: true, tenants: 4,
		signatures: []string{
			"SELECT TOP %d roomid, AVG(sound) FROM sensors GROUP BY roomid",
			"SELECT TOP %d roomid, MAX(temp) FROM sensors GROUP BY roomid",
			"SELECT TOP %d roomid, AVG(light) FROM sensors GROUP BY roomid",
			"SELECT TOP %d roomid, MIN(temp) FROM sensors GROUP BY roomid",
		},
		queries:    allPairs(4, ks),
		churnKs:    ks,
		churnEvery: 10, historicEvery: 4,
		setups:     5,
		checkpoint: 300, restarts: 20, restartEvery: 20,
	},
	{
		name: "fed-socket-durable", nodes: 1000, shards: 2, socket: true,
		signatures: []string{
			"SELECT TOP %d roomid, AVG(sound) FROM sensors GROUP BY roomid",
			"SELECT TOP %d roomid, MAX(temp) FROM sensors GROUP BY roomid",
		},
		queries:    [][2]int{{0, 3}, {0, 5}, {1, 2}},
		churnKs:    ks,
		churnEvery: 10, historicEvery: 4,
		setups:     31,
		checkpoint: 300, restarts: 17, restartEvery: 25,
	},
}

func allPairs(sigs int, ks []int) [][2]int {
	var out [][2]int
	for s := 0; s < sigs; s++ {
		for _, k := range ks {
			out = append(out, [2]int{s, k})
		}
	}
	return out
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (w *workload) sql(sig, k int) string { return fmt.Sprintf(w.signatures[sig], k) }

// workers is the epoch-sweep worker bound per shard network: the CPU
// count, split between the socket workload's shard servers, which share
// this process.
func (w *workload) workers() int {
	if w.socket {
		return max(1, runtime.NumCPU()/w.shards)
	}
	return runtime.NumCPU()
}

// maxScaleNodes is the largest sensor count whose ids fit model.NodeID
// (the sink takes id 0, sensors 1..n); derived from the type so the guard
// follows a widened id.
const maxScaleNodes = int(^model.NodeID(0))

// scalePerRoom is config.ScaleScenario's room size.
const scalePerRoom = 20

// checkScaleSize refuses a scale size the generator cannot express
// faithfully: sizes that are not a positive multiple of the room size,
// and sizes beyond the node-id domain, which topo.Rooms would silently
// wrap into a smaller network with reused ids.
func checkScaleSize(n int) error {
	if n < scalePerRoom || n%scalePerRoom != 0 {
		return fmt.Errorf("scale size %d: must be a positive multiple of %d", n, scalePerRoom)
	}
	if n > maxScaleNodes {
		return fmt.Errorf("scale size %d exceeds the node-id domain: model.NodeID holds at most %d sensors", n, maxScaleNodes)
	}
	return nil
}

// generate builds the workload's scenario for a seed: the scale layout,
// the seed as the trace (and radio) seed, and the shards block.
func (w *workload) generate(seed int64) (*config.Scenario, error) {
	if err := checkScaleSize(w.nodes); err != nil {
		return nil, err
	}
	s, err := config.ScaleScenario(w.nodes)
	if err != nil {
		return nil, err
	}
	s.Workload.Seed = seed
	if err := s.AutoShard(w.shards); err != nil {
		return nil, err
	}
	return s, nil
}

// churn is the seeded query-churn order: which posted query is replaced
// and the K of its replacement.
type churn struct{ rng *rand.Rand }

func newChurn(seed int64) *churn { return &churn{rng: rand.New(rand.NewSource(seed))} }

func (c *churn) next(active int, ks []int) (victim, k int) {
	return c.rng.Intn(active), ks[c.rng.Intn(len(ks))]
}
