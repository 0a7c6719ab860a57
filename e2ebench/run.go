package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"kspot"
	"kspot/internal/model"
	"kspot/internal/serve"
	"kspot/internal/storage"
	"kspot/internal/topk"
	"kspot/internal/topk/fed"
	"kspot/internal/wire"
)

// seat is one posted continuous query, served the way kspotd serves it:
// each epoch result is published to the query's hub and taken back from a
// subscriber.
type seat struct {
	sig, k int
	tenant string
	cur    *kspot.Cursor
	hub    *serve.Hub
	sub    *serve.Subscriber
}

func (s *seat) close() {
	s.sub.Close()
	s.hub.Close()
	s.cur.Close()
}

// counts are the counters read at the workload's checkpoint.
type counts struct {
	epochs         int
	radio          kspot.RunStats
	fed            fed.Snapshot
	wire           []wire.ClientMetrics
	groups, posted int
}

// pass is one complete run of a workload: set-ups, the measured closed
// loop, restarts and teardown. An untraced pass yields the end-to-end
// metrics; a traced one the per-layer metrics.
type pass struct {
	w       *workload
	tr      *tracer
	d       *deployment
	churn   *churn
	seats   []*seat
	hist    *kspot.Cursor
	histRef []model.Answer
	epoch   model.Epoch // the epoch the next step loop must deliver
	stepID  int64       // span epoch id of the next step loop, unique across restarts

	setup, firstAnswer, recovery        []time.Duration
	epochs, postToAnswer, historic      []sample // measured-loop samples
	loopStart                           time.Time
	loopWall                            time.Duration
	attempted, failed, results, correct int
	admissionRejects                    int
	errs                                []error

	counts       counts
	phase2PerRun []float64
	storage      []storage.StoreStats
	mem0         runtime.MemStats
	loopFirst    int // the epoch the measured loop starts at
	storageOpen  []time.Duration
	allocsPerEp  float64
	gcPer100     float64
	heapInuseMB  float64
	measuredFrom int64 // first and one-past-last step id of the measured loop
	measuredTo   int64
	rssPeakMB    float64
}

// prepared holds the off-the-clock inputs shared by every pass of a run.
type prepared struct {
	w       *workload
	seed    int64
	workDir string
	file    string
	histRef []model.Answer
}

// prepare generates the scenario, writes it where set-up reads it, and
// computes the historic reference answer on the flat scenario: the exact
// ranking over every sensor's buffered window.
func prepare(w *workload, seed int64, workDir string) (*prepared, error) {
	scen, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	file := filepath.Join(workDir, "scenario.json")
	if err := scen.Save(file); err != nil {
		return nil, err
	}
	plan, err := planSQL(historicSQL)
	if err != nil {
		return nil, err
	}
	src, err := scen.Source()
	if err != nil {
		return nil, err
	}
	series, err := storage.BufferSeries(scen.Placement().SensorNodes(), plan.Historic.Window, src.Sample)
	if err != nil {
		return nil, err
	}
	ref := topk.ExactHistoric(topk.HistoricData(series), plan.Historic)
	return &prepared{w: w, seed: seed, workDir: workDir, file: file, histRef: ref}, nil
}

func runPass(p *prepared, traced bool, seconds time.Duration) (*pass, error) {
	w := p.w
	ps := &pass{
		w:       w,
		tr:      newTracer(traced),
		churn:   newChurn(p.seed),
		histRef: p.histRef,
	}
	ps.d = &deployment{w: w, tr: ps.tr, file: p.file, workers: w.workers()}
	defer ps.d.close()
	if w.socket {
		ps.d.dataDir = filepath.Join(p.workDir, fmt.Sprintf("shards-traced-%t", traced))
	}
	// Set-up 0 warms the process and provisions the shard data dirs (on
	// some filesystems creating the segment files dominates, and varies
	// several-fold, which would swamp the set-up being measured); it is
	// not timed. Later set-ups reopen the data dirs under a new
	// coordinator session, as a durable fleet restarts.
	for i := 0; i <= w.setups; i++ {
		if i > 0 {
			ps.teardown()
			// Collect the torn-down deployment now, untimed, so each
			// set-up starts from a heap like a fresh process's instead of
			// paying for its predecessor's garbage.
			runtime.GC()
		}
		if err := ps.coldStart(initialSeats(w)); err != nil {
			return nil, err
		}
		if i == 0 {
			ps.setup, ps.firstAnswer = nil, nil
		}
	}
	if err := ps.measure(seconds); err != nil {
		return nil, err
	}
	ps.teardown()
	return ps, nil
}

func initialSeats(w *workload) []*seat {
	seats := make([]*seat, len(w.queries))
	for i, q := range w.queries {
		seats[i] = &seat{sig: q[0], k: q[1]}
		if w.tenants > 0 {
			seats[i].tenant = fmt.Sprintf("tenant-%d", i%w.tenants)
		}
	}
	return seats
}

// coldStart is one set-up (read the scenario, open, post every query)
// followed by the first epoch — MINT's creation epoch — delivered.
func (ps *pass) coldStart(seats []*seat) error {
	ps.tr.begin("bench.setup", ps.stepID)
	start := time.Now()
	err := ps.d.open()
	if err == nil {
		for _, s := range seats {
			if err = ps.post(s); err != nil {
				break
			}
		}
	}
	if err == nil {
		ps.attempted++
		ps.tr.begin("kspot.post", -1)
		ps.hist, err = ps.d.sys.Post(historicSQL)
		ps.tr.end()
	}
	ps.tr.end()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ps.seats = seats
	ps.epoch = 0
	setupDone := time.Now()
	ps.setup = append(ps.setup, setupDone.Sub(start))
	ps.step()
	ps.firstAnswer = append(ps.firstAnswer, time.Since(setupDone))
	return nil
}

// post posts one continuous query and wires its hub. A refused or failed
// post counts as a failed operation and leaves the seat unposted.
func (ps *pass) post(s *seat) error {
	var opts []kspot.PostOption
	if ps.w.live {
		opts = append(opts, kspot.WithLive())
	}
	if s.tenant != "" {
		opts = append(opts, kspot.WithTenant(s.tenant))
	}
	ps.attempted++
	ps.tr.begin("kspot.post", -1)
	cur, err := ps.d.sys.Post(ps.w.sql(s.sig, s.k), opts...)
	ps.tr.end()
	if err != nil {
		var rej *kspot.AdmissionError
		if errors.As(err, &rej) {
			ps.admissionRejects++
		}
		ps.fail(fmt.Errorf("post %q: %w", ps.w.sql(s.sig, s.k), err))
		return err
	}
	s.cur = cur
	s.hub = serve.NewHub(0)
	s.sub = s.hub.Subscribe()
	return nil
}

func (ps *pass) fail(err error) {
	ps.failed++
	if len(ps.errs) < 8 {
		ps.errs = append(ps.errs, err)
	}
}

// step runs one epoch the way kspotd's epoch loop does: step every cursor
// in turn, publish its result to the cursor's hub and take it from the
// subscriber. It returns when the last cursor's result has been taken.
func (ps *pass) step() {
	ps.tr.begin("bench.epoch", ps.stepID)
	defer ps.tr.end()
	ps.stepID++
	want := ps.epoch
	for _, s := range ps.seats {
		ps.attempted++
		ps.tr.begin("kspot.step", -1)
		res, err := s.cur.Step()
		ps.tr.end()
		if err != nil {
			ps.fail(fmt.Errorf("step %q: %w", s.cur.Query(), err))
			continue
		}
		ps.tr.begin("serve.publish", -1)
		s.hub.Publish(serve.Result{Epoch: res.Epoch, Answers: res.Answers, Correct: res.Correct})
		ps.tr.end()
		ps.tr.begin("serve.deliver", -1)
		got, ok := s.sub.Next()
		ps.tr.end()
		if !ok {
			ps.fail(fmt.Errorf("hub of %q closed", s.cur.Query()))
			continue
		}
		ps.results++
		switch {
		case got.Epoch != want || !got.Correct || !model.EqualAnswers(got.Answers, res.Exact):
			ps.fail(fmt.Errorf("%q epoch %d (want %d): answers %v, oracle %v", s.cur.Query(), got.Epoch, want, got.Answers, res.Exact))
		default:
			ps.correct++
		}
	}
	ps.epoch++
}

// measure is the closed loop: epochs back to back for the run length (and
// at least up to the last restart), with query churn and historic runs
// interleaved. At the checkpoint epoch it reads every counter; from there
// it restarts the deployment every restartEvery epochs, spread out so that
// a passing burst of load on the host touches few of them. Restarts do not
// count toward the run length.
func (ps *pass) measure(seconds time.Duration) error {
	ps.measuredFrom = ps.stepID
	ps.loopStart = time.Now()
	runtime.ReadMemStats(&ps.mem0)
	ps.loopFirst = int(ps.epoch)
	lastRestart := ps.w.checkpoint + (ps.w.restarts-1)*ps.w.restartEvery
	for i := ps.loopFirst; time.Since(ps.loopStart) < seconds || i < lastRestart; i++ {
		var posted time.Time
		var fresh *seat
		if i%ps.w.churnEvery == 0 {
			posted, fresh = ps.churnOne()
		}
		t0 := time.Now()
		delivered := ps.results
		ps.step()
		ps.epochs = append(ps.epochs, ps.sample(t0, ps.results-delivered))
		if fresh != nil {
			ps.postToAnswer = append(ps.postToAnswer, ps.sample(posted, 1))
		}
		if i%ps.w.historicEvery == 0 {
			ps.runHistoric()
		}
		if i+1 == ps.w.checkpoint {
			if err := ps.readCounts(i + 1); err != nil {
				return err
			}
		}
		if since := i + 1 - ps.w.checkpoint; since >= 0 && since%ps.w.restartEvery == 0 && since/ps.w.restartEvery < ps.w.restarts {
			paused := time.Now()
			if err := ps.restart(); err != nil {
				return err
			}
			ps.loopStart = ps.loopStart.Add(time.Since(paused))
		}
	}
	ps.loopWall = time.Since(ps.loopStart)
	ps.measuredTo = ps.stepID
	return nil
}

// sample stamps an operation that started at t0 and ends now.
func (ps *pass) sample(t0 time.Time, answers int) sample {
	now := time.Now()
	return sample{at: now.Sub(ps.loopStart), d: now.Sub(t0), n: answers}
}

// churnOne posts a replacement for a seeded victim, then closes the
// victim — replacement first, so the victim's acquisition group never
// empties. It returns when the replacement was posted.
func (ps *pass) churnOne() (time.Time, *seat) {
	ps.tr.begin("bench.churn", ps.stepID)
	defer ps.tr.end()
	v, k := ps.churn.next(len(ps.seats), ps.w.churnKs)
	victim := ps.seats[v]
	fresh := &seat{sig: victim.sig, k: k, tenant: victim.tenant}
	posted := time.Now()
	if err := ps.post(fresh); err != nil {
		return posted, nil
	}
	ps.tr.begin("kspot.cursor_close", -1)
	victim.close()
	ps.tr.end()
	ps.seats = append(append(ps.seats[:v:v], ps.seats[v+1:]...), fresh)
	return posted, fresh
}

// runHistoric runs the historic query once and checks it against the
// flat reference.
func (ps *pass) runHistoric() {
	ps.tr.begin("bench.historic", ps.stepID-1)
	defer ps.tr.end()
	before := ps.d.sys.FederationStats()
	ps.attempted++
	ps.tr.begin("kspot.run", -1)
	t0 := time.Now()
	got, err := ps.hist.Run()
	ps.historic = append(ps.historic, ps.sample(t0, 1))
	ps.tr.end()
	after := ps.d.sys.FederationStats()
	ps.phase2PerRun = append(ps.phase2PerRun, float64(after.Phase2Reqs-before.Phase2Reqs))
	if err != nil {
		ps.fail(fmt.Errorf("historic run: %w", err))
		return
	}
	ps.results++
	if !model.EqualAnswers(got, ps.histRef) {
		ps.fail(fmt.Errorf("historic answers %v, flat reference %v", got, ps.histRef))
		return
	}
	ps.correct++
}

// readCounts reads every counter once, after a fixed epoch count, so
// that none depends on how many epochs fit in the run: the exact radio,
// federation and wire counts, the store's size, and the process's
// allocations and memory.
func (ps *pass) readCounts(epochs int) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := float64(epochs - ps.loopFirst)
	ps.allocsPerEp = float64(mem.Mallocs-ps.mem0.Mallocs) / n
	ps.gcPer100 = float64(mem.NumGC-ps.mem0.NumGC) / n * 100
	ps.heapInuseMB = float64(mem.HeapInuse) / (1 << 20)
	ps.rssPeakMB = rssPeakMB()
	ps.tr.begin("bench.counters", -1)
	defer ps.tr.end()
	if ps.w.socket {
		ss, err := ps.d.sys.StorageStats()
		if err != nil {
			return fmt.Errorf("storage stats: %w", err)
		}
		ps.storage = ss
	}
	rows, err := ps.d.sys.ShardStats()
	if err != nil {
		return fmt.Errorf("shard stats: %w", err)
	}
	c := counts{epochs: epochs, fed: ps.d.sys.FederationStats(), wire: ps.d.sys.WireMetrics()}
	for _, r := range rows {
		c.radio.Messages += r.Messages
		c.radio.TxBytes += r.TxBytes
		c.radio.Drops += r.Drops
		c.radio.EnergyUJ += r.EnergyUJ
	}
	groups := map[string]bool{}
	for _, s := range ps.seats {
		plan, err := planSQL(ps.w.sql(s.sig, s.k))
		if err != nil {
			return err
		}
		groups[plan.SenseKey] = true
	}
	c.groups, c.posted = len(groups), len(ps.seats)
	ps.counts = c
	return nil
}

// restart recovers the deployment and delivers the next epoch. Socket
// shards restart on their data dirs under the running coordinator; the
// in-process deployments keep nothing on disk, so they recover by a cold
// start of the same queries.
func (ps *pass) restart() error {
	start := time.Now()
	ps.tr.begin("bench.restart", ps.stepID)
	if ps.w.socket {
		ps.d.stopShards()
		var err error
		if ps.tr.on {
			err = ps.timeStorageOpen()
		}
		if err == nil {
			err = ps.d.startShards()
		}
		ps.tr.end()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		ps.step()
	} else {
		seats := make([]*seat, len(ps.seats))
		for i, s := range ps.seats {
			seats[i] = &seat{sig: s.sig, k: s.k, tenant: s.tenant}
		}
		ps.teardown()
		ps.tr.end()
		if err := ps.coldStart(seats); err != nil {
			return err
		}
	}
	ps.recovery = append(ps.recovery, time.Since(start))
	return nil
}

// teardown closes every seat and the deployment.
func (ps *pass) teardown() {
	for _, s := range ps.seats {
		if s.cur != nil {
			s.close()
		}
	}
	ps.seats = nil
	if ps.hist != nil {
		ps.hist.Close()
		ps.hist = nil
	}
	ps.d.close()
}

// timeStorageOpen reopens each stopped shard's segment store, as its
// restart is about to, and closes it again.
func (ps *pass) timeStorageOpen() error {
	for i := range ps.d.scen.Shards {
		ps.tr.begin("storage.open", -1)
		t0 := time.Now()
		st, err := storage.OpenStore(ps.d.shardDir(i), storage.DefaultStoreWindow)
		d := time.Since(t0)
		ps.tr.end()
		if err != nil {
			return fmt.Errorf("reopening shard store: %w", err)
		}
		if err := st.Close(); err != nil {
			return err
		}
		ps.storageOpen = append(ps.storageOpen, d)
	}
	return nil
}

// rssPeakMB reads the process's peak resident set from /proc.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
