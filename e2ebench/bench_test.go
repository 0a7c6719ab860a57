package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kspot/internal/config"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func checkMetrics(t *testing.T, got map[string]metric, want []metricDecl) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestShortRuns runs every declared workload briefly, untraced and
// traced: every declared metric must come out with its declared unit,
// every answer must match its oracle, and the written spans must nest.
func TestShortRuns(t *testing.T) {
	decl := readBenchmarkFile(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for _, wd := range decl.Workloads {
		t.Run(wd.Name, func(t *testing.T) {
			w, err := findWorkload(wd.Name)
			if err != nil {
				t.Fatal(err)
			}
			out := t.TempDir()
			plain, err := measureWorkload(w, 3, time.Second, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", plain.Correct, plain.Attempted, plain.Failed)
			}
			checkMetrics(t, plain.Metrics, decl.EndToEnd)
			for _, d := range decl.EndToEnd {
				if v := plain.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}

			traced, err := measureWorkload(w, 3, time.Second, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", traced.Correct, traced.Failed)
			}
			checkMetrics(t, traced.Metrics, decl.PerLayer)
			checkSpans(t, filepath.Join(out, "traces", fmt.Sprintf("%s-seed3.json", w.name)))

			if w.name == "flat-scale" {
				// The direct sense + MINT drive must account for the bulk
				// of a step, and not for more than all of it.
				step := traced.Metrics["kspot.step_ms_p50"].Value
				layers := traced.Metrics["topk.sense_ms_p50"].Value + traced.Metrics["topk.mint_epoch_ms_p50"].Value
				if layers < 0.5*step || layers > 1.25*step {
					t.Errorf("sense+MINT %.2f ms does not reconcile with kspot.step_ms_p50 %.2f ms", layers, step)
				}
			}
		})
	}
}

// checkSpans reads a written span file and checks its structure: every
// parent is present, children lie within their parent and share its
// epoch id, and each epoch id has exactly one step loop.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range doc.Spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
	}
	names := map[string]int{}
	loops := map[int64]int{}
	for _, s := range doc.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Name == "bench.epoch" {
			loops[s.Epoch]++
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] outside parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Epoch != p.Epoch {
			t.Errorf("span %d %s: epoch %d, parent %s epoch %d", s.ID, s.Name, s.Epoch, p.Name, p.Epoch)
		}
	}
	for e, n := range loops {
		if n != 1 {
			t.Errorf("epoch id %d has %d step loops", e, n)
		}
	}
	for _, name := range []string{"bench.epoch", "kspot.step", "serve.publish", "serve.deliver", "kspot.post", "kspot.run", "kspot.open", "config.load", "topk.sense", "topk.mint_epoch", "topo.links", "sim.network", "query.plan"} {
		if names[name] == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}

func TestScaleSizeGuard(t *testing.T) {
	for _, n := range []int{0, 19, 1010, 65540, 100000} {
		err := checkScaleSize(n)
		if err == nil {
			t.Errorf("size %d accepted", n)
			continue
		}
		if n > 65535 && !strings.Contains(err.Error(), "65535") {
			t.Errorf("size %d: error %q does not name the id limit", n, err)
		}
	}
	for _, n := range []int{20, 1000, 8000, 65520} {
		if err := checkScaleSize(n); err != nil {
			t.Errorf("size %d refused: %v", n, err)
		}
	}
}

// TestSeedReachesInputs: the seed is the scenario's trace seed and
// nothing else changes; the generated scale-1000 layout is the committed
// scenario file's.
func TestSeedReachesInputs(t *testing.T) {
	w, err := findWorkload("fed-socket-durable")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.generate(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Workload.Seed != 1 || b.Workload.Seed != 2 {
		t.Fatalf("trace seeds %d, %d", a.Workload.Seed, b.Workload.Seed)
	}
	b.Workload.Seed = 1
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeds change more than the trace seed")
	}
	committed, err := config.Load("../scenarios/scale-1000.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed.Nodes, a.Nodes) {
		t.Fatal("generated scale-1000 layout differs from scenarios/scale-1000.json")
	}
	c1, c2 := newChurn(1), newChurn(2)
	same := true
	for range 8 {
		v1, k1 := c1.next(16, ks)
		v2, k2 := c2.next(16, ks)
		same = same && v1 == v2 && k1 == k2
	}
	if same {
		t.Fatal("churn order does not depend on the seed")
	}
}
