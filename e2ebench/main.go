// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the public API of each layer from a single
// closed-loop goroutine, checks every delivered answer against its
// oracle, and prints the metrics by name and unit; the last line of its
// standard output is one JSON object. See README.md for the workloads,
// the metrics and the layer map.
//
//	go build -o e2ebench.bin . && ./e2ebench.bin --workload flat-scale --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same workload twice on the same seed, untraced and then traced, each
// for half the run, and reports the per-layer metrics from the traced run;
// the spans are written under <out>/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: flat-scale, fed-live-serve or fed-socket-durable")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (trace seed and query-churn order)")
	seconds := flag.Int("seconds", 10, "length of the measured closed loop")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for the run's scratch data and span files")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
}

func run(name string, seed int64, seconds time.Duration, traced bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := measureWorkload(w, seed, seconds, traced, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// measureWorkload runs a workload once (untraced) or twice (untraced,
// then traced on the same seed) and assembles the result.
func measureWorkload(w *workload, seed int64, seconds time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(filepath.Join(out, "work"), 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(filepath.Join(out, "work"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	p, err := prepare(w, seed, workDir)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# workload=%s seed=%d seconds=%.0f trace=%t nodes=%d shards=%d workers=%d\n",
		w.name, seed, seconds.Seconds(), traced, w.nodes, w.shards, w.workers())

	loop := seconds
	if traced {
		// The untraced and the traced pass share the run's length.
		loop = seconds / 2
	}
	a, err := runPass(p, false, loop)
	if err != nil {
		return nil, err
	}
	report(a)
	res := &result{Attempted: a.attempted, Failed: a.failed}
	if !traced {
		res.Metrics = endToEnd(a)
		res.Correct = a.failed == 0
		return res, nil
	}
	b, err := runPass(p, true, loop)
	if err != nil {
		return nil, err
	}
	report(b)
	pr, err := probeLayers(p, b.tr, b.stepID)
	if err != nil {
		return nil, err
	}
	res.Attempted += b.attempted
	res.Failed += b.failed
	agree := a.counts.radio.Messages == b.counts.radio.Messages && a.counts.radio.TxBytes == b.counts.radio.TxBytes
	if !agree {
		res.Failed++
		fmt.Fprintf(os.Stderr, "e2ebench: traced and untraced runs disagree on radio cost: %d/%d msgs, %d/%d tx bytes\n",
			a.counts.radio.Messages, b.counts.radio.Messages, a.counts.radio.TxBytes, b.counts.radio.TxBytes)
	}
	res.Metrics = perLayer(a, b, pr)
	res.Correct = res.Failed == 0
	if err := os.MkdirAll(filepath.Join(out, "traces"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := b.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# spans=%d written to %s\n", len(b.tr.snapshot()), path)
	return res, nil
}

// report prints a pass's failures to standard error.
func report(ps *pass) {
	for _, err := range ps.errs {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
}
