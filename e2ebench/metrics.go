package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// wireLatencyRing is how many recent calls wire.ClientMetrics computes its
// RTT percentiles over.
const wireLatencyRing = 512

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile[T ~int64 | ~float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + T(frac*float64(s[i+1]-s[i]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// sample is one timed operation of the measured loop.
type sample struct {
	at time.Duration // when it ended, from the start of the loop
	d  time.Duration
	n  int // answers it delivered
}

// maxBlocks bounds how many spans the loop is cut into. Spans of a few
// hundred milliseconds are shorter than the stretches in which load from
// elsewhere on a shared host slows the process, so some spans fall wholly
// in quiet stretches.
const maxBlocks = 40

// quietShare is the quantile across spans that loop timings report: the
// figure of the quietest quarter of the loop. A program that gets slower
// is slower in every span and moves it in full; load from elsewhere on the
// host moves it only when it covers more than three quarters of the loop.
const quietShare = 0.25

// blocks drops the warm-up (the first tenth of the loop) and splits the
// remaining samples into consecutive, equally long spans of the loop,
// each holding on average at least minPer samples (at most maxBlocks
// spans).
func blocks(ss []sample, wall time.Duration, minPer int) [][]sample {
	warm := wall / 10
	var kept []sample
	for _, s := range ss {
		if s.at >= warm {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		kept = ss
		warm = 0
	}
	n := min(maxBlocks, max(1, len(kept)/minPer))
	span := (wall - warm) / time.Duration(n)
	spans := make([][]sample, n)
	for _, s := range kept {
		i := min(n-1, max(0, int((s.at-warm)/span)))
		spans[i] = append(spans[i], s)
	}
	return spans
}

// blockQuantile is the quietShare-quantile over blocks of each block's
// q-quantile. Each block holds on average at least five samples at or
// above its q-quantile: 10 for a median, 50 for a 90th percentile.
func blockQuantile(ss []sample, wall time.Duration, q float64) time.Duration {
	spans := blocks(ss, wall, int(math.Round(5/(1-q))))
	var per []time.Duration
	for _, b := range spans {
		if len(b) == 0 {
			continue
		}
		ds := make([]time.Duration, len(b))
		for i, s := range b {
			ds[i] = s.d
		}
		per = append(per, quantile(ds, q))
	}
	return quantile(per, quietShare)
}

// blockRate is the answers delivered per second in the quietest quarter
// of the blocks: their (1-quietShare)-quantile. A block's rate counts the
// answers delivered after its first epoch ended until its last ended, over
// that time, so where the block's edges cut an epoch does not matter.
func blockRate(ss []sample, wall time.Duration) float64 {
	spans := blocks(ss, wall, 10)
	var per []float64
	for _, b := range spans {
		if len(b) < 2 {
			continue
		}
		n := 0
		for _, s := range b[1:] {
			n += s.n
		}
		per = append(per, float64(n)/(b[len(b)-1].at-b[0].at).Seconds())
	}
	return quantile(per, 1-quietShare)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// endToEnd is what a user of the system sees, from an untraced pass.
func endToEnd(a *pass) map[string]metric {
	c := a.counts
	return map[string]metric{
		"setup_s":               {median(a.setup).Seconds(), "s"},
		"first_answer_ms":       {ms(median(a.firstAnswer)), "ms"},
		"epoch_ms_p50":          {ms(blockQuantile(a.epochs, a.loopWall, 0.5)), "ms"},
		"epoch_ms_p90":          {ms(blockQuantile(a.epochs, a.loopWall, 0.9)), "ms"},
		"answers_per_s":         {blockRate(a.epochs, a.loopWall), "1/s"},
		"post_to_answer_ms_p50": {ms(blockQuantile(a.postToAnswer, a.loopWall, 0.5)), "ms"},
		"historic_ms_p50":       {ms(blockQuantile(a.historic, a.loopWall, 0.5)), "ms"},
		"historic_ms_p90":       {ms(blockQuantile(a.historic, a.loopWall, 0.9)), "ms"},
		"recovery_ms":           {ms(median(a.recovery)), "ms"},
		"msgs_per_epoch":        {ratio(c.radio.Messages, c.epochs), "count"},
		"tx_bytes_per_epoch":    {ratio(c.radio.TxBytes, c.epochs), "bytes"},
		"correct_ratio":         {ratio(a.correct, a.results), "ratio"},
		"success_ratio":         {1 - ratio(a.failed, a.attempted), "ratio"},
		"rss_peak_mb":           {a.rssPeakMB, "MB"},
	}
}

// perLayer reads the traced pass b's spans and counters, the direct
// probe, and the untraced pass a for the process-level counters (tracing
// allocates, so a's are the program's own).
func perLayer(a, b *pass, pr *probe) map[string]metric {
	tr := b.tr
	c := b.counts
	med := func(name string) time.Duration { return median(tr.durations(name)) }
	perEpoch := func(n float64) float64 { return n / float64(c.epochs) }

	step := median(tr.perEpoch("kspot.step", b.measuredFrom, b.measuredTo))
	sense, acquire := median(pr.sense), median(pr.mint)

	// Wire: the slowest shard's client-side RTT, from the client's ring
	// of its latest calls at the checkpoint, against the shard-side time
	// of the same calls.
	var calls, rounds, retries, wireBytes, rtt50, rtt99 int64
	slowest := -1
	for i, m := range c.wire {
		calls += m.Calls
		rounds += m.Rounds
		retries += m.Retries
		wireBytes += m.BytesIn + m.BytesOut
		if slowest < 0 || m.P50Micros > rtt50 {
			slowest, rtt50 = i, m.P50Micros
		}
		rtt99 = max(rtt99, m.P99Micros)
	}
	spans := tr.snapshot()
	var checkpoint int64
	for _, s := range spans {
		if s.Name == "bench.counters" {
			checkpoint = s.Start
		}
	}
	var exec []span
	for _, s := range spans {
		if s.Name == "wire.exec" && s.Shard == slowest && s.End <= checkpoint {
			exec = append(exec, s)
		}
	}
	slices.SortFunc(exec, func(x, y span) int { return cmp.Compare(x.End, y.End) })
	var execDur []time.Duration
	for _, s := range exec[max(0, len(exec)-wireLatencyRing):] {
		execDur = append(execDur, s.dur())
	}
	execP50 := median(execDur)
	wait := 0.0
	if rtt50 > 0 {
		wait = float64(rtt50) - us(execP50)
	}

	var segments, diskBytes, recorded int64
	for _, s := range b.storage {
		segments += int64(s.Segments)
		diskBytes += s.Bytes
		if s.HasEpoch {
			recorded = max(recorded, int64(s.LastEpoch)+1)
		}
	}
	var phase2 float64
	for _, v := range b.phase2PerRun {
		phase2 += v
	}
	if n := len(b.phase2PerRun); n > 0 {
		phase2 /= float64(n)
	}
	return map[string]metric{
		"config.load_ms":  {ms(med("config.load")), "ms"},
		"config.shard_ms": {ms(pr.shard), "ms"},
		"topo.links_ms":   {ms(pr.links), "ms"},
		"topo.tree_ms":    {ms(pr.tree), "ms"},
		"topo.links":      {float64(pr.linkCount), "count"},
		"topo.depth":      {float64(pr.depth), "count"},
		"sim.network_ms":  {ms(pr.network), "ms"},
		"kspot.open_ms":   {ms(med("kspot.open")), "ms"},
		"kspot.close_ms":  {ms(med("kspot.close")), "ms"},

		"topk.sense_ms_p50":           {ms(sense), "ms"},
		"topk.mint_epoch_ms_p50":      {ms(acquire), "ms"},
		"kspot.step_ms_p50":           {ms(step), "ms"},
		"engine.step_overhead_ms_p50": {ms(step - sense - acquire), "ms"},

		"sim.messages_per_epoch": {perEpoch(float64(c.radio.Messages)), "count"},
		"sim.tx_bytes_per_epoch": {perEpoch(float64(c.radio.TxBytes)), "bytes"},
		"sim.drops_per_epoch":    {perEpoch(float64(c.radio.Drops)), "count"},
		"sim.energy_j_per_epoch": {perEpoch(c.radio.EnergyUJ / 1e6), "J"},

		"engine.queries_per_acquisition": {ratio(c.posted, c.groups), "ratio"},
		"engine.admission_rejects":       {float64(b.admissionRejects), "count"},
		"kspot.post_us_p50":              {us(med("kspot.post")), "us"},
		"query.plan_us_p50":              {us(median(pr.plan)), "us"},
		"serve.publish_us_p50":           {us(med("serve.publish")), "us"},
		"serve.deliver_us_p50":           {us(med("serve.deliver")), "us"},

		"fed.coord_bytes_per_epoch": {perEpoch(float64(c.fed.TxBytes)), "bytes"},
		"fed.rounds_per_epoch":      {perEpoch(float64(c.fed.Rounds)), "count"},
		"fed.phase2_reqs_per_run":   {phase2, "count"},
		"kspot.run_ms_p50":          {ms(med("kspot.run")), "ms"},

		"wire.calls_per_epoch":    {perEpoch(float64(calls)), "count"},
		"wire.rounds_per_epoch":   {perEpoch(float64(rounds)), "count"},
		"wire.retries":            {float64(retries), "count"},
		"wire.bytes_per_epoch":    {perEpoch(float64(wireBytes)), "bytes"},
		"wire.rtt_us_p50":         {float64(rtt50), "us"},
		"wire.rtt_us_p99":         {float64(rtt99), "us"},
		"wire.shard_exec_us_p50":  {us(execP50), "us"},
		"wire.client_wait_us_p50": {wait, "us"},

		"storage.segments":             {float64(segments), "count"},
		"storage.disk_bytes":           {float64(diskBytes), "bytes"},
		"storage.disk_bytes_per_epoch": {ratio(int(diskBytes), int(recorded)), "bytes"},
		"storage.open_ms":              {ms(median(b.storageOpen)), "ms"},

		"go.allocs_per_epoch":  {a.allocsPerEp, "count"},
		"go.gc_per_100_epochs": {a.gcPer100, "count"},
		"go.heap_inuse_mb":     {a.heapInuseMB, "MB"},

		"bench.trace_overhead_pct": {(ms(blockQuantile(b.epochs, b.loopWall, 0.5))/ms(blockQuantile(a.epochs, a.loopWall, 0.5)) - 1) * 100, "%"},
	}
}
