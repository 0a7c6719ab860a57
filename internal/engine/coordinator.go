package engine

import (
	"fmt"
	"sync"

	"kspot/internal/model"
)

// MergeFunc combines per-shard answer rankings into the global answer —
// the coordinator tier's merge step. shardAnswers[i] is shard i's local
// ranking for the epoch; internal/topk/fed provides the TPUT-style
// threshold implementation. A nil MergeFunc is legal only on single-shard
// deployments (the answers pass through).
type MergeFunc func(shardAnswers [][]model.Answer) ([]model.Answer, error)

// mergeShards runs a member's merge over the per-shard rankings.
func mergeShards(merge MergeFunc, perShard [][]model.Answer) ([]model.Answer, error) {
	if merge == nil {
		if len(perShard) != 1 {
			return nil, fmt.Errorf("engine: %d shards need a merge function", len(perShard))
		}
		return perShard[0], nil
	}
	return merge(perShard)
}

// RunShards invokes fn once per shard and returns the first error by
// shard order, tagged with the shard's name. Shards run concurrently:
// distinct shards are distinct state machines (their own network, link
// rng, ledger, counters and operators, or their own process behind a
// socket), so per-shard results are reproducible regardless of
// interleaving. A single shard runs on the caller's goroutine.
func RunShards(shards []RoundShard, fn func(i int, sh RoundShard) error) error {
	errs := make([]error, len(shards))
	if len(shards) == 1 {
		errs[0] = fn(0, shards[0])
	} else {
		var wg sync.WaitGroup
		for i, sh := range shards {
			wg.Add(1)
			go func(i int, sh RoundShard) {
				defer wg.Done()
				errs[i] = fn(i, sh)
			}(i, sh)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: shard %s: %w", shards[i].Name(), err)
		}
	}
	return nil
}

// MergeReadings unions per-shard readings into one map for the oracle;
// the single-shard case passes its map through without copying (the flat
// hot path stays allocation-lean).
func MergeReadings(per []map[model.NodeID]model.Reading) map[model.NodeID]model.Reading {
	if len(per) == 1 {
		return per[0]
	}
	n := 0
	for _, m := range per {
		n += len(m)
	}
	out := make(map[model.NodeID]model.Reading, n)
	for _, m := range per {
		for id, r := range m {
			out[id] = r
		}
	}
	return out
}
