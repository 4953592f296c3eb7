// Package fleet is the data-parallel serving layer: it shards a request
// trace across N concurrently-running TD-Pipe engine replicas and
// merges their per-replica reports into one fleet-level report. Each
// replica is a full core engine on its own virtual-time substrate, so
// replicas simulate independently and the fleet runs them on real
// goroutines; the merge is deterministic because replicas are combined
// in index order regardless of completion order.
//
// Dispatch is pluggable: a Policy picks a replica per request
// (round-robin, seeded random, least known work, or predicted-cost
// using the paper's output-length classifier), and the built-in
// policies are looked up by name so binaries can select them via a
// flag.
package fleet

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Shard is the portion of a trace dispatched to one replica.
type Shard struct {
	// Reqs are the replica's requests, renumbered to the dense IDs the
	// core engine requires.
	Reqs []workload.Request
	// Origin[i] is the index in the dispatched trace of Reqs[i].
	Origin []int
}

// Dispatch shards reqs across replicas under policy p. Every request is
// assigned to exactly one shard; within a shard, requests keep their
// trace order and are renumbered 0..len-1.
func Dispatch(p Policy, replicas int, reqs []workload.Request) ([]Shard, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("fleet: replicas = %d", replicas)
	}
	if p == nil {
		return nil, fmt.Errorf("fleet: nil policy")
	}
	loads := make([]Load, replicas)
	shards := make([]Shard, replicas)
	// warmth[k][g] is the longest prefix of group g assigned to
	// replica k so far — the pre-shard's stand-in for live KV
	// residency (without engines there is nothing to probe).
	warmth := make([]map[int]int, replicas)
	for i, r := range reqs {
		for k := range loads {
			loads[k].WarmTokens = warmTokens(warmth[k], r)
		}
		k := p.Pick(r, loads)
		if k < 0 || k >= replicas {
			return nil, fmt.Errorf("fleet: policy %q picked replica %d of %d", p.Name(), k, replicas)
		}
		loads[k].Requests++
		loads[k].InputTokens += r.InputLen
		loads[k].CostTokens += p.Cost(r)
		if r.PrefixLen > 0 {
			if warmth[k] == nil {
				warmth[k] = make(map[int]int)
			}
			if plen := min(r.PrefixLen, r.InputLen); plen > warmth[k][r.PrefixGroup] {
				warmth[k][r.PrefixGroup] = plen
			}
		}
		r.ID = len(shards[k].Reqs)
		shards[k].Reqs = append(shards[k].Reqs, r)
		shards[k].Origin = append(shards[k].Origin, i)
	}
	return shards, nil
}

// warmTokens is the usable overlap between r's shared prefix and the
// longest same-group prefix recorded in m.
func warmTokens(m map[int]int, r workload.Request) int {
	if r.PrefixLen <= 0 || m == nil {
		return 0
	}
	return min(r.PrefixLen, r.InputLen, m[r.PrefixGroup])
}

// Result is the outcome of a fleet run.
type Result struct {
	// Report is the fleet-level aggregate: token counts summed,
	// Elapsed the slowest replica (replicas run concurrently), and
	// utilization averaged over all GPU-seconds of the fleet makespan.
	// Report.Latency digests the merged per-request records.
	Report metrics.Report
	// Replicas holds per-replica engine results in replica order.
	Replicas []*core.Result
	// Shards records the dispatch; Shards[i].Origin maps replica i's
	// requests back to indices in the dispatched trace.
	Shards []Shard
	// Records holds the merged per-request records, indexed by the
	// request's position in the dispatched trace (record ID == trace
	// index), each taken from the replica that last served the
	// request. The merge is deterministic and conservation-checked:
	// every trace position finished exactly once, or was dropped and
	// holds an unfinished zero record.
	Records []metrics.RequestRecord
	// Policy is the dispatch policy name.
	Policy string
	// Steps counts the simulation events processed across the run's
	// engines (router timeline included for online runs). Dividing by
	// wall-clock time yields the simulator's steps/sec rate.
	Steps uint64
}

// Run executes reqs across replicas data-parallel copies of cfg under
// policy p. Each replica runs core.Run on its own goroutine and its own
// simulation; the aggregate is deterministic for a fixed trace, config
// and policy seed.
func Run(cfg core.Config, replicas int, p Policy, reqs []workload.Request) (*Result, error) {
	shards, err := Dispatch(p, replicas, reqs)
	if err != nil {
		return nil, err
	}
	results := make([]*core.Result, replicas)
	errs := make([]error, replicas)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		//det:ignore goroutine offline replicas run disjoint engines with no cross-talk; the WaitGroup join is the only synchronization and results land in slot order
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = core.Run(cfg, shards[i].Reqs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	res := &Result{Replicas: results, Shards: shards, Policy: p.Name()}
	if err := res.CheckConservation(len(reqs)); err != nil {
		return nil, err
	}
	l := newLedger(reqs)
	for i, sh := range shards {
		for j, o := range sh.Origin {
			l.land(o, i, j)
			if results[i].Records[j].Finished() {
				l.fin[o]++
			}
		}
		// Offline replicas own their engines, so per-replica step
		// counts sum without double counting.
		res.Steps += results[i].Steps
	}
	res.Report, res.Records, err = l.assemble(cfg, fmt.Sprintf("Fleet(TD-Pipe/%s)x%d", p.Name(), replicas), results)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CheckConservation verifies that each of n dispatched requests was
// assigned to exactly one replica and completed there: shard origins
// partition 0..n-1 and every replica reports exactly its shard size.
func (r *Result) CheckConservation(n int) error {
	if len(r.Shards) != len(r.Replicas) {
		return fmt.Errorf("fleet: %d shards but %d replica results", len(r.Shards), len(r.Replicas))
	}
	seen, err := checkShards("", r.Shards, r.Replicas, n)
	if err != nil {
		return err
	}
	for idx, c := range seen {
		if c != 1 {
			return fmt.Errorf("fleet: request %d dispatched %d times", idx, c)
		}
	}
	return nil
}
