package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Request lifecycle shared by the online and the disaggregated router:
// the per-pool load book, the per-request ledger, the engine
// start/finalize helpers and the report aggregator. Routers differ in
// where a request may go next; what they record about it does not.

// loadEntry is one routed request's contribution to its replica's load
// counters, subtracted when the engine reports it finished.
type loadEntry struct {
	inputTokens int
	cost        float64
}

// book is one replica pool's routing state: the policy that picks
// within the pool, live per-replica load maintained incrementally
// (add on submit, retire on finish or crash-abort), the shard record
// of where every submission landed, and optional circuit breakers.
type book struct {
	policy  Policy
	engines []*core.Engine
	// outstanding[i] is replica i's live load.
	outstanding []Load
	// entries[i][local] is the load contribution of replica i's local
	// request local.
	entries [][]loadEntry
	shards  []Shard
	// breakers is nil when the pool runs without circuit breakers.
	breakers []*policy.Breaker
	// loadScratch and candScratch are the per-pick candidate snapshot,
	// reused across picks: row j describes replica candScratch[j].
	loadScratch []Load
	candScratch []int
}

func newBook(p Policy, engines []*core.Engine, bc *policy.BreakerConfig) book {
	n := len(engines)
	b := book{
		policy:      p,
		engines:     engines,
		outstanding: make([]Load, n),
		entries:     make([][]loadEntry, n),
		shards:      make([]Shard, n),
		loadScratch: make([]Load, 0, n),
		candScratch: make([]int, 0, n),
	}
	if bc != nil {
		b.breakers = make([]*policy.Breaker, n)
		for i := range b.breakers {
			b.breakers[i] = policy.NewBreaker(*bc)
		}
	}
	return b
}

// offer adds replica i to the candidate snapshot, with warm tokens of
// the request being routed resident there.
//
//det:hotpath
func (b *book) offer(i, warm int) {
	l := b.outstanding[i]
	l.WarmTokens = warm
	l.FreeKVTokens = b.engines[i].FreeKVTokens()
	b.candScratch = append(b.candScratch, i)
	b.loadScratch = append(b.loadScratch, l)
}

// tripped reports whether replica i's breaker keeps it out of routing
// at now.
func (b *book) tripped(i int, now float64) bool {
	return b.breakers != nil && !b.breakers[i].Routable(now)
}

// route offers r to every live replica that ep lets take traffic and
// picks one, returning -1 when none was offered. Breaker-open replicas
// are skipped and counted in *skips; when they are all that is live and
// fallback is set they are offered anyway, so a fully-tripped pool
// degrades instead of stalling.
func (b *book) route(r workload.Request, now float64, ep *elasticPool, fallback bool, skips *int) (int, error) {
	if n := b.offerLive(r, now, ep, true); n > 0 && fallback && len(b.candScratch) == 0 {
		b.offerLive(r, now, ep, false)
	} else {
		*skips += n
	}
	return b.pick(r, now)
}

// offerLive offers every live replica that ep lets take traffic, with
// the resident share of r's shared prefix (warm blocks included, so
// affinity survives request completion). When gate is set breaker-open
// replicas are skipped and counted.
//
//det:hotpath
func (b *book) offerLive(r workload.Request, now float64, ep *elasticPool, gate bool) (skips int) {
	for i, e := range b.engines {
		switch {
		case !e.Alive() || !ep.routable(i):
		case gate && b.tripped(i, now):
			skips++
		default:
			b.offer(i, e.PrefixWarmTokens(r))
		}
	}
	return skips
}

// pick runs the pool policy over the candidate snapshot and resets it.
// It returns -1 when no replica was offered; a pick that leaves the
// snapshot is an error. A probing pick consumes its breaker's
// half-open slot.
func (b *book) pick(r workload.Request, now float64) (int, error) {
	cands := b.candScratch
	b.candScratch = b.candScratch[:0]
	if len(cands) == 0 {
		return -1, nil
	}
	j := b.policy.Pick(r, b.loadScratch)
	b.loadScratch = b.loadScratch[:0]
	if j < 0 || j >= len(cands) {
		return -1, fmt.Errorf("fleet: policy %q picked candidate %d of %d", b.policy.Name(), j, len(cands))
	}
	k := cands[j]
	if b.breakers != nil {
		b.breakers[k].Allow(now)
	}
	return k, nil
}

// add books one landed submission: r (trace index origin) became
// request local on replica k.
func (b *book) add(r workload.Request, origin, k, local int) {
	cost := b.policy.Cost(r)
	b.entries[k] = append(b.entries[k], loadEntry{inputTokens: r.InputLen, cost: cost})
	b.outstanding[k].Requests++
	b.outstanding[k].InputTokens += r.InputLen
	b.outstanding[k].CostTokens += cost
	r.ID = local
	b.shards[k].Reqs = append(b.shards[k].Reqs, r)
	b.shards[k].Origin = append(b.shards[k].Origin, origin)
}

// retire removes replica k's local request from the load counters in
// O(1) and returns its trace index.
//
//det:hotpath
func (b *book) retire(k, local int) int {
	en := b.entries[k][local]
	b.outstanding[k].Requests--
	b.outstanding[k].InputTokens -= en.inputTokens
	b.outstanding[k].CostTokens -= en.cost
	return b.shards[k].Origin[local]
}

// trips sums the pool's breaker trips.
func (b *book) trips() int {
	n := 0
	for _, br := range b.breakers {
		n += br.Trips()
	}
	return n
}

// recRef locates a request's final record: the fleet-wide replica
// index and the replica-local id of its last copy.
type recRef struct {
	replica, local int32
}

// ledger is the per-request side of the lifecycle. Conservation: every
// trace request ends with exactly one terminal finish XOR a drop
// reason, across any number of re-dispatches.
type ledger struct {
	reqs  []workload.Request
	final []recRef
	// fin[origin] counts terminal finishes. Finish hooks write it from
	// shard goroutines; each origin has one live copy at a time.
	fin []int32
	// attempts[origin] counts front-door retries (the policy layer's
	// backoff budget); recoveries[origin] counts re-dispatches after
	// crashes (the fault plan's budget). Neither spends the other.
	attempts      []int32
	recoveries    []int32
	droppedReason []string
	// dropped counts drops; lostDrops those of requests a crash had
	// lost (with both layers on, the fault layer's share).
	dropped, lostDrops int
	// err is the first error that stopped the run; control events
	// return early once it is set.
	err error
}

func newLedger(reqs []workload.Request) ledger {
	n := len(reqs)
	return ledger{
		reqs:          reqs,
		final:         make([]recRef, n),
		fin:           make([]int32, n),
		attempts:      make([]int32, n),
		recoveries:    make([]int32, n),
		droppedReason: make([]string, n),
	}
}

// land records that origin's latest copy is local on fleet replica k.
func (l *ledger) land(origin, k, local int) {
	l.final[origin] = recRef{replica: int32(k), local: int32(local)}
}

// drop abandons a request with a reason (idempotent).
func (l *ledger) drop(origin int, reason string) {
	if l.droppedReason[origin] == "" {
		l.droppedReason[origin] = reason
		l.dropped++
		if l.recoveries[origin] > 0 {
			l.lostDrops++
		}
	}
}

// recovery spends one attempt of origin's crash-recovery budget,
// dropping the request once more than budget attempts are spent.
func (l *ledger) recovery(origin, budget int) bool {
	l.recoveries[origin]++
	if int(l.recoveries[origin]) > budget {
		l.drop(origin, "recovery budget exhausted")
		return false
	}
	return true
}

// assemble checks conservation, merges the final owners' records into
// trace order (dropped requests get an unfinished zero record, so they
// stay in the digest's denominator and goodput pays for the loss), and
// aggregates the fleet report over results in fleet replica order:
// token counts from the ledger, Elapsed and KVPeakUsage the maximum,
// utilization weighted by each replica's busy GPU-seconds.
func (l *ledger) assemble(cfg core.Config, scheduler string, results []*core.Result) (metrics.Report, []metrics.RequestRecord, error) {
	rep := metrics.Report{
		Scheduler: scheduler,
		Node:      cfg.Node.Name,
		Model:     cfg.Spec.Name,
		GPUs:      cfg.World * len(results),
	}
	records := make([]metrics.RequestRecord, len(l.reqs))
	for origin, r := range l.reqs {
		switch f, reason := l.fin[origin], l.droppedReason[origin]; {
		case f == 1 && reason == "":
			ref := l.final[origin]
			rec := results[ref.replica].Records[ref.local]
			rec.ID = origin
			records[origin] = rec
			rep.Requests++
			rep.InputTokens += r.InputLen
			rep.OutputTokens += rec.OutputTokens
		case f == 0 && reason != "":
			records[origin] = metrics.RequestRecord{ID: origin, Arrival: r.ArrivalTime}
		case f > 1:
			return rep, nil, fmt.Errorf("fleet: request %d finished %d times", origin, f)
		case reason != "":
			return rep, nil, fmt.Errorf("fleet: request %d both finished and dropped (%s)", origin, reason)
		default:
			return rep, nil, fmt.Errorf("fleet: request %d lost without a drop reason (fin=%d)", origin, f)
		}
	}
	var busy float64
	for _, r := range results {
		rr := r.Report
		rep.PhaseSwitches += rr.PhaseSwitches
		rep.Recomputes += rr.Recomputes
		rep.PrefixCachedTokens += rr.PrefixCachedTokens
		rep.Faults.Add(rr.Faults)
		rep.Elapsed = max(rep.Elapsed, rr.Elapsed)
		rep.KVPeakUsage = max(rep.KVPeakUsage, rr.KVPeakUsage)
		busy += rr.MeanUtilization * rr.Elapsed * float64(rr.GPUs)
	}
	if len(results) == 1 {
		// A single-replica fleet is the lone engine; copy its
		// utilization rather than round-tripping through the weighted
		// average (which costs one ulp).
		rep.MeanUtilization = results[0].Report.MeanUtilization
	} else if rep.Elapsed > 0 && rep.GPUs > 0 {
		rep.MeanUtilization = busy / (rep.Elapsed * float64(rep.GPUs))
	}
	rep.BubbleRatio = 1 - rep.MeanUtilization
	rep.Latency = metrics.Digest(records, cfg.SLO)
	return rep, records, nil
}

// startEngines builds and starts one online engine per fleet replica on
// the fabric, configured by cfgFor.
func startEngines(fab *fabric, n int, cfgFor func(i int) core.Config) ([]*core.Engine, error) {
	engines := make([]*core.Engine, 0, n)
	for i := 0; i < n; i++ {
		e, err := core.NewEngine(fab.engineFor(i), cfgFor(i))
		if err == nil {
			engines = append(engines, e)
			err = e.StartOnline()
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	return engines, nil
}

// finalize collects every engine's result after a run, or returns the
// router's error if it stopped the run.
func finalize(engines []*core.Engine, runErr error) ([]*core.Result, error) {
	if runErr != nil {
		return nil, runErr
	}
	results := make([]*core.Result, len(engines))
	for i, e := range engines {
		res, err := e.Finalize()
		if err != nil {
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		results[i] = res
	}
	return results, nil
}
