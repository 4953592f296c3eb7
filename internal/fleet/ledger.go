package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request lifecycle shared by the online and the disaggregated router:
// the per-pool load book, the per-request ledger and report aggregator,
// and the control state with the run skeleton around them. Routers
// differ in where a request may go next; what they record about it does
// not.

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
	// ep gates routing by the elastic lifecycle; nil keeps the pool
	// static.
	ep *elasticPool
	// first is the fleet index of engines[0]. links is the fault plan
	// (nil without one), whose network partitions keep KV off a
	// replica; lift is the earliest end of a partition that kept a
	// replica out of the last KV placement (-1 for none).
	first int
	links *faults.Plan
	lift  float64
	// loadScratch and candScratch are the per-pick candidate snapshot,
	// reused across picks: row j describes replica candScratch[j].
	loadScratch []Load
	candScratch []int
}

func newBook(p Policy, engines []*core.Engine, bc *policy.BreakerConfig, first int, links *faults.Plan) *book {
	n := len(engines)
	b := &book{
		policy:      p,
		engines:     engines,
		outstanding: make([]Load, n),
		entries:     make([][]loadEntry, n),
		shards:      make([]Shard, n),
		first:       first,
		links:       links,
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

// route offers r to every live replica the pool lets take traffic and
// picks one, returning -1 when none was offered. A request that brings
// KV to import (kv non-nil: a hand-off or a checkpoint) is offered only
// to replicas that can hold kv and that no network partition cuts off.
// Breaker-open replicas are skipped and counted in *skips; when they
// are all that is left and fallback is set they are offered anyway, so
// a fully-tripped pool degrades instead of stalling.
func (b *book) route(r workload.Request, kv *kvcache.ExportedSeq, now float64, fallback bool, skips *int) (int, error) {
	b.lift = -1
	if n := b.offerLive(r, kv, now, true); n > 0 && fallback && len(b.candScratch) == 0 {
		b.offerLive(r, kv, now, false)
	} else {
		*skips += n
	}
	return b.pick(r, now)
}

// offerLive offers every candidate of route, with the resident share of
// kv or, without kv, of r's shared prefix (warm blocks included, so
// affinity survives request completion). When gate is set breaker-open
// replicas are skipped and counted.
//
//det:hotpath
func (b *book) offerLive(r workload.Request, kv *kvcache.ExportedSeq, now float64, gate bool) (skips int) {
	for i, e := range b.engines {
		switch {
		case !e.Alive() || !b.ep.routable(i):
		case kv != nil && !e.CanImportKV(*kv):
		case kv != nil && b.links.PartitionedAt(b.first+i, now):
			if end := b.links.PartitionLiftsAt(b.first+i, now); b.lift < 0 || end < b.lift {
				b.lift = end
			}
		case gate && b.breakers != nil && !b.breakers[i].Routable(now):
			skips++
		case kv != nil:
			b.offer(i, e.ResidentKVTokens(*kv))
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

// host is a router as its shared control sees it: the hooks where the
// two routers' rules differ on purpose (see ARCHITECTURE.md).
type host interface {
	// arrive routes a fresh arrival at its arrival instant.
	arrive(origin int)
	// dispatch routes a request to a live replica, or appends it to
	// waiting when none can take it.
	dispatch(pr pendingRec)
	// resume re-enters a crash-lost request from its checkpoint, whose
	// bytes of KV finish reloading at done.
	resume(origin int, l core.Lost, bytes float64, done sim.Time)
	// restored reacts to a restore of a replica of b beyond
	// re-dispatching waiting.
	restored(b *book)
	// signals is the autoscaler's view of the router at a tick.
	signals() policy.Signals
	// activated reacts to a scaled-up replica joining routing.
	activated()
	// drained settles what the router still holds once the timeline
	// has run dry, before the requests still waiting drop.
	drained()
}

// control is what both routers share on the control timeline: the
// request ledger, the pools' books, the fault layer (faults.go), the
// elastic pool and its autoscaler tick (epool.go), the admission
// counters, and the run skeleton around them. A router embeds it and
// plugs its own rules in as the host.
type control struct {
	ledger
	host host
	fab  *fabric
	// ctl is the fabric's control timeline.
	ctl *sim.Engine
	// all holds every replica engine in fleet order; each book holds a
	// contiguous run of it.
	all   []*core.Engine
	books []*book
	// pool owns the elastic lifecycle of the last pool (the online
	// fleet, the disaggregated decode pool) when an autoscaler is
	// attached; nil keeps every pool static.
	pool *elasticPool
	// plan is nil without a fault layer; blockBytes (the KV footprint
	// of one block across the model) and xferTime price KV transfers
	// either way.
	plan       *faults.Plan
	blockBytes float64
	xferTime   func(bytes float64) float64
	fstats     metrics.FaultStats
	// waiting holds requests that found no live replica, dispatched
	// again at the next restore or scale-up activation.
	waiting []pendingRec
	// handoffs counts engine finishes that handed the request to
	// another pool instead of completing it.
	handoffs int
	astats   metrics.AdmissionStats
}

// poolSpec sizes one replica pool and names the policy that picks
// within it.
type poolSpec struct {
	n int
	p Policy
}

// build validates the trace, the plan (drawn for the whole fleet) and
// the stack's autoscaler (which scales the last pool), builds the
// fabric with one tier per pool, starts one engine per replica with its
// plan-specialized config, and books every pool with the stack's
// breakers. An inactive plan is an absent fault layer.
func (c *control) build(h host, cfg core.Config, reqs []workload.Request, plan *faults.Plan, stack *policy.Stack, workers int, pools ...poolSpec) error {
	if !plan.Active() {
		plan = nil
	}
	if err := validateArrivals(reqs); err != nil {
		return err
	}
	total := 0
	for _, ps := range pools {
		total += ps.n
	}
	if plan != nil && plan.Replicas != total {
		return fmt.Errorf("%w: plan covers %d replicas, fleet has %d", ErrPlanFleetMismatch, plan.Replicas, total)
	}
	var bc *policy.BreakerConfig
	if stack != nil {
		bc = stack.Breaker
		if as, last := stack.Autoscaler, pools[len(pools)-1].n; as != nil {
			if m := as.Config().Max; m > last {
				return fmt.Errorf("fleet: autoscaler Max %d exceeds provisioned replicas %d", m, last)
			}
			c.pool = newElasticPool(cfg, as, last)
		}
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = kvcache.DefaultBlockSize
	}
	c.ledger, c.host, c.plan = newLedger(reqs), h, plan
	c.blockBytes, c.xferTime = float64(bs)*cfg.Spec.KVBytesPerToken(), costmodel.KVTransfer(cfg.Node)
	c.fab = newFabric(ResolveWorkers(workers, total))
	c.ctl = c.fab.ctl
	for tier, ps := range pools {
		c.fab.addTier(tier, ps.n)
	}
	for i := 0; i < total; i++ {
		e, err := core.NewEngine(c.fab.engineFor(i), replicaConfig(cfg, plan, i))
		if err == nil {
			err = e.StartOnline()
		}
		if err != nil {
			return fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		c.all = append(c.all, e)
	}
	first := 0
	for _, ps := range pools {
		c.books = append(c.books, newBook(ps.p, c.all[first:first+ps.n], bc, first, plan))
		first += ps.n
	}
	c.books[len(c.books)-1].ep = c.pool
	return nil
}

// run schedules the arrivals (in arrival, then trace order), the plan's
// crashes and restores, and the autoscaler's first tick, in that order.
// It runs the fabric until the timeline is dry, lets the router settle
// what it still holds, drops the requests still waiting for a live
// replica and collects every engine's result, or returns the error that
// stopped the run.
func (c *control) run() ([]*core.Result, error) {
	for _, idx := range workload.SortByArrival(c.reqs) {
		c.ctl.AtFunc(sim.Time(c.reqs[idx].ArrivalTime), arriveEvent, c, idx, 0)
	}
	c.scheduleFaults()
	if c.pool != nil {
		c.ctl.AtFunc(c.pool.tickInterval(), tickEvent, c, 0, 0)
	}
	c.fab.start()
	defer c.fab.stopWorkers()
	c.fab.run()
	if c.err == nil {
		c.host.drained()
		c.dropWaiting()
	}
	if c.err != nil {
		return nil, c.err
	}
	results := make([]*core.Result, len(c.all))
	for i, e := range c.all {
		var err error
		if results[i], err = e.Finalize(); err != nil {
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
	}
	return results, nil
}

// arriveEvent hands a request to the router at its arrival instant, and
// again at each admission retry (AtFunc: ctx is the control, a the
// trace index).
func arriveEvent(ctx any, idx, _ int) {
	if c := ctx.(*control); c.err == nil {
		c.host.arrive(idx)
	}
}

// bookOf maps a fleet replica index to its pool's book and pool-local
// index.
func (c *control) bookOf(replica int) (*book, int) {
	b := c.books[0]
	for _, nb := range c.books[1:] {
		if replica >= nb.first {
			b = nb
		}
	}
	return b, replica - b.first
}

// unresolved reports whether a request is still neither finished nor
// dropped: the engines' finishes that were not hand-offs, plus the
// drops, fall short of the trace.
func (c *control) unresolved() bool {
	n := c.dropped - c.handoffs
	for _, e := range c.all {
		n += e.NumFinished()
	}
	return n < len(c.reqs)
}

// report assembles the fleet report over results (see assemble) and
// adds each layer's accounting: admitDrops of the run's drops are the
// admission counters', the rest the fault layer's (reported when a plan
// ran); every pool's breaker trips; and the autoscaler's when a pool
// was elastic.
func (c *control) report(cfg core.Config, scheduler string, results []*core.Result, admitDrops int) (metrics.Report, []metrics.RequestRecord, error) {
	rep, records, err := c.assemble(cfg, scheduler, results)
	if err != nil {
		return rep, nil, err
	}
	if c.plan != nil {
		rep.Faults.Add(c.faultStats(c.dropped - admitDrops))
	}
	if c.pool != nil {
		rep.Autoscale = c.pool.finish(rep.Elapsed, cfg.World)
	}
	c.astats.Dropped = admitDrops
	for _, b := range c.books {
		for _, br := range b.breakers {
			c.astats.BreakerTrips += br.Trips()
		}
	}
	rep.Admission = c.astats
	return rep, records, nil
}

// checkShards verifies that each replica of a pool completed exactly its
// shard, and counts for each request of an n-request trace the shards
// that hold it.
func checkShards(pool string, shards []Shard, results []*core.Result, n int) ([]int, error) {
	seen := make([]int, n)
	for i, sh := range shards {
		if len(sh.Reqs) != len(sh.Origin) {
			return nil, fmt.Errorf("fleet: %sreplica %d has %d requests but %d origins", pool, i, len(sh.Reqs), len(sh.Origin))
		}
		if got := results[i].Report.Requests; got != len(sh.Reqs) {
			return nil, fmt.Errorf("fleet: %sreplica %d completed %d of %d requests", pool, i, got, len(sh.Reqs))
		}
		for _, o := range sh.Origin {
			if o < 0 || o >= n {
				return nil, fmt.Errorf("fleet: %sreplica %d has origin %d outside trace of %d", pool, i, o, n)
			}
			seen[o]++
		}
	}
	return seen, nil
}
