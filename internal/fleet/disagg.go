package fleet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Disaggregated prefill/decode serving: the fleet is split into a
// prefill pool and a decode pool sharing one virtual clock. Every
// arrival is routed to a prefill replica (least-work); when its prefill
// completes, the engine exports the finished prefix KV (core.Handoff)
// and the router migrates it to a decode replica over the node's KV
// link — transfer time = blocks x block bytes / bandwidth + latency —
// where generation resumes via SubmitDecoded. The transfer overlaps
// decode-side queueing: a hand-off becomes placeable once its transfer
// completes, and waits in a FIFO only while no decode replica has KV
// headroom for the import (retried as decode requests finish).
//
// The split isolates the two phases' interference: prefill replicas
// never stall arrivals behind long decode phases, so TTFT stays flat
// under bursts, at the price of the modeled transfer and fewer
// decode-side token slots. Like the online router, results are
// deterministic for a fixed trace, config and split, at any worker
// count.

// DisaggConfig sizes the two pools of a disaggregated deployment. Both
// pools run the same engine configuration (core.Config); only the role
// differs.
type DisaggConfig struct {
	// PrefillReplicas is the number of engines dedicated to prefill.
	PrefillReplicas int
	// DecodeReplicas is the number of engines dedicated to decode.
	DecodeReplicas int
	// Workers budgets the conservative parallel fabric: 0 or 1 runs
	// sequentially, WorkersAuto picks GOMAXPROCS for fleets of at
	// least AutoWorkerThreshold replicas. Reports are byte-identical
	// across worker counts.
	Workers int
	// Stack attaches a policy stack to the deployment. Disaggregated
	// serving honors two components. Autoscaler is scoped to the
	// decode pool: DecodeReplicas is the provisioned pool the
	// autoscaler breathes inside (its Max must fit), and hand-off
	// placement skips inactive decode replicas. Breaker gives every
	// replica in both pools a circuit breaker: crashes open a
	// replica's breaker (one failure per aborted request), finishes
	// close it, and routing skips breaker-open replicas — falling back
	// to liveness alone when every live candidate is open, so a
	// fully-tripped pool degrades instead of stalling. A nil stack —
	// or one without these components — keeps the fleet static, and
	// its output is byte-identical to a stackless run.
	Stack *policy.Stack
}

// Validate reports a configuration error, if any.
func (dc DisaggConfig) Validate() error {
	if dc.PrefillReplicas <= 0 || dc.DecodeReplicas <= 0 {
		return fmt.Errorf("fleet: disagg pools %dP+%dD (both must be positive)",
			dc.PrefillReplicas, dc.DecodeReplicas)
	}
	if dc.Stack != nil && dc.Stack.Autoscaler != nil {
		if m := dc.Stack.Autoscaler.Config().Max; m > dc.DecodeReplicas {
			return fmt.Errorf("fleet: decode autoscaler Max %d exceeds provisioned decode replicas %d",
				m, dc.DecodeReplicas)
		}
	}
	return nil
}

// DisaggResult is the outcome of a disaggregated run.
type DisaggResult struct {
	// Report is the fleet-level aggregate over both pools; Latency
	// digests the per-request records spanning the whole hand-off
	// lifecycle (arrival at the prefill pool to completion in the
	// decode pool).
	Report metrics.Report
	// Prefill and Decode hold the per-replica engine results.
	Prefill, Decode []*core.Result
	// PrefillShards records the arrival routing: every trace request
	// appears in exactly one prefill shard. DecodeShards records the
	// hand-off placement: requests that finished at prefill
	// (single-token outputs) appear in no decode shard.
	PrefillShards, DecodeShards []Shard
	// Records holds the merged per-request records indexed by trace
	// position: the decode replica's record for handed-off requests
	// (it carries the original arrival and first-token instants), the
	// prefill replica's for requests that completed there.
	Records []metrics.RequestRecord
	// Handoffs counts requests migrated to the decode pool.
	Handoffs int
	// TransferredBytes is the total KV moved over the hand-off link.
	TransferredBytes float64
	// QueuedHandoffs counts hand-offs that had to wait for decode-pool
	// KV headroom after their transfer completed.
	QueuedHandoffs int
	// Steps counts the simulation events processed across the run's
	// engines and the router timeline.
	Steps uint64
}

// handoffItem is one in-flight migration. recovery marks checkpoint
// restores re-entering the decode pool after a crash (counted as
// recoveries, not hand-offs).
type handoffItem struct {
	origin   int
	h        core.Handoff
	recovery bool
}

// disaggRouter coordinates the two pools across the fabric: prefill
// replicas form tier 0 and fleet replicas 0..P-1, decode replicas tier
// 1 and fleet replicas P..P+D-1. Every router intervention (arrival
// dispatch, transfer completion, crash, restore, pending drain)
// executes on the control timeline. The control's elastic pool, when
// DisaggConfig.Stack carries an autoscaler, scales the decode pool.
type disaggRouter struct {
	control
	// p and d are the prefill and decode pools.
	p, d *book

	items []handoffItem
	// pending holds item indices whose transfer completed but which no
	// decode replica can import yet, in completion order.
	pending []int
	moved   float64
	queued  int
}

// RunDisagg serves an arrival-stamped trace on a disaggregated fleet:
// dc.PrefillReplicas prefill engines and dc.DecodeReplicas decode
// engines, all instances of cfg on one shared virtual clock. Arrivals
// are dispatched least-work across the prefill pool; hand-offs are
// placed by the decode-affinity pick (warmest resident KV, then free-KV
// headroom, then least predicted decode work). Closed-loop traces
// (all arrivals at t=0) are served the same way — every request routes
// at t=0.
func RunDisagg(cfg core.Config, dc DisaggConfig, reqs []workload.Request) (*DisaggResult, error) {
	return RunDisaggFaults(cfg, dc, reqs, nil)
}

// RunDisaggFaults is RunDisagg under a fault plan: replica crashes hit
// both pools, stragglers run slowed, KV hand-offs cross the impaired
// link timeline, and crash-lost requests are re-dispatched — resumed
// from their periodic KV checkpoint on the decode pool when one exists,
// re-prefilled from scratch through the prefill pool otherwise.
// Requests that exhaust the recovery budget or fit nowhere when the run
// drains are dropped with a reason and accounted in Report.Faults. An
// active plan must be drawn for exactly PrefillReplicas+DecodeReplicas
// replicas (ErrPlanFleetMismatch otherwise); a nil or inactive plan
// produces RunDisagg's output byte for byte.
func RunDisaggFaults(cfg core.Config, dc DisaggConfig, reqs []workload.Request, plan *faults.Plan) (*DisaggResult, error) {
	if err := dc.Validate(); err != nil {
		return nil, err
	}
	opts := Options{Predictor: cfg.Predictor}
	ro := &disaggRouter{}
	// Prefill and decode replicas never share a shard engine: the
	// prefill tier advances to each control horizon first (discovering
	// hand-offs), and the decode tier follows only after their
	// transfer completions are on the control timeline.
	if err := ro.build(ro, cfg, reqs, plan, dc.Stack, dc.Workers,
		poolSpec{dc.PrefillReplicas, builtins[LeastWork](opts)},
		poolSpec{dc.DecodeReplicas, builtins[DecodeAffinity](opts)}); err != nil {
		return nil, err
	}
	ro.p, ro.d = ro.books[0], ro.books[1]
	for i, e := range ro.p.engines {
		i := i
		e.SetOnFinish(func(local int) { ro.prefillFinished(i, local) })
		// Hand-offs are discovered while a shard worker advances its
		// epoch window: buffer them on the shard; the coordinator
		// drains the buffers in canonical order at the barrier and
		// feeds them to ro.handoff.
		e.SetHandoff(func(h core.Handoff) { ro.fab.note(i, h) })
	}
	for i, e := range ro.d.engines {
		i := i
		e.SetOnFinish(func(local int) { ro.decodeFinished(i, local) })
	}
	ro.fab.onNote = ro.handoff
	ro.fab.pendingWork = func() bool { return len(ro.pending) > 0 }
	ro.fab.drainAt = ro.drainPending
	results, err := ro.run()
	if err != nil {
		return nil, err
	}
	return ro.result(cfg, dc, results)
}

// drained fails a fault-free run that stranded hand-offs, and otherwise
// drops them with a reason: a fault run is allowed to lose requests,
// never to lose them silently.
func (ro *disaggRouter) drained() {
	if ro.plan == nil && len(ro.pending) > 0 {
		it := ro.items[ro.pending[0]]
		ro.err = fmt.Errorf("fleet: %d hand-offs stranded: request %d (%d KV blocks) fits no decode replica",
			len(ro.pending), it.origin, it.h.KV.Blocks())
		return
	}
	for _, item := range ro.pending {
		ro.drop(ro.items[item].origin, "stranded hand-off: fits no decode replica")
	}
}

// signals is the decode pool's autoscaler view: resident decode
// requests plus hand-offs still waiting for headroom. TTFT and goodput
// carry no decode-side meaning, so they keep their neutral values.
func (ro *disaggRouter) signals() policy.Signals {
	queued := len(ro.pending)
	for _, l := range ro.d.outstanding {
		queued += l.Requests
	}
	return ro.pool.signals(queued)
}

// activated retries queued hand-offs against a scaled-up decode
// replica's headroom.
func (ro *disaggRouter) activated() { ro.drainPending() }

// arrive routes an arrival to the prefill pool.
func (ro *disaggRouter) arrive(origin int) { ro.dispatchPrefill(origin) }

// dispatchPrefill routes origin's request to a live, breaker-routable
// prefill replica (arrivals and crash recompute re-dispatches alike),
// queueing it when the whole pool is down. When every live replica's
// breaker is open the filter falls back to liveness alone — a
// fully-tripped pool keeps serving (degraded) instead of stalling
// arrivals forever.
func (ro *disaggRouter) dispatchPrefill(origin int) {
	r := ro.reqs[origin]
	k, err := ro.p.route(r, nil, float64(ro.ctl.Now()), true, &ro.astats.BreakerSkips)
	switch {
	case err != nil:
		ro.err = err
		return
	case k < 0:
		ro.waiting = append(ro.waiting, pendingRec{origin: origin})
		return
	}
	local, err := ro.p.engines[k].Submit(r)
	if err != nil {
		if ro.plan != nil && errors.Is(err, core.ErrRequestTooLarge) {
			// A fault run is allowed to lose requests, never to lose
			// them silently: an unservable request drops with a reason
			// instead of failing the whole run.
			ro.drop(origin, err.Error())
			return
		}
		ro.err = fmt.Errorf("fleet: prefill replica %d rejected request %d: %w", k, origin, err)
		return
	}
	ro.p.add(r, origin, k, local)
	ro.land(origin, k, local)
}

// prefillFinished is the prefill engines' completion hook; it fires
// both for local completions and for hand-offs (the prefill engine
// retires the request before the hand-off hook runs, which takes the
// tentative finish back).
func (ro *disaggRouter) prefillFinished(replica, local int) {
	ro.fin[ro.p.retire(replica, local)]++
	if ro.p.breakers != nil {
		// Trip accounting is summed from Trips() at assemble; the
		// hook must not touch the shared stats struct.
		ro.p.breakers[replica].OnSuccess(float64(ro.p.engines[replica].Now()))
	}
}

// handoff receives a prefill-completed request (drained canonically at
// an epoch barrier) and schedules its KV transfer on the control
// timeline: the whole exported block window crosses the link, so the
// request becomes placeable on the decode pool only once the transfer
// completes. The link's minimum transfer time is the lookahead that
// keeps the decode tier's conservative advance safe.
func (ro *disaggRouter) handoff(replica int, h core.Handoff) {
	if ro.err != nil {
		return
	}
	origin := ro.p.shards[replica].Origin[h.Local]
	// The engine-local "finish" was a hand-off, not a completion.
	ro.fin[origin]--
	ro.items = append(ro.items, handoffItem{origin: origin, h: h})
	ro.handoffs++
	bytes := float64(h.KV.Blocks()) * ro.blockBytes
	ro.moved += bytes
	// The export crosses the source replica's link timeline: a prefill
	// replica inside a network domain outage stalls its hand-offs until
	// the partition lifts.
	done := ro.plan.TransferDoneFrom(replica, float64(h.At), ro.xferTime(bytes))
	ro.ctl.AtFunc(sim.Time(done), transferDoneEvent, ro, len(ro.items)-1, 0)
}

// transferDoneEvent fires when a hand-off's KV transfer completes
// (AtFunc: ctx is the router, a the item index).
func transferDoneEvent(ctx any, item, _ int) {
	ro := ctx.(*disaggRouter)
	if ro.err != nil {
		return
	}
	if !ro.place(item) {
		ro.queued++
		ro.pending = append(ro.pending, item)
	}
}

// place admits a transferred hand-off on a decode replica, if any can
// import it; breaker-open replicas are skipped, falling back to the
// importable set when every importable breaker is open.
func (ro *disaggRouter) place(item int) bool {
	it := &ro.items[item]
	r := ro.reqs[it.origin]
	now := float64(ro.ctl.Now())
	k, err := ro.d.route(r, &it.h.KV, now, true, &ro.astats.BreakerSkips)
	switch {
	case err != nil:
		ro.err = err
		return true
	case k < 0:
		// Retry when a partition that kept a replica out lifts, so work
		// is never stranded behind an outage that outlives the decode
		// pool's finish stream.
		if ro.d.lift > now {
			ro.ctl.AtFunc(sim.Time(ro.d.lift), drainPendingEvent, ro, 0, 0)
		}
		return false
	}
	local, err := ro.d.engines[k].SubmitDecoded(r, it.h)
	if err != nil {
		if ro.plan != nil {
			// The import failed at arrival — the target died or lost
			// its headroom in this very instant. Re-enter the
			// lifecycle through the prefill pool with recompute on the
			// same attempt instead of stranding the request (an
			// oversized request drops inside dispatchPrefill).
			ro.fstats.RecoveredRecompute++
			ro.dispatchPrefill(it.origin)
			return true
		}
		ro.err = fmt.Errorf("fleet: import on decode replica %d: %w", k, err)
		return true
	}
	ro.d.add(r, it.origin, k, local)
	ro.land(it.origin, len(ro.p.engines)+k, local)
	if it.recovery {
		ro.fstats.RecoveredCheckpoint++
	}
	return true
}

// decodeFinished retires a request from its decode replica's counters
// and flags the finish on the replica's shard: when hand-offs are
// queued for headroom, the fabric lockstep sees the flag and retries
// placement at this instant (after every decode event at it has run).
func (ro *disaggRouter) decodeFinished(replica, local int) {
	ro.fin[ro.d.retire(replica, local)]++
	t := float64(ro.d.engines[replica].Now())
	if ro.d.breakers != nil {
		ro.d.breakers[replica].OnSuccess(t)
	}
	if ro.pool != nil && ro.d.outstanding[replica].Requests == 0 {
		ro.pool.noteDrained(replica, t)
	}
	ro.fab.markFinish(len(ro.p.engines) + replica)
}

// drainPendingEvent retries queued hand-offs in completion order
// (AtFunc: ctx is the router). Scheduled by restores; the fabric
// lockstep calls drainPending directly at decode-finish instants.
func drainPendingEvent(ctx any, _, _ int) {
	ctx.(*disaggRouter).drainPending()
}

// drainPending retries queued hand-offs in completion order. Callers
// guarantee every decode replica's clock is parked at the drain
// instant.
func (ro *disaggRouter) drainPending() {
	if ro.err != nil {
		return
	}
	kept := ro.pending[:0]
	for _, item := range ro.pending {
		if ro.err != nil || !ro.place(item) {
			kept = append(kept, item)
		}
	}
	ro.pending = kept
}

// resume ships a crash-lost request's checkpoint back over the KV link
// and re-enters the decode pool through the hand-off machinery
// (placement, headroom queueing and the pending drain all behave
// exactly as for a fresh hand-off).
func (ro *disaggRouter) resume(origin int, l core.Lost, bytes float64, done sim.Time) {
	ck := l.Ckpt
	h := core.Handoff{Local: -1, Req: ro.reqs[origin], KV: ck.KV, Generated: ck.Generated, FirstTokenAt: ck.FirstTokenAt, At: ro.ctl.Now()}
	ro.items = append(ro.items, handoffItem{origin: origin, h: h, recovery: true})
	ro.moved += bytes
	ro.ctl.AtFunc(done, transferDoneEvent, ro, len(ro.items)-1, 0)
}

// dispatch restarts a request's whole lifecycle through the prefill
// pool (for a crash-lost request the generation already delivered is
// redone there; Faults.LostOutputTokens accounts it).
func (ro *disaggRouter) dispatch(pr pendingRec) { ro.dispatchPrefill(pr.origin) }

// restored retries queued hand-offs after a decode replica's restore,
// once the control events at this instant settle: the restored replica
// may now import what others could not.
func (ro *disaggRouter) restored(b *book) {
	if b == ro.d && len(ro.pending) > 0 {
		ro.ctl.AtFunc(ro.ctl.Now(), drainPendingEvent, ro, 0, 0)
	}
}

// result assembles the disaggregated run: conservation, records merged
// across both pools, and the fleet report with its fault, breaker and
// autoscale accounting. Every drop is the fault layer's: disaggregated
// serving has no front door.
func (ro *disaggRouter) result(cfg core.Config, dc DisaggConfig, results []*core.Result) (*DisaggResult, error) {
	np := dc.PrefillReplicas
	res := &DisaggResult{
		Prefill:          results[:np],
		Decode:           results[np:],
		PrefillShards:    ro.p.shards,
		DecodeShards:     ro.d.shards,
		Handoffs:         ro.handoffs,
		TransferredBytes: ro.moved,
		QueuedHandoffs:   ro.queued,
		Steps:            ro.fab.Steps(),
	}
	mode := "DisaggFaults"
	if ro.plan == nil {
		// Without faults nothing is re-dispatched, so the per-shard
		// lifecycle holds too.
		mode = "Disagg"
		if err := res.checkConservation(len(ro.reqs)); err != nil {
			return nil, err
		}
	}
	var err error
	res.Report, res.Records, err = ro.report(cfg, fmt.Sprintf("%s(TD-Pipe %dP+%dD)", mode, np, dc.DecodeReplicas), results, 0)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkConservation verifies the disaggregated request lifecycle:
// every trace request was prefilled on exactly one prefill replica,
// handed to at most one decode replica, and each replica completed
// exactly its shard.
func (r *DisaggResult) checkConservation(n int) error {
	prefilled, err := checkShards("prefill ", r.PrefillShards, r.Prefill, n)
	if err != nil {
		return err
	}
	decoded, err := checkShards("decode ", r.DecodeShards, r.Decode, n)
	if err != nil {
		return err
	}
	handed := 0
	for o := range prefilled {
		if prefilled[o] != 1 {
			return fmt.Errorf("fleet: request %d prefilled %d times", o, prefilled[o])
		}
		if decoded[o] > 1 {
			return fmt.Errorf("fleet: request %d decoded on %d replicas", o, decoded[o])
		}
		handed += decoded[o]
	}
	if handed != r.Handoffs {
		return fmt.Errorf("fleet: %d hand-offs recorded but %d requests placed on the decode pool", r.Handoffs, handed)
	}
	return nil
}
