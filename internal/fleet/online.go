package fleet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ErrInvalidArrival reports a trace whose arrival stamps cannot be
// scheduled: negative (before simulation start) or NaN. Every online
// router validates the trace up front and returns this error (wrapped
// with the offending trace index) before any engine is built — a bad
// stamp is a workload bug, and silently clamping it to t=0 would
// reorder the trace behind the caller's back.
var ErrInvalidArrival = errors.New("fleet: invalid arrival time")

// ErrPlanFleetMismatch reports an active fault plan drawn for a fleet
// of a different size than the one it is run on. Crashes aimed at
// replicas the fleet does not have would otherwise be skipped or hit
// the wrong pool, so both routers reject the plan (wrapped with both
// sizes) before any engine is built.
var ErrPlanFleetMismatch = errors.New("fleet: fault plan drawn for a different fleet size")

// validateArrivals rejects traces with negative or NaN arrival stamps.
// Closed-loop traces (all zeros) pass: zero is a valid instant.
func validateArrivals(reqs []workload.Request) error {
	for i := range reqs {
		if at := reqs[i].ArrivalTime; at < 0 || math.IsNaN(at) {
			return fmt.Errorf("%w: request %d arrives at %v; stamp traces with workload arrival processes or shift them to start at t >= 0", ErrInvalidArrival, i, at)
		}
	}
	return nil
}

// replicaConfig specializes the fleet config for replica i under a
// fault plan: stragglers get their slowdown factor, and the checkpoint
// cadence is switched on fleet-wide.
func replicaConfig(cfg core.Config, plan *faults.Plan, i int) core.Config {
	if plan == nil {
		return cfg
	}
	if f := plan.SlowdownFor(i); f > 0 {
		cfg.Slowdown = f
	}
	if ci := plan.Config.CheckpointInterval; ci > 0 {
		cfg.CheckpointInterval = ci
	}
	return cfg
}

// RunOnlineWorkers serves an arrival-stamped trace as an online router
// with no fault or policy layer (see RunOnlineLayers): every replica
// engine runs on ONE shared virtual clock, and each request is routed
// at its arrival instant. Unlike the offline pre-shard (Dispatch),
// policies see the arrival order and a live load snapshot — the work
// each replica still has outstanding at that moment, not the
// whole-trace totals — through the same Policy interface.
// The snapshot is maintained incrementally: submissions add to
// per-replica counters and each engine's finish hook subtracts, so
// routing one arrival costs O(replicas) instead of rescanning every
// outstanding request.
//
// workers budgets the conservative parallel fabric: 0 or 1 runs
// sequentially, WorkersAuto picks GOMAXPROCS for fleets of at least
// AutoWorkerThreshold replicas. The co-simulation is deterministic for
// a fixed trace, config and policy seed, and reports are byte-identical
// across worker counts. Use Run for closed-loop (all-at-t=0) traces,
// where the pre-shard is equivalent and replicas can simulate in
// parallel.
func RunOnlineWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, workers int) (*Result, error) {
	return RunOnlineLayers(cfg, replicas, p, reqs, nil, nil, workers)
}

// router is the online router: one replica pool on the fabric, with an
// optional fault layer (plan: crash, restore and checkpoint-resume
// events, faults.go) and an optional policy layer (stack: admission,
// retry, breakers, preemption and the autoscaler, elastic.go). An
// absent layer schedules no events and adds no routing filter. Every
// intervention executes on the control timeline; only the engines'
// finish hooks run on shard goroutines, and those touch replica- and
// request-indexed slots exclusively.
type router struct {
	control
	*book
	// items holds checkpoint restores in flight (KV reloading from
	// stable storage before re-import).
	items []pendingRec

	// stack is nil without a policy layer.
	stack *policy.Stack
	// winTTFT[i] collects replica i's completion TTFTs since the last
	// autoscale tick (shard-written, coordinator-drained).
	winTTFT [][]float64
	ttftSLO float64
}

// RunOnlineLayers serves reqs on replicas engines of cfg under dispatch
// policy p on workers simulation workers (see RunOnlineWorkers), with
// an optional fault layer and an optional policy layer. A nil or
// inactive plan or stack is an absent layer, and a run without layers
// is byte-identical to RunOnlineWorkers.
//
// The fault layer executes plan's crashes: a crash aborts the replica's
// in-flight requests, which resume from their latest KV checkpoint or
// are re-dispatched for recompute under the plan's retry budget. An
// active plan must be drawn for exactly replicas replicas
// (ErrPlanFleetMismatch otherwise).
//
// The policy layer puts stack in front of the replicas: token-bucket
// admission, backoff retries, breakers, priority preemption and the
// autoscaler. replicas is the provisioned fleet the autoscaler may grow
// into and must cover its Max. An autoscaler whose ColdStart is zero
// gets the modeled weight-load time of one replica.
//
// The two compose: admission retries and crash recoveries spend
// separate budgets, a crash-lost request never passes the front door
// again, and each drop is counted once, in Report.Faults when a crash
// had lost the request and in Report.Admission otherwise.
func RunOnlineLayers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, plan *faults.Plan, stack *policy.Stack, workers int) (*Result, error) {
	if !stack.Active() {
		stack = nil
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("fleet: replicas = %d", replicas)
	}
	if p == nil {
		return nil, fmt.Errorf("fleet: nil policy")
	}
	ro := &router{stack: stack, ttftSLO: cfg.SLO.TTFT}
	if stack != nil {
		if as := stack.Autoscaler; as != nil && as.Config().TTFTTarget > 0 {
			ro.ttftSLO = as.Config().TTFTTarget
		}
		ro.winTTFT = make([][]float64, replicas)
	}
	if err := ro.build(ro, cfg, reqs, plan, stack, workers, poolSpec{replicas, p}); err != nil {
		return nil, err
	}
	ro.book = ro.books[0]
	for i, e := range ro.engines {
		i := i
		e.SetOnFinish(func(local int) { ro.finished(i, local) })
	}
	results, err := ro.run()
	if err != nil {
		return nil, err
	}
	return ro.result(cfg, results)
}

// dispatch routes one request to a live, routable replica: fresh
// arrivals submit normally, crash-lost requests resume via
// SubmitRecovered. With no candidate the policy layer re-admits a fresh
// arrival on its backoff schedule. A crash-lost request skips the front
// door: it falls back past open breakers and otherwise queues until the
// next restore or scale-up activation.
func (ro *router) dispatch(pr pendingRec) {
	r := ro.reqs[pr.origin]
	now := float64(ro.ctl.Now())
	k, err := ro.route(r, nil, now, !pr.fresh, &ro.astats.BreakerSkips)
	switch {
	case err != nil:
		ro.err = err
		return
	case k < 0 && pr.fresh && ro.stack != nil:
		ro.requeue(pr.origin, "no routable replica; admission retry budget exhausted")
		return
	case k < 0:
		ro.waiting = append(ro.waiting, pr)
		return
	}
	var local int
	if pr.fresh {
		local, err = ro.engines[k].Submit(r)
	} else {
		local, err = ro.engines[k].SubmitRecovered(r, pr.lost.Generated, pr.lost.FirstTokenAt)
	}
	if err != nil {
		// A layered run may lose requests, but never silently: an
		// unservable request drops with a reason. The bare router
		// fails the run instead.
		if (ro.plan != nil || ro.stack != nil) && errors.Is(err, core.ErrRequestTooLarge) {
			ro.drop(pr.origin, err.Error())
			return
		}
		ro.err = fmt.Errorf("fleet: replica %d rejected request %d: %w", k, pr.origin, err)
		return
	}
	if ro.stack != nil && ro.stack.Preemption != nil && r.Priority == 0 {
		// The preemptor is already queued ahead; victims requeue
		// behind it for recompute.
		victims := ro.engines[k].PreemptLowPriority(ro.stack.Preemption.Evictable(), r.InputLen)
		ro.astats.Preemptions += len(victims)
	}
	// Submit only schedules simulation events, so the finish hook
	// cannot fire before the booking below.
	ro.add(r, pr.origin, k, local)
	ro.land(pr.origin, k, local)
}

// resume waits for a checkpoint's reload; resumeEvent places it.
func (ro *router) resume(origin int, l core.Lost, _ float64, done sim.Time) {
	ro.items = append(ro.items, pendingRec{origin: origin, lost: l})
	ro.ctl.AtFunc(done, resumeEvent, ro, len(ro.items)-1, 0)
}

// restored has nothing to add to the fault layer's re-dispatch.
func (ro *router) restored(*book) {}

// activated dispatches the crash-lost requests that found no live
// replica to the replica that just joined routing.
func (ro *router) activated() { ro.dispatchWaiting() }

// drained has nothing to settle: only waiting requests remain.
func (ro *router) drained() {}

// resumeEvent places a reloaded checkpoint on a live, routable replica
// that can receive and hold its KV — a replica inside a network domain
// outage keeps serving but cannot receive KV — ranked by the resident
// share of the checkpointed blocks. Breaker-open replicas are skipped
// unless they are the only ones that can import it. With none
// available, or when the import fails at arrival (the target died or
// lost its headroom in this very instant), it falls back to recompute
// recovery on the same attempt instead of waiting.
func resumeEvent(ctx any, item, _ int) {
	ro := ctx.(*router)
	it := ro.items[item]
	if ro.err != nil || ro.droppedReason[it.origin] != "" {
		return
	}
	ck := it.lost.Ckpt
	r := ro.reqs[it.origin]
	k, err := ro.route(r, &ck.KV, float64(ro.ctl.Now()), true, &ro.astats.BreakerSkips)
	if err != nil {
		ro.err = err
		return
	}
	if k >= 0 {
		h := core.Handoff{Local: -1, Req: r, KV: ck.KV, Generated: ck.Generated, FirstTokenAt: ck.FirstTokenAt, At: ro.ctl.Now()}
		if local, err := ro.engines[k].SubmitDecoded(r, h); err == nil {
			ro.fstats.RecoveredCheckpoint++
			ro.add(r, it.origin, k, local)
			ro.land(it.origin, k, local)
			return
		}
	}
	lost := it.lost
	lost.Ckpt = nil
	ro.fstats.RecoveredRecompute++
	ro.dispatch(pendingRec{origin: it.origin, lost: lost})
}

// finished is the engines' completion hook: it retires the request
// from its replica's counters in O(1) and counts the terminal finish.
//
//det:hotpath
func (ro *router) finished(replica, local int) {
	ro.fin[ro.retire(replica, local)]++
	if ro.stack != nil {
		ro.observe(replica, local)
	}
}

// result assembles the run: conservation, records and the fleet
// report, plus each present layer's accounting.
func (ro *router) result(cfg core.Config, results []*core.Result) (*Result, error) {
	mode := "FleetOnline"
	switch {
	case ro.plan != nil && ro.stack != nil:
		mode = "FleetFaultsElastic"
	case ro.plan != nil:
		mode = "FleetFaults"
	case ro.stack != nil:
		mode = "FleetElastic"
	}
	res := &Result{Replicas: results, Shards: ro.shards, Policy: ro.policy.Name(), Steps: ro.fab.Steps()}
	if ro.plan == nil && ro.stack == nil {
		// Without layers nothing is re-dispatched or dropped, so each
		// replica must have completed exactly its shard.
		if err := res.CheckConservation(len(ro.reqs)); err != nil {
			return nil, err
		}
	}
	// Each drop is counted once: with both layers on, a request a crash
	// had lost is the fault layer's drop, any other the policy layer's.
	admitDrops := 0
	if ro.stack != nil {
		admitDrops = ro.dropped
		if ro.plan != nil {
			admitDrops -= ro.lostDrops
		}
	}
	var err error
	res.Report, res.Records, err = ro.report(cfg, fmt.Sprintf("%s(TD-Pipe/%s)x%d", mode, ro.policy.Name(), len(results)), results, admitDrops)
	if err != nil {
		return nil, err
	}
	return res, nil
}
