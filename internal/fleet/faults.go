package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The online router's fault layer. The plan (package faults) schedules
// replica crashes and restarts as control events; routing skips dead
// replicas, crash-lost requests are aborted and re-dispatched —
// resuming from a periodic KV checkpoint when one exists,
// re-prefilling input+generated tokens otherwise — and a request drops
// only after its retry budget is exhausted or no live replica remains,
// always with a recorded reason.

// RunOnlineFaults is RunOnline under a fault plan. A nil or inactive
// plan is an absent fault layer, so fault-free results are
// byte-identical to RunOnline.
func RunOnlineFaults(cfg core.Config, replicas int, p Policy, reqs []workload.Request, plan *faults.Plan) (*Result, error) {
	return RunOnlineFaultsWorkers(cfg, replicas, p, reqs, plan, 1)
}

// RunOnlineFaultsWorkers is RunOnlineFaults with an explicit worker
// budget for the conservative parallel fabric (see RunOnlineWorkers).
// Crash, restore and checkpoint-resume interventions all execute on
// the control timeline, so fault runs stay byte-identical across
// worker counts. An active plan must be drawn for exactly replicas
// replicas (ErrPlanFleetMismatch otherwise).
func RunOnlineFaultsWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, plan *faults.Plan, workers int) (*Result, error) {
	return RunOnlineLayers(cfg, replicas, p, reqs, plan, nil, workers)
}

// crashEvent executes one planned crash (AtFunc: a is the crash index
// in the plan).
func crashEvent(ctx any, ci, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	c := ro.plan.Crashes[ci]
	lost, err := ro.engines[c.Replica].Crash(sim.Time(c.RestartAt))
	if err != nil {
		ro.err = fmt.Errorf("fleet: crash of replica %d: %w", c.Replica, err)
		return
	}
	origins := make([]int, len(lost))
	for i, l := range lost {
		origins[i] = ro.retire(c.Replica, l.Local)
	}
	for i, l := range lost {
		ro.recover(origins[i], l)
	}
}

// recover re-dispatches one crash-lost request, spending one retry.
func (ro *router) recover(origin int, l core.Lost) {
	if ro.err != nil || !ro.retry(origin, ro.plan.MaxRetries()) {
		return
	}
	if l.Ckpt != nil {
		// Checkpoint resume: the snapshot reloads from stable storage
		// over the KV link before it can be re-imported. The reload
		// rides the shared link timeline (TransferDoneFrom with no
		// source replica), so link degradation and partitions stretch
		// or stall it like any other transfer.
		ro.items = append(ro.items, pendingRec{origin: origin, lost: l})
		bytes := float64(l.Ckpt.KV.Blocks()) * ro.blockBytes
		done := ro.plan.TransferDoneFrom(-1, float64(ro.ctl.Now()), ro.xferTime(bytes))
		ro.ctl.AtFunc(sim.Time(done), resumeEvent, ro, len(ro.items)-1, 0)
		return
	}
	ro.fstats.RecoveredRecompute++
	ro.dispatch(pendingRec{origin: origin, lost: l})
}

// resumeEvent places a reloaded checkpoint on a live replica with KV
// headroom. With none available, or when the import fails at arrival
// (the target died or lost its headroom in this very instant), it falls
// back to recompute recovery on the same attempt instead of waiting.
func resumeEvent(ctx any, item, _ int) {
	ro := ctx.(*router)
	it := ro.items[item]
	if ro.err != nil || ro.droppedReason[it.origin] != "" {
		return
	}
	ck := it.lost.Ckpt
	r := ro.reqs[it.origin]
	now := float64(ro.ctl.Now())
	ro.snapshot(r, ck, now)
	k, err := ro.pick(r, now)
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

// restoreEvent brings a crashed replica back and dispatches the
// requests that found no live replica.
func restoreEvent(ctx any, ci, _ int) {
	ro := ctx.(*router)
	if ro.err != nil {
		return
	}
	c := ro.plan.Crashes[ci]
	if err := ro.engines[c.Replica].Restore(); err != nil {
		ro.err = fmt.Errorf("fleet: restore of replica %d: %w", c.Replica, err)
		return
	}
	q := ro.queued
	ro.queued = nil
	for _, pr := range q {
		if ro.err != nil {
			return
		}
		ro.dispatch(pr)
	}
}
