package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The fault layer both routers share. A plan (package faults) schedules
// replica crashes and restarts as control events. A crash aborts the
// replica's in-flight requests and, when its pool has breakers, counts
// one breaker failure per aborted request (at least one). Each lost
// request spends one attempt of the plan's recovery budget and resumes
// from its latest KV checkpoint, or is re-dispatched for recompute. A
// restore lets the router re-dispatch what waited for the replica. A
// request drops only when its budget is spent or the run drains with
// nowhere to put it, always with a reason. The routers differ only in
// the faultHost hooks.

// pendingRec is one dispatchable unit: a fresh arrival or a crash-lost
// request awaiting re-dispatch (its checkpoint, if any, rides along).
type pendingRec struct {
	origin int
	fresh  bool
	lost   core.Lost
}

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

// faultHost is a router as the fault layer sees it.
type faultHost interface {
	// bookOf maps a fleet replica index to its pool's book and
	// pool-local index.
	bookOf(replica int) (*book, int)
	// resume re-enters a crash-lost request from its checkpoint, whose
	// bytes of KV finish reloading at done.
	resume(origin int, l core.Lost, bytes float64, done sim.Time)
	// dispatch routes a request to a live replica, or appends it to
	// waiting when none can take it.
	dispatch(pr pendingRec)
	// restored reacts to a restore of a replica of b beyond
	// re-dispatching waiting.
	restored(b *book)
}

// faultLayer executes a fault plan on behalf of one router. With a nil
// plan it schedules nothing and only prices KV transfers.
type faultLayer struct {
	plan *faults.Plan
	host faultHost
	led  *ledger
	// ctl is the router's control timeline.
	ctl        *sim.Engine
	blockBytes float64
	xferTime   func(bytes float64) float64
	fstats     metrics.FaultStats
	// waiting holds requests that found no live replica, dispatched
	// again at the next restore (or scale-up activation).
	waiting []pendingRec
}

// newFaultLayer builds host's fault layer; blockBytes is the KV
// footprint of one block across the model.
func newFaultLayer(cfg core.Config, plan *faults.Plan, host faultHost, led *ledger, ctl *sim.Engine) faultLayer {
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = kvcache.DefaultBlockSize
	}
	blockBytes := float64(bs) * cfg.Spec.KVBytesPerToken()
	return faultLayer{plan: plan, host: host, led: led, ctl: ctl, blockBytes: blockBytes, xferTime: costmodel.KVTransfer(cfg.Node)}
}

// scheduleFaults puts every planned crash and its restore on the
// control timeline.
func (fl *faultLayer) scheduleFaults() {
	if fl.plan == nil {
		return
	}
	for ci, c := range fl.plan.Crashes {
		fl.ctl.AtFunc(sim.Time(c.At), crashEvent, fl, ci, 0)
		fl.ctl.AtFunc(sim.Time(c.RestartAt), restoreEvent, fl, ci, 0)
	}
}

// crashEvent executes one planned crash (AtFunc: ctx is the fault
// layer, a the crash index in the plan).
func crashEvent(ctx any, ci, _ int) {
	fl := ctx.(*faultLayer)
	if fl.led.err != nil {
		return
	}
	c := fl.plan.Crashes[ci]
	b, k := fl.host.bookOf(c.Replica)
	lost, err := b.engines[k].Crash(sim.Time(c.RestartAt))
	if err != nil {
		fl.led.err = fmt.Errorf("fleet: crash of replica %d: %w", c.Replica, err)
		return
	}
	origins := make([]int, len(lost))
	for i, l := range lost {
		origins[i] = b.retire(k, l.Local)
	}
	if b.breakers != nil {
		now := float64(fl.ctl.Now())
		for i := 0; i < max(len(lost), 1); i++ {
			b.breakers[k].OnFailure(now)
		}
	}
	for i, l := range lost {
		fl.recover(origins[i], l)
	}
}

// recover re-dispatches one crash-lost request, spending one recovery
// attempt. A checkpoint reloads from stable storage over the shared
// link timeline, so link degradation stretches the reload like any
// other transfer.
func (fl *faultLayer) recover(origin int, l core.Lost) {
	if fl.led.err != nil || !fl.led.recovery(origin, fl.plan.MaxRetries()) {
		return
	}
	if l.Ckpt != nil {
		bytes := float64(l.Ckpt.KV.Blocks()) * fl.blockBytes
		done := fl.plan.TransferDone(float64(fl.ctl.Now()), fl.xferTime(bytes))
		fl.host.resume(origin, l, bytes, sim.Time(done))
		return
	}
	fl.fstats.RecoveredRecompute++
	fl.host.dispatch(pendingRec{origin: origin, lost: l})
}

// restoreEvent brings a crashed replica back at its restart instant
// (AtFunc: ctx is the fault layer, a the crash index in the plan).
func restoreEvent(ctx any, ci, _ int) {
	fl := ctx.(*faultLayer)
	if fl.led.err != nil {
		return
	}
	c := fl.plan.Crashes[ci]
	b, k := fl.host.bookOf(c.Replica)
	if err := b.engines[k].Restore(); err != nil {
		fl.led.err = fmt.Errorf("fleet: restore of replica %d: %w", c.Replica, err)
		return
	}
	fl.dispatchWaiting()
	fl.host.restored(b)
}

// dispatchWaiting re-dispatches the requests that found no live
// replica.
func (fl *faultLayer) dispatchWaiting() {
	q := fl.waiting
	fl.waiting = nil
	for _, pr := range q {
		if fl.led.err != nil {
			return
		}
		fl.host.dispatch(pr)
	}
}

// dropWaiting drops what still waits for a live replica when the run
// has drained.
func (fl *faultLayer) dropWaiting() {
	for _, pr := range fl.waiting {
		fl.led.drop(pr.origin, "no live replica")
	}
}

// faultStats is the layer's final accounting, with dropped requests
// charged to the fault layer.
func (fl *faultLayer) faultStats(dropped int) metrics.FaultStats {
	fl.fstats.Dropped = dropped
	if fl.plan != nil {
		fl.fstats.DomainOutages = len(fl.plan.Domains)
	}
	return fl.fstats
}
