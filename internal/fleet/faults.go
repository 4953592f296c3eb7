package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The fault layer both routers share. A plan (package faults) schedules
// replica crashes and restarts as control events. A crash aborts the
// replica's in-flight requests and, when its pool has breakers, counts
// one breaker failure per aborted request (at least one). Each lost
// request spends one attempt of the plan's recovery budget and resumes
// from its latest KV checkpoint, or is re-dispatched for recompute. A
// restore lets the router re-dispatch what waited for the replica. A
// request drops only when its budget is spent or the run drains with
// nowhere to put it, always with a reason. The layer's state lives in
// the routers' shared control; the routers differ only in their host
// hooks.

// pendingRec is one dispatchable unit: a fresh arrival or a crash-lost
// request awaiting re-dispatch (its checkpoint, if any, rides along).
type pendingRec struct {
	origin int
	fresh  bool
	lost   core.Lost
}

// scheduleFaults puts every planned crash and its restore on the
// control timeline.
func (c *control) scheduleFaults() {
	if c.plan == nil {
		return
	}
	for ci, cr := range c.plan.Crashes {
		c.ctl.AtFunc(sim.Time(cr.At), crashEvent, c, ci, 0)
		c.ctl.AtFunc(sim.Time(cr.RestartAt), restoreEvent, c, ci, 0)
	}
}

// crashEvent executes one planned crash (AtFunc: ctx is the control, a
// the crash index in the plan).
func crashEvent(ctx any, ci, _ int) {
	c := ctx.(*control)
	if c.err != nil {
		return
	}
	cr := c.plan.Crashes[ci]
	b, k := c.bookOf(cr.Replica)
	lost, err := b.engines[k].Crash(sim.Time(cr.RestartAt))
	if err != nil {
		c.err = fmt.Errorf("fleet: crash of replica %d: %w", cr.Replica, err)
		return
	}
	origins := make([]int, len(lost))
	for i, l := range lost {
		origins[i] = b.retire(k, l.Local)
	}
	if b.breakers != nil {
		now := float64(c.ctl.Now())
		for i := 0; i < max(len(lost), 1); i++ {
			b.breakers[k].OnFailure(now)
		}
	}
	for i, l := range lost {
		c.recover(origins[i], l)
	}
}

// recover re-dispatches one crash-lost request, spending one recovery
// attempt. A checkpoint reloads from stable storage over the shared
// link timeline, so link degradation stretches the reload like any
// other transfer.
func (c *control) recover(origin int, l core.Lost) {
	if c.err != nil || !c.recovery(origin, c.plan.MaxRetries()) {
		return
	}
	if l.Ckpt != nil {
		bytes := float64(l.Ckpt.KV.Blocks()) * c.blockBytes
		done := c.plan.TransferDone(float64(c.ctl.Now()), c.xferTime(bytes))
		c.host.resume(origin, l, bytes, sim.Time(done))
		return
	}
	c.fstats.RecoveredRecompute++
	c.host.dispatch(pendingRec{origin: origin, lost: l})
}

// restoreEvent brings a crashed replica back at its restart instant
// (AtFunc: ctx is the control, a the crash index in the plan).
func restoreEvent(ctx any, ci, _ int) {
	c := ctx.(*control)
	if c.err != nil {
		return
	}
	cr := c.plan.Crashes[ci]
	b, k := c.bookOf(cr.Replica)
	if err := b.engines[k].Restore(); err != nil {
		c.err = fmt.Errorf("fleet: restore of replica %d: %w", cr.Replica, err)
		return
	}
	c.dispatchWaiting()
	c.host.restored(b)
}

// dispatchWaiting re-dispatches the requests that found no live
// replica.
func (c *control) dispatchWaiting() {
	q := c.waiting
	c.waiting = nil
	for _, pr := range q {
		if c.err != nil {
			return
		}
		c.host.dispatch(pr)
	}
}

// dropWaiting drops what still waits for a live replica when the run
// has drained.
func (c *control) dropWaiting() {
	for _, pr := range c.waiting {
		c.drop(pr.origin, "no live replica")
	}
}

// faultStats is the layer's final accounting, with dropped requests
// charged to the fault layer.
func (c *control) faultStats(dropped int) metrics.FaultStats {
	c.fstats.Dropped = dropped
	c.fstats.DomainOutages = len(c.plan.Domains)
	return c.fstats
}
