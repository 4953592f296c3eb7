package fleet

import (
	"slices"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// replica lifecycle states of an elastic pool.
const (
	rIdle     = iota // provisioned but not serving (never started, or drained)
	rWarming         // scale-up decided, weight load in progress
	rActive          // serving traffic
	rDraining        // scale-down decided, finishing resident work
)

// elasticPool owns the replica-lifecycle mechanics an autoscaled pool
// needs: the per-replica state machine (idle / warming / active /
// draining), the provisioned GPU-second spans, and the execution of
// scale decisions, driven by one autoscaler tick both routers share.
// The online router's policy layer scales its whole fleet with one; the
// disaggregated router scales its decode pool. A nil pool means
// "static": every routable check passes and no accounting happens.
type elasticPool struct {
	as        *policy.Autoscaler
	coldStart float64

	// Coordinator-owned lifecycle state.
	state     []int
	openStart []float64
	gpuSec    []float64
	// drainDoneAt[i] is shard-written: the instant replica i's last
	// outstanding request finished while draining (-1 otherwise). The
	// coordinator reaps it at ticks and at assemble.
	drainDoneAt []float64

	stats metrics.AutoscaleStats
}

// newElasticPool provisions n replicas of cfg, the autoscaler's initial
// count active and the rest idle. Every scale-up pays the autoscaler's
// ColdStart, or the modeled weight-load time of one replica when that
// is zero.
func newElasticPool(cfg core.Config, as *policy.Autoscaler, n int) *elasticPool {
	coldStart := as.Config().ColdStart
	if coldStart == 0 {
		coldStart = faults.WeightReloadTime(cfg.Node, cfg.Spec, cfg.World)
	}
	ep := &elasticPool{
		as:          as,
		coldStart:   coldStart,
		state:       make([]int, n),
		openStart:   make([]float64, n),
		gpuSec:      make([]float64, n),
		drainDoneAt: make([]float64, n),
	}
	initial := as.InitialReplicas()
	for i := range ep.state {
		ep.drainDoneAt[i] = -1
		if i < initial {
			ep.state[i] = rActive
		}
	}
	ep.stats.PeakReplicas = initial
	return ep
}

// routable reports whether replica i may receive new traffic. A nil
// pool is static: everything is routable.
func (ep *elasticPool) routable(i int) bool {
	return ep == nil || ep.state[i] == rActive
}

// signals is the autoscaler's view of the pool with queued requests
// outstanding; the SLO fields hold their neutral values.
func (ep *elasticPool) signals(queued int) policy.Signals {
	s := policy.Signals{Goodput: 1}
	for _, st := range ep.state {
		switch st {
		case rActive:
			s.Active++
		case rWarming:
			s.Warming++
		}
	}
	s.QueuePerReplica = float64(queued) / float64(max(s.Active, 1))
	return s
}

// tickEvent is one autoscaler evaluation on the control timeline
// (AtFunc: ctx is the control): reap finished drains, scale by the
// autoscaler's decision on the router's signals (each scale-up
// activates after the cold start), and tick again while any request is
// unresolved; once everything is terminal the timeline drains and the
// run ends.
func tickEvent(ctx any, _, _ int) {
	c := ctx.(*control)
	if c.err != nil {
		return
	}
	ep, now := c.pool, float64(c.ctl.Now())
	ep.reapDrains()
	ep.stats.Ticks++
	ep.scale(ep.as.Decide(now, c.host.signals()), now, c.books[len(c.books)-1].outstanding, func(k int) {
		c.ctl.AtFunc(sim.Time(now+ep.coldStart), activateEvent, c, k, 0)
	})
	if c.unresolved() {
		c.ctl.AtFunc(c.ctl.Now()+ep.tickInterval(), tickEvent, c, 0, 0)
	}
}

// activateEvent completes one scale-up (AtFunc: ctx is the control, a
// the pool-local replica) and lets the router use the new replica.
func activateEvent(ctx any, k, _ int) {
	c := ctx.(*control)
	if c.err != nil {
		return
	}
	c.pool.activate(k)
	c.host.activated()
}

// provisioned counts replicas currently costing GPU time.
func (ep *elasticPool) provisioned() int {
	n := 0
	for _, st := range ep.state {
		if st != rIdle {
			n++
		}
	}
	return n
}

// scale executes one autoscaler decision at instant now: +delta
// replicas start warming (idle first, then canceling drains; warm
// schedules the activation event for each), -delta active replicas
// start draining (fewest outstanding requests in load first, higher
// index on ties).
func (ep *elasticPool) scale(delta int, now float64, load []Load, warm func(k int)) {
	for ; delta > 0; delta-- {
		if k := slices.Index(ep.state, rIdle); k >= 0 {
			ep.state[k] = rWarming
			ep.openStart[k] = now
			ep.stats.ScaleUps++
			ep.stats.ColdStartSeconds += ep.coldStart
			warm(k)
		} else {
			// No idle replica: cancel a drain instead (the span stays
			// open, no cold start to pay — weights are still loaded).
			k := slices.Index(ep.state, rDraining)
			if k < 0 {
				break
			}
			ep.state[k] = rActive
			ep.drainDoneAt[k] = -1
			ep.stats.ScaleUps++
		}
		if p := ep.provisioned(); p > ep.stats.PeakReplicas {
			ep.stats.PeakReplicas = p
		}
	}
	for ; delta < 0; delta++ {
		k := -1
		for i := len(ep.state) - 1; i >= 0; i-- {
			if ep.state[i] != rActive {
				continue
			}
			if k < 0 || load[i].Requests < load[k].Requests {
				k = i
			}
		}
		if k < 0 {
			break
		}
		ep.stats.ScaleDowns++
		if load[k].Requests == 0 {
			ep.closeSpan(k, now)
		} else {
			ep.state[k] = rDraining
			ep.drainDoneAt[k] = -1
		}
	}
}

// activate completes one scale-up: replica k's weights are loaded and
// it joins routing (a no-op if the warm-up was overtaken, e.g. by an
// error unwinding the run).
func (ep *elasticPool) activate(k int) {
	if ep.state[k] == rWarming {
		ep.state[k] = rActive
	}
}

// noteDrained records — from the owning shard's finish hook — that
// draining replica k ran out of resident work at instant t.
func (ep *elasticPool) noteDrained(k int, t float64) {
	if ep.state[k] == rDraining {
		ep.drainDoneAt[k] = t
	}
}

// closeSpan retires replica k's provisioned stretch at instant end.
func (ep *elasticPool) closeSpan(k int, end float64) {
	if end > ep.openStart[k] {
		ep.gpuSec[k] += end - ep.openStart[k]
	}
	ep.state[k] = rIdle
	ep.drainDoneAt[k] = -1
}

// reapDrains closes the spans of draining replicas whose last resident
// request has finished (recorded by noteDrained).
func (ep *elasticPool) reapDrains() {
	for i := range ep.state {
		if ep.state[i] == rDraining && ep.drainDoneAt[i] >= 0 {
			ep.closeSpan(i, ep.drainDoneAt[i])
		}
	}
}

// finish closes every open span at instant end and returns the final
// accounting, with GPUSeconds summed across replicas at world GPUs
// each.
func (ep *elasticPool) finish(end float64, world int) metrics.AutoscaleStats {
	ep.reapDrains()
	for i := range ep.state {
		if ep.state[i] != rIdle {
			ep.closeSpan(i, end)
		}
		ep.stats.GPUSeconds += ep.gpuSec[i] * float64(world)
	}
	return ep.stats
}

// tickInterval returns the autoscaler's evaluation cadence as a
// simulation duration.
func (ep *elasticPool) tickInterval() sim.Time {
	return sim.Time(ep.as.Config().Interval)
}
