package fleet

import (
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The online router's policy layer (package policy). The stack's
// components compose in front of the replicas — token-bucket admission
// sheds arrivals, a seeded backoff schedule retries them, per-replica
// circuit breakers take SLO-violating replicas out of routing, priority
// preemption evicts low tiers under KV pressure — while the autoscaler
// watches windowed SLO signals at a fixed tick cadence and breathes the
// active replica set between Min and Max, paying a modeled cold-start
// (weight-load) delay on every scale-up.

// RunOnlineElasticWorkers is RunOnlineLayers with a policy stack and
// no fault plan. Admission, retry, breaker, preemption and autoscale
// interventions all execute on the control timeline, so reports are
// byte-identical across worker counts.
func RunOnlineElasticWorkers(cfg core.Config, replicas int, p Policy, reqs []workload.Request, stack *policy.Stack, workers int) (*Result, error) {
	return RunOnlineLayers(cfg, replicas, p, reqs, nil, stack, workers)
}

// arrive runs one request through the front door — the token bucket,
// when one is attached — and on to dispatch. A shed request re-enters
// admission on the backoff schedule until its retry budget runs out.
func (ro *router) arrive(origin int) {
	if ro.err != nil || ro.droppedReason[origin] != "" {
		return
	}
	if ro.stack != nil && ro.stack.Admission != nil && !ro.stack.Admission.Allow(float64(ro.ctl.Now())) {
		ro.astats.Shed++
		ro.requeue(origin, "shed by admission control; admission retry budget exhausted")
		return
	}
	ro.dispatch(pendingRec{origin: origin, fresh: true})
}

// requeue schedules a retry for a refused request, or drops it once
// the budget is spent (or no retry policy is attached).
func (ro *router) requeue(origin int, reason string) {
	bo := ro.stack.Retry
	if bo == nil || int(ro.attempts[origin]) >= bo.MaxAttempts() {
		ro.drop(origin, reason)
		return
	}
	ro.attempts[origin]++
	ro.astats.Retries++
	delay := bo.Delay(int(ro.attempts[origin]))
	ro.ctl.AtFunc(ro.ctl.Now()+sim.Time(delay), arriveEvent, &ro.control, origin, 0)
}

// observe feeds one completion to the policy layer: the autoscaler's
// TTFT window, the replica's breaker and drain detection. It runs on
// the owning shard's goroutine and touches only replica-indexed slots
// (breaker trips are summed from Trips() at assemble).
func (ro *router) observe(replica, local int) {
	t := float64(ro.engines[replica].Now())
	if ttft, ok := ro.engines[replica].RequestTTFT(local); ok {
		ro.winTTFT[replica] = append(ro.winTTFT[replica], ttft)
		if ro.breakers != nil {
			if ttft > ro.ttftSLO {
				ro.breakers[replica].OnFailure(t)
			} else {
				ro.breakers[replica].OnSuccess(t)
			}
		}
	}
	if ro.pool != nil && ro.outstanding[replica].Requests == 0 {
		ro.pool.noteDrained(replica, t)
	}
}

// signals builds the autoscaler's windowed SLO view and resets the
// window. Crash-lost requests waiting for a live replica count as
// queued demand.
func (ro *router) signals() policy.Signals {
	queued := len(ro.waiting)
	var win []float64
	for i := range ro.engines {
		queued += ro.outstanding[i].Requests
		win = append(win, ro.winTTFT[i]...)
		ro.winTTFT[i] = ro.winTTFT[i][:0]
	}
	s := ro.pool.signals(queued)
	if len(win) > 0 {
		sort.Float64s(win)
		s.TTFTP99 = metrics.Percentile(win, 99)
		good := 0
		for _, v := range win {
			if v <= ro.ttftSLO {
				good++
			}
		}
		s.Goodput = float64(good) / float64(len(win))
	}
	return s
}
