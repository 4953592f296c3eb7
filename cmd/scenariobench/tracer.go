package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// tracer counts and times the calls the program makes into the two layer
// interfaces the benchmark hands it: the output-length predictor and the
// dispatch policy. A nil tracer hands the layers in unwrapped. The
// counters are atomic because the parallel fabric calls the predictor
// from its worker goroutines.
type tracer struct {
	predictCalls, predictNs atomic.Int64
	pickCalls, pickNs       atomic.Int64
	// prefixPicks counts picks of prefix-stamped requests; warmPicks
	// those that chose a replica already holding part of the prefix.
	prefixPicks, warmPicks atomic.Int64
}

// predictor returns p wrapped in a counting timer, or p itself when t is
// nil.
func (t *tracer) predictor(p core.LenPredictor) core.LenPredictor {
	if t == nil {
		return p
	}
	return &countingPredictor{inner: p, t: t}
}

// policy returns p wrapped in a counting timer, or p itself when t is
// nil.
func (t *tracer) policy(p fleet.Policy) fleet.Policy {
	if t == nil {
		return p
	}
	return &countingPolicy{inner: p, t: t}
}

type countingPredictor struct {
	inner core.LenPredictor
	t     *tracer
}

// PredictLen times and counts the inner predictor's estimate.
func (c *countingPredictor) PredictLen(r workload.Request) int {
	start := time.Now()
	n := c.inner.PredictLen(r)
	c.t.predictNs.Add(int64(time.Since(start)))
	c.t.predictCalls.Add(1)
	return n
}

type countingPolicy struct {
	inner fleet.Policy
	t     *tracer
}

// Name returns the inner policy's name.
func (c *countingPolicy) Name() string { return c.inner.Name() }

// Cost returns the inner policy's cost estimate.
func (c *countingPolicy) Cost(r workload.Request) float64 { return c.inner.Cost(r) }

// Pick times and counts the inner policy's pick, noting whether a
// prefix-stamped request landed on a replica that already holds part of
// its prefix.
func (c *countingPolicy) Pick(r workload.Request, loads []fleet.Load) int {
	start := time.Now()
	k := c.inner.Pick(r, loads)
	c.t.pickNs.Add(int64(time.Since(start)))
	c.t.pickCalls.Add(1)
	if r.PrefixLen > 0 {
		c.t.prefixPicks.Add(1)
		if k >= 0 && k < len(loads) && loads[k].WarmTokens > 0 {
			c.t.warmPicks.Add(1)
		}
	}
	return k
}
