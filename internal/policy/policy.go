// Package policy is the serving-policy sandbox: composable, seeded,
// deterministic front-door components a fleet router attaches in front
// of its replicas, plus the elastic autoscaler that breathes the fleet
// with load.
//
// Every component runs in virtual time (the shared simulation clock)
// and keeps only plain scalar state, so a run with a given stack and
// seed is bit-reproducible and independent of the fleet fabric's
// worker count. The components are:
//
//   - TokenBucket: admission control / rate limiting at the front door.
//     Arrivals that find the bucket empty are shed.
//   - Breaker: a per-replica circuit breaker (closed -> open ->
//     half-open) fed by the replica's TTFT-SLO outcomes; open breakers
//     are skipped by routing until a half-open probe succeeds.
//   - Backoff: the deterministic retry schedule shed or dropped
//     requests re-enter admission with.
//   - Autoscaler: watches windowed SLO signals (TTFT p99, queue depth,
//     goodput) and scales the active replica set between Min and Max,
//     paying a modeled cold-start (weight-load) delay on the way up.
//   - Preemption: priority tiers; under KV pressure a high-priority
//     arrival evicts low-priority decodes through the engine's
//     eviction-recompute path.
//
// A Stack composes any subset. The zero/nil stack is inactive: routers
// treat it as an absent policy layer, so results are byte-identical to
// a policy-free run (enforced by the fleet golden matrix).
package policy

// Stack bundles the front-door policies and the autoscaler one router
// run composes. Nil fields disable the component; a nil or all-nil
// stack is inactive and routers bypass the policy layer entirely.
type Stack struct {
	// Admission is the front-door token bucket; arrivals that find it
	// empty are shed (and retried when Retry is configured).
	Admission *TokenBucket
	// Retry schedules re-admission of shed requests. Without it a shed
	// request is dropped immediately.
	Retry *Backoff
	// Breaker, when non-nil, gives every replica a circuit breaker
	// built from this configuration.
	Breaker *BreakerConfig
	// Autoscaler scales the active replica set; nil pins the fleet at
	// its static size.
	Autoscaler *Autoscaler
	// Preemption enables priority tiers with low-priority decode
	// eviction.
	Preemption *PreemptionConfig
}

// Active reports whether any component is configured. Routers treat
// an inactive stack (nil, or no components) as an absent policy layer,
// preserving byte-identical reports.
func (s *Stack) Active() bool {
	return s != nil && (s.Admission != nil || s.Retry != nil || s.Breaker != nil ||
		s.Autoscaler != nil || s.Preemption != nil)
}

// PreemptionConfig enables priority tiers with preemption: requests
// carry a workload Priority tier (0 is highest), and a tier-0 arrival
// that finds its replica short on KV headroom evicts resident requests
// of tier >= EvictTier through the engine's eviction-recompute path —
// the victims requeue locally for a fresh prefill behind the
// preemptor.
type PreemptionConfig struct {
	// EvictTier is the lowest-importance tier protected from eviction
	// minus one: requests with Priority >= EvictTier are evictable.
	// Zero defaults to 1 (everything below the top tier).
	EvictTier int
}

// Evictable returns the minimum evictable priority tier.
func (p PreemptionConfig) Evictable() int {
	if p.EvictTier <= 0 {
		return 1
	}
	return p.EvictTier
}
