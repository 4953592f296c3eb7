package fleet

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Feature bits of one FuzzFleet input.
const (
	featPrefix   = 1 << iota // shared-prefix stamps
	featPriority             // priority tiers
	featFaults               // a fault plan
	featDomains              // correlated rack outages in the plan
	featStack                // a policy stack
	featDisagg               // disaggregated prefill/decode serving
)

// FuzzFleet draws a feature set (prefix stamps, priorities, a fault
// plan with or without domains, a policy stack, online or disagg), 1–8
// replicas and a seed, and asserts on every input:
//   - exactly-once conservation: each request finishes xor drops, and
//     the report counts each drop once;
//   - physical sanity (checkExactlyOnce): arrival <= first token <=
//     finish with output for finished requests, no output for dropped
//     ones, and provisioned GPU-seconds covering busy ones;
//   - worker invariance: workers 1 and 4 produce identical bytes;
//   - inactive-layer identity: a nil or empty plan and stack give the
//     plain run's bytes.
//
// The seed corpus runs under go test; `make fuzz` explores further.
func FuzzFleet(f *testing.F) {
	for _, in := range []struct {
		seed               int64
		features, replicas uint8
	}{
		{1, 0, 3},
		{2, featPrefix | featPriority, 0},
		{3, featFaults, 3},
		{4, featFaults | featDomains, 5},
		{5, featStack | featPriority, 3},
		{6, featFaults | featStack, 3},
		{7, featFaults | featDomains | featStack | featPrefix, 7},
		{8, featDisagg, 1},
		{9, featDisagg | featFaults | featDomains, 4},
		{10, featDisagg | featFaults | featStack, 5},
		{11, featFaults | featStack, 0},
	} {
		f.Add(in.seed, in.features, in.replicas)
	}
	f.Fuzz(func(t *testing.T, seed int64, features, replicas uint8) {
		fuzzFleet(t, seed, features, 1+int(replicas%8))
	})
}

func fuzzFleet(t *testing.T, seed int64, features uint8, replicas int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := fastConfig(2)
	cfg.SLO.TTFT = 0.01
	reqs := smallTrace(48, seed)
	var err error
	if features&featPrefix != 0 {
		if reqs, err = workload.StampPrefixes(reqs, workload.PrefixConfig{Groups: 1 + rng.Intn(4), PrefixLen: 64, Turns: 2, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if features&featPriority != 0 {
		if reqs, err = workload.StampPriorities(reqs, workload.PriorityConfig{Tiers: 2 + rng.Intn(2), HighFraction: 0.3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	reqs = workload.StampArrivals(reqs, workload.Poisson{Rate: float64(500 + rng.Intn(3000))}, seed)
	disagg := features&featDisagg != 0
	pool := replicas
	if disagg {
		replicas = max(replicas, 2)
		pool = replicas / 2
	}
	policies := []string{LeastWork, PredictedCost, PrefixAffinity, RoundRobin, Random}
	name := policies[rng.Intn(len(policies))]

	// run returns the report, the records and the results of the pool an
	// autoscaler would scale.
	run := func(plan *faults.Plan, stack *policy.Stack, workers int) (metrics.Report, []metrics.RequestRecord, []*core.Result) {
		if disagg {
			dc := DisaggConfig{PrefillReplicas: replicas - pool, DecodeReplicas: pool, Workers: workers, Stack: stack}
			res, err := RunDisaggFaults(cfg, dc, reqs, plan)
			if err != nil {
				t.Fatalf("disagg workers=%d: %v", workers, err)
			}
			return res.Report, res.Records, res.Decode
		}
		res, err := RunOnlineLayers(cfg, replicas, mustPolicy(t, name, Options{Seed: seed}), reqs, plan, stack, workers)
		if err != nil {
			t.Fatalf("online workers=%d: %v", workers, err)
		}
		return res.Report, res.Records, res.Replicas
	}
	check := func(label string, plan *faults.Plan, stack func() *policy.Stack) []byte {
		rep, records, scaled := run(plan, stack(), 1)
		checkExactlyOnce(t, rep, records, len(reqs), scaled)
		b := fullJSON(t, rep, records)
		if rep4, records4, _ := run(plan, stack(), 4); !bytes.Equal(b, fullJSON(t, rep4, records4)) {
			t.Fatalf("%s: workers=4 diverges from workers=1", label)
		}
		return b
	}

	none := func() *policy.Stack { return nil }
	plain := check("plain", nil, none)
	inactive, err := faults.NewPlan(faults.Config{Seed: seed}, replicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep, records, _ := run(inactive, &policy.Stack{}, 1); !bytes.Equal(plain, fullJSON(t, rep, records)) {
		t.Fatal("an inactive plan and an empty stack changed the plain run's bytes")
	}

	var plan *faults.Plan
	if features&featFaults != 0 {
		plan = fuzzPlan(t, rng, features&featDomains != 0, replicas, 0.1)
	}
	stack := none
	if features&featStack != 0 {
		stack = fuzzStack(t, rng.Int63(), pool)
	}
	if plan != nil || features&featStack != 0 {
		check("layered", plan, stack)
	}
}

// fuzzPlan draws a fault plan over replicas with crashes inside
// horizon, optionally with correlated rack outages and link impairments.
func fuzzPlan(t *testing.T, rng *rand.Rand, domains bool, replicas int, horizon float64) *faults.Plan {
	fc := faults.Config{
		Seed:         rng.Int63(),
		Horizon:      horizon,
		MTBF:         horizon / float64(1+rng.Intn(4)),
		RestartDelay: horizon / float64(5+rng.Intn(20)),
		MaxRetries:   rng.Intn(4),
	}
	if rng.Intn(2) == 0 {
		fc.CheckpointInterval = horizon / 8
	}
	if rng.Intn(2) == 0 {
		fc.Stragglers, fc.StragglerFactor = 1, 1.5
	}
	if domains {
		fc.Topology = hw.Topology{Racks: min(2, replicas)}
		fc.DomainMTBF = horizon / 3
		fc.DomainKind = faults.DomainMixed
		fc.LinkDegradeFrac, fc.LinkDegradeFactor = 0.2, 3
	}
	plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// fuzzStack returns a constructor for a seeded policy stack whose
// autoscaler fits a pool of n replicas. Stacks carry state, so every
// run builds its own.
func fuzzStack(t *testing.T, seed int64, n int) func() *policy.Stack {
	return func() *policy.Stack {
		rng := rand.New(rand.NewSource(seed))
		s := &policy.Stack{}
		if rng.Intn(2) == 0 {
			s.Admission = policy.NewTokenBucket(float64(500+rng.Intn(2000)), float64(4+rng.Intn(32)))
		}
		if rng.Intn(2) == 0 {
			s.Retry = policy.NewBackoff(policy.BackoffConfig{Base: 0.005, Max: 0.05, Jitter: 0.2, MaxAttempts: rng.Intn(5), Seed: seed})
		}
		if rng.Intn(2) == 0 {
			s.Breaker = &policy.BreakerConfig{FailureThreshold: 1 + rng.Intn(4), Cooldown: 0.02, HalfOpenSuccesses: 1}
		}
		if rng.Intn(2) == 0 {
			s.Preemption = &policy.PreemptionConfig{}
		}
		if rng.Intn(2) == 0 || !s.Active() {
			as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
				Min: 1, Max: 1 + rng.Intn(n), Interval: 0.01,
				ScaleUpQueue: 2, ScaleDownQueue: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Autoscaler = as
		}
		return s
	}
}
