package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/predictor"
	"repro/internal/workload"
)

// Every replica in every workload is the paper's Fig. 11 deployment: a
// 4-stage pipeline of A100s serving Llama2-70B.
const world = 4

// trainPool is the size of the request history the output-length
// predictor is trained on (its 60% split, as in §4.1).
const trainPool = 10000

// Fixed offered load. Every rate, fault and policy parameter below is a
// constant from a one-time calibration, made by hand and recorded beside
// it; nothing is recalibrated at run time. A change that shifts modelled
// capacity therefore shows in the sim_* metrics instead of silently moving
// the offered load with it.
//
// Calibration of one replica: a closed-batch core.Run of 4,000
// default-config requests on one 4xA100 + Llama2-70B replica with the
// trained five-bin classifier served 7.9-8.3 req/s over seeds 1-5
// (mean 8.1 req/s).

// offline-paper: paper Fig. 11's closed batch, sized so the waiting queue
// is tens of thousands of requests long. Its objective is a batch
// deadline: a request is good when it ends within offlineE2E of the
// batch start. Calibration: the batch's makespan over seeds 1-5 was
// 3,257-3,278 s, and half of it let 48-49% of the requests meet the
// deadline.
const (
	offlineRequests = 30000
	offlineE2E      = 1640.0 // s
)

// online-fleet: open-loop Poisson at ~80% of a 64-replica fleet's
// closed-batch capacity (0.8 x 64 x 8.1 = 415 req/s).
const (
	onlineReplicas = 64
	onlineRequests = 80000
	onlineRate     = 420.0 // req/s
)

// disagg-chaos: 8 prefill + 8 decode replicas at ~80% of their fault-free
// capacity. Calibration: a closed-batch fleet.RunDisagg of 16,000 requests
// on 8P+8D served 51.8 req/s (seed 1); 0.8 x 51.8 = 41 req/s. The trace
// spans ~950 s of virtual time and the faults are drawn over it.
//
// The fault plan is part of the deployment, not of the traffic: its seed
// is fixed, so every workload seed meets the same 32 replica crashes
// (independent draws plus rack power outages), 10 rack outages (power or
// network) and link windows. With per-seed plans the TTFT tail spread 2x
// across seeds.
const (
	disaggPrefill     = 8
	disaggDecode      = 8
	disaggRequests    = 40000
	disaggRate        = 42.0   // req/s
	chaosHorizon      = 950.0  // s
	chaosMTBF         = 1000.0 // s per replica
	chaosDomainMTBF   = 300.0  // s per rack
	chaosRestartDelay = 3.0    // s, on top of the weight reload
	chaosCkptInterval = 20.0   // s
	chaosDegradeFrac  = 0.25   // share of link windows running degraded
	chaosDegradeX     = 4.0    // transfer stretch while degraded
	chaosRacks        = 4
	chaosMaxRetries   = 3
	chaosPlanSeed     = 89
)

// elastic-chat: diurnal chat traffic on an elastic fleet of up to 16
// replicas, with multi-turn shared prefixes, three priority tiers and the
// whole policy stack attached. Calibration: a closed-batch core.Run of
// 4,000 chat-stamped requests on one replica at the chat memory budget
// served 4.6-4.8 req/s (seeds 1-3), so the full fleet serves ~75 req/s.
// The crest (54 req/s) exceeds the admit rate, so every crest sheds and
// retries, and it outruns the autoscaler, which starts each run from 4
// replicas (~19 req/s): queues fill a replica's KV and top-tier arrivals
// preempt (on each of seeds 11-22 and 31-40).
const (
	elasticReplicas = 16
	elasticRequests = 96000 // about twenty-four compressed days
	elasticBase     = 14.0  // req/s at the trough
	elasticPeak     = 54.0  // req/s at the crest
	elasticPeriod   = 120.0 // s per compressed day
	// Chat replicas run a tighter KV budget (60% of device memory
	// instead of 90%) so that priority preemption has KV pressure to act
	// on while the fleet scales up.
	chatMemUtilization = 0.6
	// Multi-turn conversations sharing system prompts and history.
	chatGroups    = 400
	chatPrefixLen = 512 // tokens, mean base prefix
	chatTurns     = 4
	// Three tiers; 30% of traffic is top tier and may preempt.
	chatTiers     = 3
	chatHighShare = 0.3
	// Front door: a token bucket below the crest rate, 1 s of burst.
	admitRate  = 45.0 // req/s
	admitBurst = 45.0
	// Shed requests retry with jittered exponential backoff.
	retryBase     = 1.0 // s
	retryAttempts = 4
	// Breakers trip on consecutive TTFT-SLO misses.
	breakerFailures = 30
	breakerCooldown = 5.0 // s
	// The autoscaler keeps 20-40 outstanding requests per replica.
	scaleMin        = 4
	scaleInitial    = 4
	scaleInterval   = 2.0  // s
	scaleUpQueue    = 40.0 // outstanding requests per replica
	scaleDownQueue  = 20.0
	scaleUpCool     = 6.0  // s
	scaleDownCool   = 20.0 // s
	scaleTTFTTarget = 10.0 // s, the default TTFT SLO
)

// setupOpts selects one workload instance.
type setupOpts struct {
	seed     int64
	requests int
	// workers overrides the parallel fabric's worker budget where the
	// workload runs it (0 keeps the workload's default).
	workers int
	// tr, when non-nil, wraps the predictor and the dispatch policy in
	// counting timers.
	tr *tracer
}

// setupSpans times the benchmark's own calls into each layer during
// set-up, in seconds.
type setupSpans struct {
	generate, stamp, train, plan float64
}

// prepared is a workload ready to run: its trace and the entry-point
// call, with everything the call needs already built.
type prepared struct {
	trace []workload.Request
	call  func() (*outcome, error)
	spans setupSpans
}

// outcome is the part of an entry point's result the benchmark reads,
// normalized across entry points.
type outcome struct {
	rep     metrics.Report
	records []metrics.RequestRecord
	steps   uint64
	// engines holds every replica's engine result.
	engines []*core.Result
	// gpuSeconds is the provisioned GPU time.
	gpuSeconds float64
	// Disaggregated hand-off counters (zero elsewhere).
	handoffs, queuedHandoffs int
	transferredBytes         float64
}

// workloadDef is one named benchmark workload. README.md gives the
// reasons each was chosen.
type workloadDef struct {
	name     string
	requests int
	setup    func(o setupOpts) (*prepared, error)
}

var workloads = []workloadDef{
	{"offline-paper", offlineRequests, setupOffline},
	{"online-fleet", onlineRequests, setupOnline},
	{"disagg-chaos", disaggRequests, setupDisagg},
	{"elastic-chat", elasticRequests, setupElastic},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// base generates the trace and the predictor's history, trains the
// classifier and returns the replica configuration every workload
// shares, with the classifier as its predictor.
func base(o setupOpts, sp *setupSpans) ([]workload.Request, core.Config, error) {
	t := time.Now()
	history, err := workload.Generate(workload.DefaultConfig(trainPool, o.seed))
	if err != nil {
		return nil, core.Config{}, err
	}
	trace, err := workload.Generate(workload.DefaultConfig(o.requests, o.seed+1))
	if err != nil {
		return nil, core.Config{}, err
	}
	sp.generate = time.Since(t).Seconds()

	t = time.Now()
	train, _, _, err := workload.Split(history, 0.6, 0.2)
	if err != nil {
		return nil, core.Config{}, err
	}
	clf, err := predictor.Train(train, predictor.DefaultTrainConfig())
	if err != nil {
		return nil, core.Config{}, err
	}
	sp.train = time.Since(t).Seconds()

	cfg := core.DefaultConfig(hw.A100, model.Llama2_70B, world)
	cfg.Predictor = o.tr.predictor(clf)
	cfg.SLO = metrics.DefaultSLO()
	return trace, cfg, nil
}

func setupOffline(o setupOpts) (*prepared, error) {
	p := &prepared{}
	trace, cfg, err := base(o, &p.spans)
	if err != nil {
		return nil, err
	}
	// A closed batch has no per-request TTFT or TPOT objective, only a
	// deadline for the whole job.
	cfg.SLO = metrics.SLO{E2E: offlineE2E}
	p.trace = trace
	p.call = func() (*outcome, error) {
		res, err := core.Run(cfg, trace)
		if err != nil {
			return nil, err
		}
		return &outcome{
			rep:        res.Report,
			records:    res.Records,
			steps:      res.Steps,
			engines:    []*core.Result{res},
			gpuSeconds: float64(world) * res.Report.Elapsed,
		}, nil
	}
	return p, nil
}

func setupOnline(o setupOpts) (*prepared, error) {
	p := &prepared{}
	trace, cfg, err := base(o, &p.spans)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	p.trace = workload.StampArrivals(trace, workload.Poisson{Rate: onlineRate}, o.seed+83)
	p.spans.stamp = time.Since(t).Seconds()
	pol, err := fleet.New(fleet.PredictedCost, fleet.Options{Seed: o.seed, Predictor: cfg.Predictor})
	if err != nil {
		return nil, err
	}
	pol = o.tr.policy(pol)
	p.call = func() (*outcome, error) {
		res, err := fleet.RunOnlineWorkers(cfg, onlineReplicas, pol, p.trace, 1)
		if err != nil {
			return nil, err
		}
		return fleetOutcome(res, float64(onlineReplicas*world)*res.Report.Elapsed), nil
	}
	return p, nil
}

func setupDisagg(o setupOpts) (*prepared, error) {
	p := &prepared{}
	trace, cfg, err := base(o, &p.spans)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	p.trace = workload.StampArrivals(trace, workload.Poisson{Rate: disaggRate}, o.seed+83)
	p.spans.stamp = time.Since(t).Seconds()

	t = time.Now()
	replicas := disaggPrefill + disaggDecode
	downtime := chaosRestartDelay + faults.WeightReloadTime(cfg.Node, cfg.Spec, cfg.World)
	plan, err := faults.NewPlan(faults.Config{
		Seed:               chaosPlanSeed,
		Horizon:            chaosHorizon,
		MTBF:               chaosMTBF,
		RestartDelay:       chaosRestartDelay,
		MaxRetries:         chaosMaxRetries,
		LinkDegradeFrac:    chaosDegradeFrac,
		LinkDegradeFactor:  chaosDegradeX,
		CheckpointInterval: chaosCkptInterval,
		Topology:           hw.Topology{Replicas: replicas, Racks: chaosRacks},
		DomainMTBF:         chaosDomainMTBF,
		DomainKind:         faults.DomainMixed,
	}, replicas, downtime)
	if err != nil {
		return nil, err
	}
	p.spans.plan = time.Since(t).Seconds()

	workers := o.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dc := fleet.DisaggConfig{PrefillReplicas: disaggPrefill, DecodeReplicas: disaggDecode, Workers: workers}
	p.call = func() (*outcome, error) {
		res, err := fleet.RunDisaggFaults(cfg, dc, p.trace, plan)
		if err != nil {
			return nil, err
		}
		return &outcome{
			rep:              res.Report,
			records:          res.Records,
			steps:            res.Steps,
			engines:          append(append([]*core.Result(nil), res.Prefill...), res.Decode...),
			gpuSeconds:       float64(replicas*world) * res.Report.Elapsed,
			handoffs:         res.Handoffs,
			queuedHandoffs:   res.QueuedHandoffs,
			transferredBytes: res.TransferredBytes,
		}, nil
	}
	return p, nil
}

func setupElastic(o setupOpts) (*prepared, error) {
	p := &prepared{}
	trace, cfg, err := base(o, &p.spans)
	if err != nil {
		return nil, err
	}
	cfg.MemUtilization = chatMemUtilization
	t := time.Now()
	open := workload.StampArrivals(trace, workload.Diurnal{BaseRate: elasticBase, PeakRate: elasticPeak, Period: elasticPeriod}, o.seed+83)
	chat, err := workload.StampPrefixes(open, workload.PrefixConfig{Groups: chatGroups, PrefixLen: chatPrefixLen, Turns: chatTurns, Seed: o.seed + 7})
	if err != nil {
		return nil, err
	}
	p.trace, err = workload.StampPriorities(chat, workload.PriorityConfig{Tiers: chatTiers, HighFraction: chatHighShare, Seed: o.seed + 11})
	if err != nil {
		return nil, err
	}
	p.spans.stamp = time.Since(t).Seconds()

	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min:            scaleMin,
		Max:            elasticReplicas,
		Initial:        scaleInitial,
		Interval:       scaleInterval,
		ColdStart:      faults.WeightReloadTime(cfg.Node, cfg.Spec, cfg.World),
		ScaleUpQueue:   scaleUpQueue,
		ScaleDownQueue: scaleDownQueue,
		TTFTTarget:     scaleTTFTTarget,
		UpCooldown:     scaleUpCool,
		DownCooldown:   scaleDownCool,
	})
	if err != nil {
		return nil, err
	}
	stack := &policy.Stack{
		Admission:  policy.NewTokenBucket(admitRate, admitBurst),
		Retry:      policy.NewBackoff(policy.BackoffConfig{Base: retryBase, Jitter: 0.5, MaxAttempts: retryAttempts, Seed: o.seed + 13}),
		Breaker:    &policy.BreakerConfig{FailureThreshold: breakerFailures, Cooldown: breakerCooldown},
		Autoscaler: as,
		Preemption: &policy.PreemptionConfig{EvictTier: 1},
	}
	pol, err := fleet.New(fleet.PrefixAffinity, fleet.Options{Seed: o.seed, Predictor: cfg.Predictor})
	if err != nil {
		return nil, err
	}
	pol = o.tr.policy(pol)
	p.call = func() (*outcome, error) {
		res, err := fleet.RunOnlineElasticWorkers(cfg, elasticReplicas, pol, p.trace, stack, 1)
		if err != nil {
			return nil, err
		}
		return fleetOutcome(res, res.Report.Autoscale.GPUSeconds), nil
	}
	return p, nil
}

func fleetOutcome(res *fleet.Result, gpuSeconds float64) *outcome {
	return &outcome{
		rep:        res.Report,
		records:    res.Records,
		steps:      res.Steps,
		engines:    res.Replicas,
		gpuSeconds: gpuSeconds,
	}
}
