package fleet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// checkExactlyOnce asserts conservation and physical sanity from the
// outside for any layering: one record per request, finished records
// matching the report, and finished plus the drops of both layers
// covering the trace (a layer that is off reports no drops). A finished
// record arrives no later than its first token, which comes no later
// than its finish, and carries output; a dropped record carries none.
// scaled holds the results of the replicas an autoscaler provisions
// (the online fleet, the disaggregated decode pool; nil without one):
// their busy GPU-seconds fit inside the provisioned GPU-seconds the
// autoscaler reports.
func checkExactlyOnce(t *testing.T, rep metrics.Report, records []metrics.RequestRecord, n int, scaled []*core.Result) {
	t.Helper()
	if len(records) != n {
		t.Fatalf("%d records for %d requests", len(records), n)
	}
	finished := 0
	for _, rec := range records {
		switch {
		case rec.Finished():
			finished++
		case rec.OutputTokens != 0 || rec.FirstToken != 0 || rec.Finish != 0:
			t.Fatalf("request %d is unfinished but carries output: %+v", rec.ID, rec)
		}
	}
	if finished != rep.Requests {
		t.Fatalf("%d finished records, report says %d", finished, rep.Requests)
	}
	if got := rep.Requests + rep.Faults.Dropped + rep.Admission.Dropped; got != n {
		t.Fatalf("finished %d + dropped %d (faults) + %d (admission) = %d, want %d",
			rep.Requests, rep.Faults.Dropped, rep.Admission.Dropped, got, n)
	}
	if !rep.Autoscale.Any() {
		return
	}
	if scaled == nil {
		t.Fatal("an autoscaler ran; pass the results of the pool it scaled")
	}
	busy := 0.0
	for _, r := range scaled {
		busy += r.Report.MeanUtilization * r.Report.Elapsed * float64(r.Report.GPUs)
	}
	if gs := rep.Autoscale.GPUSeconds; busy > gs*(1+1e-9) {
		t.Fatalf("the autoscaled pool was busy %v GPU-seconds but provisioned only %v", busy, gs)
	}
}

// A crash-lost request never passes the front door again: when the
// whole fleet is down it waits for the restore instead of meeting the
// token bucket (which would shed it) or the missing backoff (which
// would drop it). Only the arrivals the bucket refused are dropped, and
// each drop is counted once, in Report.Admission.
func TestLayersComposeLostRequestsSkipFrontDoor(t *testing.T) {
	const n, admitted = 60, 40
	reqs := workload.StampArrivals(smallTrace(n, 3), workload.Poisson{Rate: 2000}, 5)
	last := reqs[0].ArrivalTime
	for _, r := range reqs {
		last = max(last, r.ArrivalTime)
	}
	// Both replicas go down together after the last arrival, while
	// admitted requests are still decoding.
	at := last + 0.002
	plan := &faults.Plan{Replicas: 2, Crashes: []faults.Crash{
		{Replica: 0, At: at, RestartAt: at + 0.05},
		{Replica: 1, At: at, RestartAt: at + 0.05},
	}}
	stack := &policy.Stack{Admission: policy.NewTokenBucket(1e-9, admitted)}
	res, err := RunOnlineLayers(fastConfig(2), 2, mustPolicy(t, LeastWork, Options{}), reqs, plan, stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	checkExactlyOnce(t, rep, res.Records, n, res.Replicas)
	if rep.Faults.AbortedRequests == 0 {
		t.Fatal("the crashes aborted nothing; move them earlier")
	}
	if rep.Requests != admitted || rep.Faults.Dropped != 0 || rep.Admission.Dropped != n-admitted {
		t.Errorf("finished %d, dropped %d (faults) + %d (admission); want %d, 0 + %d",
			rep.Requests, rep.Faults.Dropped, rep.Admission.Dropped, admitted, n-admitted)
	}
	if rep.Admission.Shed != n-admitted {
		t.Errorf("shed %d, want only the %d arrivals past the burst", rep.Admission.Shed, n-admitted)
	}
}

// A crash is a breaker failure signal on the online router too: with a
// one-failure threshold and an SLO no completion misses, only the crash
// can trip the breaker.
func TestCrashFeedsOnlineBreakers(t *testing.T) {
	cfg := fastConfig(2)
	cfg.SLO.TTFT = 1e9
	reqs := faultTrace(80, 7)
	plan := &faults.Plan{Replicas: 2, Crashes: []faults.Crash{{Replica: 1, At: 0.01, RestartAt: 0.02}}}
	stack := &policy.Stack{Breaker: &policy.BreakerConfig{FailureThreshold: 1, Cooldown: 0.05, HalfOpenSuccesses: 1}}
	res, err := RunOnlineLayers(cfg, 2, mustPolicy(t, LeastWork, Options{}), reqs, plan, stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, res.Report, res.Records, len(reqs), res.Replicas)
	if res.Report.Admission.BreakerTrips == 0 {
		t.Error("the crash tripped no breaker")
	}
}

// Crash-lost requests that find no live replica are demand the
// autoscaler sees, and a scale-up activation dispatches them: with the
// only active replica down for a long outage, they finish on the
// replica the autoscaler warmed, long before the restore.
func TestActivationDispatchesWaitingRequests(t *testing.T) {
	const n, restart = 20, 1.0
	reqs := workload.StampArrivals(smallTrace(n, 9), workload.Poisson{Rate: 1e5}, 11)
	plan := &faults.Plan{Replicas: 2, Crashes: []faults.Crash{{Replica: 0, At: 0.0005, RestartAt: restart}}}
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min: 1, Max: 2, Interval: 0.002, ColdStart: 0.005, ScaleUpQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnlineLayers(fastConfig(2), 2, mustPolicy(t, LeastWork, Options{}), reqs, plan, &policy.Stack{Autoscaler: as}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, res.Report, res.Records, n, res.Replicas)
	if res.Report.Requests != n || res.Report.Faults.AbortedRequests == 0 || res.Report.Autoscale.ScaleUps == 0 {
		t.Fatalf("finished %d of %d, %d aborted, %d scale-ups", res.Report.Requests, n,
			res.Report.Faults.AbortedRequests, res.Report.Autoscale.ScaleUps)
	}
	for _, rec := range res.Records {
		if rec.Finish >= restart {
			t.Fatalf("request %d finished at %v, after the restore at %v", rec.ID, rec.Finish, restart)
		}
	}
}

// The ledger keeps the two retry budgets apart: front-door retries do
// not spend crash recoveries, and a spent recovery budget drops with a
// reason naming it. lostDrops counts only drops of crash-lost requests.
func TestLedgerBudgetsAreSeparate(t *testing.T) {
	l := newLedger(make([]workload.Request, 3))
	l.attempts[0] = 5
	if !l.recovery(0, 1) {
		t.Fatal("admission retries spent the recovery budget")
	}
	if l.recovery(0, 1) {
		t.Fatal("second recovery passed a budget of one")
	}
	if got, want := l.droppedReason[0], "recovery budget exhausted"; got != want {
		t.Errorf("drop reason %q, want %q", got, want)
	}
	l.drop(1, "shed by admission control; admission retry budget exhausted")
	if l.lostDrops != 1 || l.dropped != 2 {
		t.Errorf("lostDrops %d of %d drops, want 1 of 2", l.lostDrops, l.dropped)
	}
}

// A checkpoint resume follows the breakers like any other placement:
// replica 0 comes back from a crash with its breaker open, so the
// checkpoints replica 1's crash loses resume on replica 2, the only
// breaker-closed replica that can import them, even though the
// just-restored, empty replica 0 is the least-loaded one.
func TestCheckpointResumeSkipsOpenBreakers(t *testing.T) {
	cfg := fastConfig(2)
	cfg.SLO.TTFT = 1e9
	reqs := faultTrace(80, 7)
	plan := &faults.Plan{Replicas: 3, Config: faults.Config{CheckpointInterval: 0.002}, Crashes: []faults.Crash{
		{Replica: 0, At: 0, RestartAt: 0.001},
		{Replica: 1, At: 0.03, RestartAt: 0.08},
	}}
	stack := &policy.Stack{Breaker: &policy.BreakerConfig{FailureThreshold: 1, Cooldown: 10, HalfOpenSuccesses: 1}}
	res, err := RunOnlineLayers(cfg, 3, mustPolicy(t, LeastWork, Options{}), reqs, plan, stack, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, res.Report, res.Records, len(reqs), res.Replicas)
	if res.Report.Faults.RecoveredCheckpoint == 0 {
		t.Fatal("no request resumed from a checkpoint; crash replica 1 later")
	}
	if n := len(res.Shards[0].Reqs); n != 0 {
		t.Errorf("%d requests landed on the breaker-open replica 0", n)
	}
}
