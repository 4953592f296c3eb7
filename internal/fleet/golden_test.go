package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The golden matrix pins every serving mode's output bytes: a SHA-256
// of the JSON-marshaled Report plus per-request Records for a fixed
// scenario set, each run at one worker and at four (both must hash to
// the same golden value). A refactor that moves a single byte of any
// report fails here. Regenerate with
//
//	go test ./internal/fleet -run TestGoldenMatrix -update
//
// and explain the diff in CHANGES.md.
var update = flag.Bool("update", false, "rewrite the golden hashes under testdata/golden")

// goldenCase is one scenario: run serves it at a worker count and
// returns the marshaled report and records.
type goldenCase struct {
	name string
	run  func(t *testing.T, workers int) []byte
}

// goldenPlan draws a fault plan over replicas with a horizon taken from
// a clean run's makespan.
func goldenPlan(t *testing.T, fc faults.Config, replicas int) *faults.Plan {
	t.Helper()
	plan, err := faults.NewPlan(fc, replicas, fc.RestartDelay)
	if err != nil {
		t.Fatal(err)
	}
	if fc.DomainMTBF > 0 && len(plan.Domains) == 0 {
		t.Fatal("seed drew no domain outages; pick another seed")
	}
	return plan
}

func goldenCases(t *testing.T) []goldenCase {
	cfg := fastConfig(2)
	plain := workload.StampArrivals(smallTrace(300, 61), workload.Poisson{Rate: 600}, 67)
	crashy := faultTrace(300, 71)
	tiered, err := workload.StampPriorities(
		workload.StampArrivals(smallTrace(300, 73), workload.Poisson{Rate: 4000}, 79),
		workload.PriorityConfig{Tiers: 2, HighFraction: 0.3, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 0.25
	onlineFaults := faults.Config{
		Seed: 5, Horizon: horizon, MTBF: horizon / 2, RestartDelay: horizon / 10,
		Stragglers: 1, StragglerFactor: 1.3, CheckpointInterval: horizon / 8,
	}
	domains := onlineFaults
	domains.Seed = 11
	domains.Topology = hw.Topology{Racks: 2}
	domains.DomainMTBF = horizon / 3
	domains.DomainKind = faults.DomainMixed
	disaggDomains := domains
	disaggDomains.LinkDegradeFrac = 0.3
	disaggDomains.LinkDegradeFactor = 4
	disaggDomains.LinkPartitionFrac = 0.1

	online := func(name string, reqs []workload.Request) goldenCase {
		return goldenCase{"online-" + name, func(t *testing.T, workers int) []byte {
			res, err := RunOnlineWorkers(cfg, 4, mustPolicy(t, name, Options{Seed: 1}), reqs, workers)
			if err != nil {
				t.Fatal(err)
			}
			return fullJSON(t, res.Report, res.Records)
		}}
	}
	onlineFaulted := func(name string, fc faults.Config) goldenCase {
		plan := goldenPlan(t, fc, 4)
		return goldenCase{name, func(t *testing.T, workers int) []byte {
			res, err := RunOnlineLayers(cfg, 4, mustPolicy(t, LeastWork, Options{}), crashy, plan, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, res.Report, res.Records, len(crashy), res.Replicas)
			return fullJSON(t, res.Report, res.Records)
		}}
	}
	disaggStack := func(t *testing.T) *policy.Stack {
		s := decodeScalerStack(t, 3)
		s.Breaker = &policy.BreakerConfig{FailureThreshold: 4, Cooldown: 0.1, HalfOpenSuccesses: 2}
		return s
	}
	layeredPlan := goldenPlan(t, onlineFaults, 4)
	disagg := func(name string, reqs []workload.Request, plan *faults.Plan, stack func(*testing.T) *policy.Stack) goldenCase {
		return goldenCase{name, func(t *testing.T, workers int) []byte {
			dc := DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 3, Workers: workers}
			if stack != nil {
				dc.Stack = stack(t)
			}
			res, err := RunDisaggFaults(cfg, dc, reqs, plan)
			if err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, res.Report, res.Records, len(reqs), res.Decode)
			return fullJSON(t, res.Report, res.Records)
		}}
	}
	return []goldenCase{
		// The offline pre-shard has no worker knob; its two runs pin
		// run-to-run identity instead.
		{"offline", func(t *testing.T, _ int) []byte {
			res, err := Run(cfg, 3, mustPolicy(t, LeastWork, Options{}), smallTrace(300, 59))
			if err != nil {
				t.Fatal(err)
			}
			return fullJSON(t, res.Report, res.Records)
		}},
		online(LeastWork, plain),
		online(PredictedCost, plain),
		online(PrefixAffinity, prefixOnlineTrace(300, 41, 8000, 32, 512)),
		onlineFaulted("online-faults", onlineFaults),
		onlineFaulted("online-faults-domains", domains),
		{"elastic", func(t *testing.T, workers int) []byte {
			// A tight KV pool makes high-tier arrivals preempt.
			cfg := cfg
			cfg.MemUtilization = 0.0003
			res, err := RunOnlineElasticWorkers(cfg, 4, mustPolicy(t, LeastWork, Options{}), tiered, elasticStack(t, 4), workers)
			if err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, res.Report, res.Records, len(tiered), res.Replicas)
			return fullJSON(t, res.Report, res.Records)
		}},
		disagg("disagg", plain, nil, nil),
		disagg("disagg-faults-domains", crashy, goldenPlan(t, disaggDomains, 5), nil),
		disagg("disagg-elastic", plain, nil, disaggStack),
		// Both layers at once: crashes land while the autoscaler
		// breathes the fleet and the front door sheds and retries.
		{"online-faults-elastic", func(t *testing.T, workers int) []byte {
			res, err := RunOnlineLayers(cfg, 4, mustPolicy(t, LeastWork, Options{}), crashy, layeredPlan, elasticStack(t, 4), workers)
			if err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, res.Report, res.Records, len(crashy), res.Replicas)
			if res.Report.Faults.Crashes == 0 || res.Report.Autoscale.Ticks == 0 {
				t.Fatalf("a layer did nothing: %+v, %+v", res.Report.Faults, res.Report.Autoscale)
			}
			return fullJSON(t, res.Report, res.Records)
		}},
		disagg("disagg-faults-elastic", crashy, goldenPlan(t, onlineFaults, 5), disaggStack),
	}
}

func TestGoldenMatrix(t *testing.T) {
	for _, gc := range goldenCases(t) {
		t.Run(gc.name, func(t *testing.T) {
			var got string
			for _, workers := range []int{1, 4} {
				sum := sha256.Sum256(gc.run(t, workers))
				h := hex.EncodeToString(sum[:])
				if got != "" && h != got {
					t.Fatalf("workers=%d hashes to %s, workers=1 to %s", workers, h, got)
				}
				got = h
			}
			path := filepath.Join("testdata", "golden", gc.name+".sha256")
			if *update {
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if w := strings.TrimSpace(string(want)); w != got {
				t.Errorf("output hash %s, golden %s: the report or records changed; if intended, rerun with -update and explain the diff in CHANGES.md", got, w)
			}
		})
	}
}
