// Command scenariobench is the repository's scenario benchmark. It runs
// one named workload through the simulator's public entry points
// (core.Run, fleet.RunOnlineWorkers, fleet.RunDisaggFaults,
// fleet.RunOnlineElasticWorkers) for a fixed host-time budget, checks
// every repetition's output, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics — as the last line of standard
// output:
//
//	go run . -workload online-fleet -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads and the metric definitions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenariobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (offline-paper, online-fleet, disagg-chaos, elastic-chat)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on repetitions")
	trace := fs.Int("trace", 0, "1 publishes the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "scenariobench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "scenariobench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "scenariobench: -seconds must be positive")
		return 2
	}
	b := &bench{w: w, seed: *seed, requests: w.requests, budget: time.Duration(*seconds * float64(time.Second)), log: stderr}
	if err := b.report(*trace == 1, stdout); err != nil {
		fmt.Fprintln(stderr, "scenariobench:", err)
		return 1
	}
	return 0
}

// report prints the host line, runs the repetitions, and prints their
// summary and, last, the result.
func (b *bench) report(traced bool, stdout io.Writer) error {
	meta, err := json.Marshal(hostMeta(b.w.name, b.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# host %s\n", meta)
	res := b.measure(traced)
	b.summarize(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// rep is one repetition: a fresh set-up and one measured entry-point
// call.
type rep struct {
	callS      float64
	allocBytes float64
	digestS    float64
	digest     string
	spans      setupSpans
	out        *outcome
	tr         *tracer
}

// bench runs one workload's repetitions and keeps what they measured.
type bench struct {
	w        workloadDef
	seed     int64
	requests int
	budget   time.Duration
	log      io.Writer

	attempted, failed int
	plain, traced     []*rep
	setups            []float64 // host seconds of every set-up
	digest            string
	invalid           []string

	cpu    map[string]int64   // traced CPU samples by layer
	allocs map[string]float64 // traced scaled allocation bytes by layer
}

// measure runs repetitions until the host-time budget is spent. Untraced
// runs time setupSamples set-ups alone first, then measure the end-to-end
// metrics; traced runs spend the second half of the budget on repetitions
// with profiling and counting wrappers, and add the worker-invariance
// check.
func (b *bench) measure(traced bool) result {
	start := time.Now()
	if traced {
		b.cpu, b.allocs = map[string]int64{}, map[string]float64{}
		b.plain = b.repeatUntil(false, start.Add(b.budget/2), 1)
		b.traced = b.repeatUntil(true, start.Add(b.budget), 1)
		b.checkWorkerInvariance()
	} else {
		b.timeSetups()
		b.plain = b.repeatUntil(false, start.Add(b.budget), 3)
	}
	if ref := b.reference(); ref != nil {
		b.invalid = append(b.invalid, sanity(b.w.name, ref.out)...)
	}
	for _, msg := range b.invalid {
		fmt.Fprintln(b.log, "scenariobench: invalid:", msg)
	}
	res := result{
		Correct:   b.failed == 0 && len(b.invalid) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	switch {
	case len(b.plain) == 0 || (traced && len(b.traced) == 0):
		res.Correct = false
	case traced:
		res.Metrics = b.layerMetrics()
	default:
		res.Metrics = b.endToEnd()
	}
	return res
}

// reference is the repetition whose result counters are published.
func (b *bench) reference() *rep {
	if len(b.traced) > 0 {
		return b.traced[0]
	}
	if len(b.plain) > 0 {
		return b.plain[0]
	}
	return nil
}

// repeatUntil runs repetitions of one kind until at least atLeast have
// succeeded and the deadline has passed. It gives up after three
// failures without a success. Only the first repetition keeps its
// outcome: it is the one the result counters are read from, and holding
// every outcome would grow the heap with the repetition count.
func (b *bench) repeatUntil(traced bool, deadline time.Time, atLeast int) []*rep {
	var reps []*rep
	for failures := 0; len(reps) < atLeast || time.Now().Before(deadline); {
		r, err := b.once(traced, 0)
		b.attempted++
		if err == nil && b.digest == "" {
			b.digest = r.digest
		} else if err == nil && r.digest != b.digest {
			err = fmt.Errorf("report digest %s differs from the first repetition's %s", r.digest, b.digest)
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "scenariobench: %s repetition %d: %v\n", b.w.name, b.attempted, err)
			if failures++; len(reps) == 0 && failures >= 3 {
				break
			}
			continue
		}
		if len(reps) > 0 {
			r.out = nil
		}
		reps = append(reps, r)
	}
	return reps
}

// once sets the workload up and makes the measured call. workers
// overrides the parallel fabric's worker budget (0 keeps the default).
func (b *bench) once(traced bool, workers int) (*rep, error) {
	r := &rep{}
	if traced {
		r.tr = &tracer{}
	}
	p, err := b.setUp(setupOpts{seed: b.seed, requests: b.requests, workers: workers, tr: r.tr})
	if err != nil {
		return nil, err
	}
	r.spans = p.spans

	var memBefore map[string]memRecord
	if traced {
		memBefore = memSnapshot()
	} else {
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	t := time.Now()
	out, err := p.call()
	r.callS = time.Since(t).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.w.name, err)
	}
	r.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.out = out
	if traced {
		foldAllocs(memBefore, memSnapshot(), b.allocs)
		if err := foldCPUProfile(prof.Bytes(), b.cpu); err != nil {
			return nil, err
		}
	}
	if r.digestS, err = check(p.trace, out); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if r.digest, err = reportDigest(out); err != nil {
		return nil, err
	}
	return r, nil
}

// setupSamples is how many set-ups an untraced run times on their own,
// before its repetitions. One set-up takes a tenth of a second or two and
// varies by a fifth from one to the next, and elastic-chat fits only four
// repetitions into 30 s, so setup_s is the median over these and the
// repetitions' set-ups together.
const setupSamples = 15

// setUp times one set-up. It collects garbage first, so that set-up is
// not charged for the previous repetition's.
func (b *bench) setUp(o setupOpts) (*prepared, error) {
	runtime.GC()
	t := time.Now()
	p, err := b.w.setup(o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, time.Since(t).Seconds())
	return p, nil
}

// timeSetups sets the workload up setupSamples times without calling it.
func (b *bench) timeSetups() {
	for i := 0; i < setupSamples; i++ {
		if _, err := b.setUp(setupOpts{seed: b.seed, requests: b.requests}); err != nil {
			b.invalid = append(b.invalid, err.Error())
			return
		}
	}
}

// checkWorkerInvariance re-runs disagg-chaos on one worker: the report
// must not depend on how many goroutines the fabric used.
func (b *bench) checkWorkerInvariance() {
	if b.w.name != "disagg-chaos" || b.digest == "" {
		return
	}
	r, err := b.once(false, 1)
	switch {
	case err != nil:
		b.invalid = append(b.invalid, fmt.Sprintf("workers=1 run: %v", err))
	case r.digest != b.digest:
		b.invalid = append(b.invalid, fmt.Sprintf("workers=1 digest %s differs from workers=%d digest %s",
			r.digest, runtime.GOMAXPROCS(0), b.digest))
	}
}

// summarize prints the human-readable lines that precede the result.
func (b *bench) summarize(w io.Writer) {
	ref := b.reference()
	if ref == nil {
		return
	}
	fmt.Fprintf(w, "# digest %s %s\n", b.w.name, b.digest)
	l := ref.out.rep.Latency
	finished := ref.out.rep.Requests // check matched it against the records
	fmt.Fprintf(w, "# %s: %d requests, %d finished (the TTFT/TPOT sample count), %d dropped\n",
		b.w.name, b.requests, finished, b.requests-finished)
	fmt.Fprintf(w, "# ttft p50 %.3fs p99 %.3fs (n=%d), tpot p99 %.4fs, goodput %.4f, %.0f tok/s modelled\n",
		l.TTFTP50, l.TTFTP99, finished, l.TPOTP99, l.Goodput(), ref.out.rep.OutputThroughput())
	fmt.Fprintf(w, "# repetitions: %d untraced, %d traced\n", len(b.plain), len(b.traced))
}

// median returns the median of f over reps.
func median(reps []*rep, f func(*rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

// medianOf returns the median of v, which it sorts.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
