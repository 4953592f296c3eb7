package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one published metric. BENCHMARK.json lists the same
// names and units (checked by the tests).
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the metrics a user of the simulator sees, published by
// untraced runs.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_req_per_s", "req/s", "higher"},
	{"alloc_bytes_per_req", "B", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_out_tok_per_s", "tok/s", "higher"},
	{"sim_gpu_s_per_kout_tok", "GPU-s", "lower"},
	{"sim_ttft_p50_s", "s", "lower"},
	{"sim_ttft_p99_s", "s", "lower"},
	{"sim_tpot_p99_s", "s", "lower"},
	{"sim_goodput_frac", "ratio", "higher"},
	{"sim_served_frac", "ratio", "higher"},
}

// cpuLayers and allocLayers are the layers whose profile shares are
// published.
var (
	cpuLayers = []string{"sim", "deque", "costmodel", "model", "kvcache", "runtime", "core",
		"fleet", "faults", "policy", "metrics", "predictor", "workload", layerGC}
	allocLayers = []string{"core", "kvcache", "fleet", "metrics", "sim", "runtime", "faults"}
)

// layerDefs are the per-layer metrics, published by traced runs.
var layerDefs = func() []metricDef {
	var d []metricDef
	for _, l := range cpuLayers {
		d = append(d, metricDef{l + ".cpu_self_frac", "ratio", "lower"})
	}
	for _, l := range allocLayers {
		d = append(d, metricDef{l + ".alloc_bytes_per_req", "B", "lower"})
	}
	return append(d,
		metricDef{"workload.generate_s", "s", "lower"},
		metricDef{"workload.stamp_s", "s", "lower"},
		metricDef{"predictor.train_s", "s", "lower"},
		metricDef{"faults.plan_s", "s", "lower"},
		metricDef{"metrics.digest_s", "s", "lower"},
		metricDef{"predictor.predict_calls_per_req", "count", "lower"},
		metricDef{"predictor.predict_ns", "ns", "lower"},
		metricDef{"fleet.pick_calls_per_req", "count", "lower"},
		metricDef{"fleet.pick_ns", "ns", "lower"},
		metricDef{"fleet.warm_pick_frac", "ratio", "higher"},
		metricDef{"sim.events_per_req", "count", "lower"},
		metricDef{"sim.events_per_host_s", "1/s", "higher"},
		metricDef{"core.bubble_ratio", "ratio", "lower"},
		metricDef{"core.phase_switches", "count", "lower"},
		metricDef{"core.recompute_frac", "ratio", "lower"},
		metricDef{"kvcache.peak_usage", "ratio", "lower"},
		metricDef{"kvcache.prefix_hit_frac", "ratio", "higher"},
		metricDef{"metrics.busy_intervals_per_req", "count", "lower"},
		metricDef{"fleet.handoff_frac", "ratio", "lower"},
		metricDef{"fleet.kv_bytes_per_handoff", "B", "lower"},
		metricDef{"fleet.queued_handoff_frac", "ratio", "lower"},
		metricDef{"faults.crashes", "count", "lower"},
		metricDef{"faults.domain_outages", "count", "lower"},
		metricDef{"faults.aborted_frac", "ratio", "lower"},
		metricDef{"faults.lost_token_frac", "ratio", "lower"},
		metricDef{"faults.ckpt_resume_frac", "ratio", "higher"},
		metricDef{"faults.ckpt_bytes_per_req", "B", "lower"},
		metricDef{"policy.shed_frac", "ratio", "lower"},
		metricDef{"policy.retries_per_req", "count", "lower"},
		metricDef{"policy.breaker_trips", "count", "lower"},
		metricDef{"policy.breaker_skips_per_pick", "count", "lower"},
		metricDef{"policy.preemptions", "count", "lower"},
		metricDef{"policy.scale_ups", "count", "lower"},
		metricDef{"policy.scale_downs", "count", "lower"},
		metricDef{"policy.cold_start_s", "s", "lower"},
		metricDef{"trace_overhead_frac", "ratio", "lower"},
	)
}()

// publish keeps the values named by defs, with their units.
func publish(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics from the untraced
// repetitions. Simulated metrics come from the report, which is
// identical on every repetition.
func (b *bench) endToEnd() map[string]metric {
	n := float64(b.requests)
	out := b.plain[0].out
	report := out.rep
	return publish(endToEndDefs, map[string]float64{
		"setup_s":                medianOf(b.setups),
		"host_req_per_s":         median(b.plain, func(r *rep) float64 { return n / r.callS }),
		"alloc_bytes_per_req":    median(b.plain, func(r *rep) float64 { return r.allocBytes / n }),
		"peak_rss_mb":            peakRSSMiB(),
		"sim_out_tok_per_s":      report.OutputThroughput(),
		"sim_gpu_s_per_kout_tok": 1000 * ratio(out.gpuSeconds, float64(report.OutputTokens)),
		"sim_ttft_p50_s":         report.Latency.TTFTP50,
		"sim_ttft_p99_s":         report.Latency.TTFTP99,
		"sim_tpot_p99_s":         report.Latency.TPOTP99,
		"sim_goodput_frac":       report.Latency.Goodput(),
		"sim_served_frac":        float64(report.Requests) / n,
	})
}

// counters derives the per-layer counters a run's public results carry.
func counters(out *outcome, requests int) map[string]float64 {
	n := float64(requests)
	report := out.rep
	f, a, s := report.Faults, report.Admission, report.Autoscale
	intervals := 0
	for _, e := range out.engines {
		for g := 0; g < e.Report.GPUs; g++ {
			intervals += len(e.Rec.Intervals(g))
		}
	}
	return map[string]float64{
		"sim.events_per_req":             float64(out.steps) / n,
		"core.bubble_ratio":              report.BubbleRatio,
		"core.phase_switches":            float64(report.PhaseSwitches),
		"core.recompute_frac":            float64(report.Recomputes) / n,
		"kvcache.peak_usage":             report.KVPeakUsage,
		"kvcache.prefix_hit_frac":        report.PrefixHitRate(),
		"metrics.busy_intervals_per_req": float64(intervals) / n,
		"fleet.handoff_frac":             float64(out.handoffs) / n,
		"fleet.kv_bytes_per_handoff":     ratio(out.transferredBytes, float64(out.handoffs)),
		"fleet.queued_handoff_frac":      ratio(float64(out.queuedHandoffs), float64(out.handoffs)),
		"faults.crashes":                 float64(f.Crashes),
		"faults.domain_outages":          float64(f.DomainOutages),
		"faults.aborted_frac":            float64(f.AbortedRequests) / n,
		"faults.lost_token_frac":         ratio(float64(f.LostOutputTokens), float64(report.OutputTokens)),
		"faults.ckpt_resume_frac":        ratio(float64(f.RecoveredCheckpoint), float64(f.RecoveredCheckpoint+f.RecoveredRecompute)),
		"faults.ckpt_bytes_per_req":      f.CheckpointBytes / n,
		"policy.shed_frac":               float64(a.Shed) / n,
		"policy.retries_per_req":         float64(a.Retries) / n,
		"policy.breaker_trips":           float64(a.BreakerTrips),
		"policy.preemptions":             float64(a.Preemptions),
		"policy.scale_ups":               float64(s.ScaleUps),
		"policy.scale_downs":             float64(s.ScaleDowns),
		"policy.cold_start_s":            s.ColdStartSeconds,
	}
}

// layerMetrics computes the per-layer metrics of a traced run.
func (b *bench) layerMetrics() map[string]metric {
	n := float64(b.requests)
	ref := b.traced[0]
	v := counters(ref.out, b.requests)

	var samples int64
	for _, c := range b.cpu {
		samples += c
	}
	for _, l := range cpuLayers {
		v[l+".cpu_self_frac"] = ratio(float64(b.cpu[l]), float64(samples))
	}
	var sampled float64
	for _, l := range sortedKeys(b.allocs) {
		sampled += b.allocs[l]
	}
	var allocated float64
	for _, r := range b.traced {
		allocated += r.allocBytes
	}
	for _, l := range allocLayers {
		v[l+".alloc_bytes_per_req"] = ratio(b.allocs[l], sampled) * allocated / float64(len(b.traced)) / n
	}

	v["workload.generate_s"] = median(b.traced, func(r *rep) float64 { return r.spans.generate })
	v["workload.stamp_s"] = median(b.traced, func(r *rep) float64 { return r.spans.stamp })
	v["predictor.train_s"] = median(b.traced, func(r *rep) float64 { return r.spans.train })
	v["faults.plan_s"] = median(b.traced, func(r *rep) float64 { return r.spans.plan })
	v["metrics.digest_s"] = median(b.traced, func(r *rep) float64 { return r.digestS })

	tr := ref.tr
	predicts, picks := float64(tr.predictCalls.Load()), float64(tr.pickCalls.Load())
	v["predictor.predict_calls_per_req"] = predicts / n
	v["predictor.predict_ns"] = median(b.traced, func(r *rep) float64 {
		return ratio(float64(r.tr.predictNs.Load()), float64(r.tr.predictCalls.Load()))
	})
	v["fleet.pick_calls_per_req"] = picks / n
	v["fleet.pick_ns"] = median(b.traced, func(r *rep) float64 {
		return ratio(float64(r.tr.pickNs.Load()), float64(r.tr.pickCalls.Load()))
	})
	v["fleet.warm_pick_frac"] = ratio(float64(tr.warmPicks.Load()), float64(tr.prefixPicks.Load()))
	v["policy.breaker_skips_per_pick"] = ratio(float64(ref.out.rep.Admission.BreakerSkips), picks)

	plainRate := median(b.plain, func(r *rep) float64 { return n / r.callS })
	tracedRate := median(b.traced, func(r *rep) float64 { return n / r.callS })
	v["sim.events_per_host_s"] = float64(ref.out.steps) / median(b.plain, func(r *rep) float64 { return r.callS })
	v["trace_overhead_frac"] = 1 - ratio(tracedRate, plainRate)
	return publish(layerDefs, v)
}

// sanity reports the ways a run fails to do the work its workload was
// chosen for: the layers it exists to stress must be busy, and the
// layers it bypasses must read zero.
func sanity(workload string, out *outcome) []string {
	c := counters(out, len(out.records))
	var bad []string
	want := func(name string, positive bool) {
		if got := c[name]; positive && got <= 0 {
			bad = append(bad, fmt.Sprintf("%s: %s = %v, want > 0", workload, name, got))
		} else if !positive && got != 0 {
			bad = append(bad, fmt.Sprintf("%s: %s = %v, want 0 (bypassed layer)", workload, name, got))
		}
	}
	elastic := workload == "elastic-chat"
	for _, name := range []string{"policy.shed_frac", "policy.retries_per_req", "policy.breaker_trips",
		"policy.preemptions", "policy.scale_ups", "policy.scale_downs", "policy.cold_start_s",
		"kvcache.prefix_hit_frac"} {
		want(name, elastic)
	}
	chaos := workload == "disagg-chaos"
	want("faults.crashes", chaos)
	want("faults.domain_outages", chaos)
	if !chaos {
		for _, name := range []string{"faults.aborted_frac", "faults.lost_token_frac",
			"faults.ckpt_bytes_per_req", "fleet.handoff_frac"} {
			want(name, false)
		}
	}
	return bad
}

// hostMeta describes the host and the code a result was measured on.
func hostMeta(workload string, seed int64) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

// commit is the VCS revision stamped into the binary, if it was built
// from a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so a
// result identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil // unreadable entries do not change the digest
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor model name on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	return scanField(f, "model name")
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	kb, err := strconv.ParseFloat(strings.TrimSuffix(scanField(f, "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// scanField returns the value of the first "key: value" line for key.
func scanField(r io.Reader, key string) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
