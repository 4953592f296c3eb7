// Command benchjson converts `go test -bench` text output on stdin
// into a JSON benchmark snapshot on stdout, so CI can archive one
// machine-readable file per run and the performance trajectory
// accumulates as build artifacts.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson > BENCH_1.json
//	benchjson -compare old.json new.json
//	benchjson -compare -threshold 10 -geomean old.json new.json
//
// The snapshot maps benchmark name (GOMAXPROCS suffix stripped) to its
// metrics; the custom steps/s metric emitted by the fleet benchmarks
// is captured when present:
//
//	{"benchmarks": {"BenchmarkOnlineFleet": {"ns_per_op": 123456,
//	  "bytes_per_op": 7890, "allocs_per_op": 12, "steps_per_sec": 3.2e6}}}
//
// Each snapshot also carries a "meta" block naming the host and code it
// was measured on: the Go version, GOMAXPROCS (the benchmark names'
// suffix), the CPU model (go test's "cpu:" header) and the commit
// stamped into the benchjson binary, when known:
//
//	{"meta": {"go": "go1.24.0", "gomaxprocs": 2, "cpu": "Intel Xeon Processor"}, ...}
//
// In -compare mode the two snapshots are diffed per benchmark and the
// exit status is non-zero when any shared benchmark regresses more
// than -threshold percent in ns/op — the advisory perf gate CI runs
// against the merge base. When the two meta blocks name different
// hosts or toolchains (or only one snapshot has one), a delta cannot
// be traced to the code: -compare prints a cross-host warning in place
// of the verdict and exits 0. Benchmarks present in only one snapshot
// are reported explicitly ("(new)" / "(removed)"), as are entries with no
// usable baseline (old ns/op of zero); none of them can fail the gate,
// so adding or retiring benchmarks never breaks a PR.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's parsed result line. The memory fields are
// serialized even when zero: "0 allocs/op" is a measurement worth
// diffing against, not an absence. StepsPerSec is the custom
// simulator-throughput metric reported by the fleet benchmarks
// (b.ReportMetric(..., "steps/s")); most benchmarks don't emit it, so
// it is omitted when absent.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
}

// Meta names the host and code a snapshot was measured on.
type Meta struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit,omitempty"`
}

// String renders the meta block for the -compare header.
func (m *Meta) String() string {
	if m == nil {
		return "no host metadata"
	}
	commit := m.Commit
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("%s GOMAXPROCS=%d cpu=%q commit=%s", m.Go, m.GOMAXPROCS, m.CPU, commit)
}

// sameHost reports whether two snapshots were measured with the same
// toolchain on the same host; the commits may differ. Two snapshots
// without metadata (older files) are compared as before.
func sameHost(a, b *Meta) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Go == b.Go && a.GOMAXPROCS == b.GOMAXPROCS && a.CPU == b.CPU
}

// Snapshot is the file layout: a map so downstream tooling can diff
// runs by name without caring about ordering.
type Snapshot struct {
	Meta       *Meta              `json:"meta,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// splitProcs splits a benchmark name into its base name and the
// GOMAXPROCS suffix go test appends ("-8"); no suffix means 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// parseLine extracts a benchmark result from one output line, e.g.
//
//	BenchmarkAppend-8   1000000   105.3 ns/op   16 B/op   1 allocs/op
//
// The second field (iteration count) is skipped; remaining fields come
// in "<value> <unit>" pairs.
func parseLine(line string) (string, Metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Metrics{}, false
	}
	name, _ := splitProcs(fields[0])
	var m Metrics
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Metrics{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsPerOp = v
			seen = true
		case "B/op":
			m.BytesPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		case "steps/s":
			m.StepsPerSec = v
		}
	}
	return name, m, seen
}

// parseOutput reads `go test -bench` output into a snapshot. The meta
// block takes GOMAXPROCS from the first result's name suffix and the
// CPU from the first "cpu:" header line; the Go version and commit are
// those of this binary, which `make bench-json` builds with the same
// toolchain as the benchmarks.
func parseOutput(r io.Reader) (Snapshot, error) {
	snap := Snapshot{Meta: &Meta{Go: runtime.Version(), Commit: buildCommit()}, Benchmarks: map[string]Metrics{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && snap.Meta.CPU == "" {
			snap.Meta.CPU = strings.TrimSpace(cpu)
		}
		if name, m, ok := parseLine(line); ok {
			if snap.Meta.GOMAXPROCS == 0 {
				_, snap.Meta.GOMAXPROCS = splitProcs(strings.Fields(line)[0])
			}
			snap.Benchmarks[name] = m
		}
	}
	return snap, sc.Err()
}

// buildCommit is the VCS revision stamped into this binary, or "" when
// it was built outside a git checkout or without VCS stamping.
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

func readSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Benchmarks) == 0 {
		return snap, fmt.Errorf("%s: no benchmarks", path)
	}
	return snap, nil
}

// pct returns the relative change from old to new in percent. The
// caller must ensure old is non-zero; entries without a usable
// baseline are reported separately instead of risking a divide-by-zero
// turning the delta column into ±Inf/NaN.
func pct(old, new float64) float64 {
	return 100 * (new - old) / old
}

// compareSnapshots prints per-benchmark deltas to w and returns the
// number of regressions beyond threshold percent in ns/op. Only
// benchmarks present in both snapshots with a positive old ns/op can
// regress: new benchmarks, removed benchmarks and zero baselines are
// reported on their own lines and never affect the count, so the exit
// status tracks genuine regressions only. Snapshots from different
// hosts get a cross-host warning instead of a verdict and count no
// regression.
func compareSnapshots(w io.Writer, oldSnap, newSnap Snapshot, threshold float64, geomean bool) (regressed int) {
	crossHost := !sameHost(oldSnap.Meta, newSnap.Meta)
	if oldSnap.Meta != nil || newSnap.Meta != nil {
		fmt.Fprintf(w, "old: %s\nnew: %s\n\n", oldSnap.Meta, newSnap.Meta)
	}
	names := make([]string, 0, len(newSnap.Benchmarks))
	for name := range newSnap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-55s %14s %14s %8s %10s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs", "steps/s")
	added, baselineless := 0, 0
	logSum, logN := 0.0, 0
	for _, name := range names {
		n := newSnap.Benchmarks[name]
		o, ok := oldSnap.Benchmarks[name]
		switch {
		case !ok:
			added++
			fmt.Fprintf(w, "%-55s %14s %14.0f %8s %10.0f\n", name, "(new)", n.NsPerOp, "", n.AllocsPerOp)
		case o.NsPerOp <= 0:
			baselineless++
			fmt.Fprintf(w, "%-55s %14s %14.0f %8s %10.0f\n", name, "(no baseline)", n.NsPerOp, "", n.AllocsPerOp)
		default:
			d := pct(o.NsPerOp, n.NsPerOp)
			logSum += math.Log(n.NsPerOp / o.NsPerOp)
			logN++
			mark := ""
			if d > threshold && !crossHost {
				mark = "  << REGRESSION"
				regressed++
			}
			// Simulator throughput is diffed alongside ns/op when both
			// snapshots report it: a drop in steps/s without a matching
			// ns/op regression points at the workload, not the kernel.
			steps := ""
			if o.StepsPerSec > 0 && n.StepsPerSec > 0 {
				steps = fmt.Sprintf("%+9.1f%%", pct(o.StepsPerSec, n.StepsPerSec))
			}
			fmt.Fprintf(w, "%-55s %14.0f %14.0f %+7.1f%% %5.0f→%-5.0f %10s%s\n",
				name, o.NsPerOp, n.NsPerOp, d, o.AllocsPerOp, n.AllocsPerOp, steps, mark)
		}
	}
	removed := make([]string, 0)
	for name := range oldSnap.Benchmarks {
		if _, ok := newSnap.Benchmarks[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-55s (removed)\n", name)
	}
	if added+len(removed)+baselineless > 0 {
		fmt.Fprintf(w, "\n%d new, %d removed, %d without baseline (reported only; never fail the gate)\n",
			added, len(removed), baselineless)
	}
	if geomean && logN > 0 {
		// Geometric mean of per-benchmark new/old ns/op ratios over the
		// shared set — the one-number summary of the run (1.00 = flat,
		// <1 faster, >1 slower). The geomean weights every benchmark
		// equally regardless of absolute ns/op scale.
		ratio := math.Exp(logSum / float64(logN))
		fmt.Fprintf(w, "\ngeomean ns/op ratio: %.3fx over %d shared benchmark(s) (%+.1f%%)\n",
			ratio, logN, 100*(ratio-1))
	}
	if crossHost {
		fmt.Fprintf(w, "\ncross-host: the snapshots were measured on different hosts or toolchains, so ns/op deltas are not attributed to the code and no regression verdict is given\n")
		return 0
	}
	if regressed > 0 {
		fmt.Fprintf(w, "\n%d benchmark(s) regressed more than %.0f%% in ns/op\n", regressed, threshold)
	} else {
		fmt.Fprintf(w, "\nno ns/op regression beyond %.0f%%\n", threshold)
	}
	return regressed
}

// compareFiles loads and diffs two snapshot files, returning the
// process exit code.
func compareFiles(oldPath, newPath string, threshold float64, geomean bool) int {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	if compareSnapshots(os.Stdout, oldSnap, newSnap, threshold, geomean) > 0 {
		return 1
	}
	return 0
}

func main() {
	compare := flag.Bool("compare", false, "compare two snapshot files (old.json new.json) instead of parsing stdin")
	threshold := flag.Float64("threshold", 15, "ns/op regression percentage that fails -compare")
	geomean := flag.Bool("geomean", false, "with -compare, print the geomean new/old ns/op ratio over shared benchmarks")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-threshold pct] [-geomean] old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *threshold, *geomean))
	}

	snap, err := parseOutput(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
