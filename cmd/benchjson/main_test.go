package main

import (
	"math"
	"strings"
	"testing"
)

func snap(entries map[string]float64) Snapshot {
	s := Snapshot{Benchmarks: map[string]Metrics{}}
	for name, ns := range entries {
		s.Benchmarks[name] = Metrics{NsPerOp: ns}
	}
	return s
}

func TestParseLine(t *testing.T) {
	name, m, ok := parseLine("BenchmarkAppend-8   1000000   105.3 ns/op   16 B/op   1 allocs/op")
	if !ok || name != "BenchmarkAppend" {
		t.Fatalf("parse = %q, %v", name, ok)
	}
	if m.NsPerOp != 105.3 || m.BytesPerOp != 16 || m.AllocsPerOp != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if _, _, ok := parseLine("PASS"); ok {
		t.Error("non-benchmark line parsed")
	}
}

// Compare is table-driven over the snapshot edge cases: regression
// detection, zero/missing baselines, and additions/removals — none of
// which may flip the exit status or produce Inf/NaN deltas.
func TestCompareSnapshots(t *testing.T) {
	cases := []struct {
		name           string
		old, new       map[string]float64
		wantRegressed  int
		wantContains   []string
		wantNoContains []string
	}{
		{
			name:          "regression detected",
			old:           map[string]float64{"BenchmarkA": 100},
			new:           map[string]float64{"BenchmarkA": 200},
			wantRegressed: 1,
			wantContains:  []string{"<< REGRESSION"},
		},
		{
			name:          "improvement passes",
			old:           map[string]float64{"BenchmarkA": 200},
			new:           map[string]float64{"BenchmarkA": 100},
			wantRegressed: 0,
			wantContains:  []string{"-50.0%"},
		},
		{
			name:           "zero old ns/op never divides",
			old:            map[string]float64{"BenchmarkA": 0},
			new:            map[string]float64{"BenchmarkA": 1e9},
			wantRegressed:  0,
			wantContains:   []string{"(no baseline)"},
			wantNoContains: []string{"Inf", "NaN", "REGRESSION"},
		},
		{
			name:          "additions reported, exit unaffected",
			old:           map[string]float64{"BenchmarkA": 100},
			new:           map[string]float64{"BenchmarkA": 100, "BenchmarkNew": 5e9},
			wantRegressed: 0,
			wantContains:  []string{"(new)", "1 new, 0 removed"},
		},
		{
			name:          "removals reported, exit unaffected",
			old:           map[string]float64{"BenchmarkA": 100, "BenchmarkGone": 50},
			new:           map[string]float64{"BenchmarkA": 100},
			wantRegressed: 0,
			wantContains:  []string{"BenchmarkGone", "(removed)"},
		},
		{
			name:          "disjoint snapshots are all additions and removals",
			old:           map[string]float64{"BenchmarkOld": 50},
			new:           map[string]float64{"BenchmarkNew": 70},
			wantRegressed: 0,
			wantContains:  []string{"(new)", "(removed)", "1 new, 1 removed"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			got := compareSnapshots(&sb, snap(tc.old), snap(tc.new), 15, false)
			if got != tc.wantRegressed {
				t.Errorf("regressed = %d, want %d\n%s", got, tc.wantRegressed, sb.String())
			}
			for _, want := range tc.wantContains {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("output missing %q:\n%s", want, sb.String())
				}
			}
			for _, avoid := range tc.wantNoContains {
				if strings.Contains(sb.String(), avoid) {
					t.Errorf("output contains %q:\n%s", avoid, sb.String())
				}
			}
		})
	}
}

func TestParseLineStepsPerSec(t *testing.T) {
	name, m, ok := parseLine("BenchmarkOnlineFleetParallel/workers=8   2   885749488 ns/op   3405600 steps/s   247419220 B/op   127769 allocs/op")
	if !ok || name != "BenchmarkOnlineFleetParallel/workers=8" {
		t.Fatalf("parse = %q, %v", name, ok)
	}
	if m.StepsPerSec != 3405600 {
		t.Errorf("StepsPerSec = %v, want 3405600", m.StepsPerSec)
	}
}

// steps/s deltas ride along in the compare table when both snapshots
// report the metric; missing steps/s on either side leaves the column
// blank instead of fabricating a delta.
func TestCompareStepsPerSecDelta(t *testing.T) {
	mk := func(ns, steps float64) Snapshot {
		return Snapshot{Benchmarks: map[string]Metrics{
			"BenchmarkA": {NsPerOp: ns, StepsPerSec: steps},
		}}
	}
	var sb strings.Builder
	compareSnapshots(&sb, mk(100, 1000), mk(100, 1200), 15, false)
	if !strings.Contains(sb.String(), "+20.0%") {
		t.Errorf("steps/s delta missing:\n%s", sb.String())
	}
	sb.Reset()
	compareSnapshots(&sb, mk(100, 0), mk(100, 1200), 15, false)
	if strings.Contains(sb.String(), "+Inf") || strings.Contains(sb.String(), "NaN") {
		t.Errorf("missing baseline steps/s produced a bogus delta:\n%s", sb.String())
	}
}

func TestCompareGeomean(t *testing.T) {
	oldSnap := snap(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100})
	newSnap := snap(map[string]float64{"BenchmarkA": 50, "BenchmarkB": 200})
	var sb strings.Builder
	compareSnapshots(&sb, oldSnap, newSnap, 1000, true)
	// ratios 0.5 and 2.0 → geomean exactly 1.000
	if !strings.Contains(sb.String(), "geomean ns/op ratio: 1.000x over 2 shared benchmark(s)") {
		t.Errorf("geomean line missing or wrong:\n%s", sb.String())
	}
	sb.Reset()
	compareSnapshots(&sb, oldSnap, newSnap, 1000, false)
	if strings.Contains(sb.String(), "geomean") {
		t.Errorf("geomean printed without the flag:\n%s", sb.String())
	}
}

func TestPctFinite(t *testing.T) {
	if d := pct(100, 115); math.Abs(d-15) > 1e-9 {
		t.Errorf("pct(100,115) = %v", d)
	}
	if d := pct(100, 100); d != 0 {
		t.Errorf("pct(100,100) = %v", d)
	}
}

// parseOutput fills the meta block from go test's cpu header and the
// first result's GOMAXPROCS suffix.
func TestParseOutputMeta(t *testing.T) {
	out := "goos: linux\ngoarch: amd64\npkg: repro/internal/kvcache\ncpu: Intel Xeon Processor\n" +
		"BenchmarkAppend-4   1000000   105.3 ns/op   16 B/op   1 allocs/op\nPASS\n"
	snap, err := parseOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if m := snap.Meta; m.CPU != "Intel Xeon Processor" || m.GOMAXPROCS != 4 || m.Go == "" {
		t.Errorf("meta = %+v", m)
	}
	if _, ok := snap.Benchmarks["BenchmarkAppend"]; !ok {
		t.Errorf("benchmarks = %v", snap.Benchmarks)
	}
	snap, err = parseOutput(strings.NewReader("BenchmarkAppend   1000000   105.3 ns/op\n"))
	if err != nil || snap.Meta.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed name: meta = %+v, err = %v", snap.Meta, err)
	}
}

// A regression between snapshots of one host (the commits differ) gets
// the usual verdict; between hosts, or against a snapshot without
// metadata, it gets a cross-host warning and fails nothing.
func TestCompareCrossHost(t *testing.T) {
	host := Meta{Go: "go1.24.0", GOMAXPROCS: 2, CPU: "Intel Xeon Processor"}
	withMeta := func(m *Meta, ns float64) Snapshot {
		s := snap(map[string]float64{"BenchmarkA": ns})
		s.Meta = m
		return s
	}
	oldMeta, sameMeta, otherCPU, otherProcs := host, host, host, host
	oldMeta.Commit, sameMeta.Commit = "aaa", "bbb"
	otherCPU.CPU = "AMD EPYC"
	otherProcs.GOMAXPROCS = 8
	cases := []struct {
		name          string
		old, new      *Meta
		wantRegressed int
		want, avoid   string
	}{
		{"same host, new commit", &oldMeta, &sameMeta, 1, "1 benchmark(s) regressed", "cross-host"},
		{"different cpu", &oldMeta, &otherCPU, 0, "cross-host", "REGRESSION"},
		{"different GOMAXPROCS", &oldMeta, &otherProcs, 0, "cross-host", "REGRESSION"},
		{"old snapshot without metadata", nil, &sameMeta, 0, "cross-host", "REGRESSION"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			got := compareSnapshots(&sb, withMeta(tc.old, 100), withMeta(tc.new, 200), 15, false)
			if got != tc.wantRegressed {
				t.Errorf("regressed = %d, want %d\n%s", got, tc.wantRegressed, sb.String())
			}
			if !strings.Contains(sb.String(), tc.want) || strings.Contains(sb.String(), tc.avoid) {
				t.Errorf("output should contain %q and not %q:\n%s", tc.want, tc.avoid, sb.String())
			}
		})
	}
}
